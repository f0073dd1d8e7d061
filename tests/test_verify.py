import inspect
import json

import numpy as np
import pytest

from conekop.sampling import SamplingPlan, attach_link_margin
from conekop.varieties import get_variety, hyperplane
from conekop.verify import (
    EXPERIMENTS,
    ExperimentReport,
    InsufficientDecadesError,
    fit_linear,
    fit_loglog,
    flat_bm_residuals,
    kernel_direction_derivative,
    run_experiment,
    run_hoelder_modulus,
    run_koppelman_q1_loose,
    run_log_annulus,
    run_lp_threshold,
    run_offcenter_ball,
    run_radial_scaling,
    run_two_pole,
)

A1 = get_variety("a1")
HP = get_variety("hyperplane")


def plan(n, tag="tv"):
    return SamplingPlan(samples=n, seed=23, experiment_id=tag)


def test_registry_names():
    assert set(EXPERIMENTS) == {
        "radial_scaling", "two_pole", "log_annulus", "offcenter_ball", "hoelder",
        "cutoff_decay", "koppelman_q0", "koppelman_q1_loose", "lp_threshold",
        "tm_decay", "truncation", "v_bounds", "calibrate",
    }
    with pytest.raises(KeyError):
        run_experiment("nonsense", A1, plan(2_000))


# the parameters a test or the acceptance gate sets, each a different
# checked configuration; every other grid value is a constant
KEPT_PARAMETERS = {
    "radial_scaling": ["alphas", "r_lo", "r_hi"],
    "two_pole": ["alpha", "beta"],
    "hoelder": ["gamma"],
    "koppelman_q0": ["rel_tol", "scale_mode"],
    "koppelman_q1_loose": ["fd_step"],
    "lp_threshold": ["r_min_list"],
    "calibrate": ["ambient_dim"],
}


def test_experiments_take_only_the_set_parameters():
    common = ["v", "plan", "cfg", "tolerance_scale"]
    got = {name: list(inspect.signature(fn).parameters)
           for name, fn in EXPERIMENTS.items()}
    assert got == {name: common + KEPT_PARAMETERS.get(name, [])
                   for name in EXPERIMENTS}


def test_fit_loglog_recovers_exponent():
    rng = np.random.default_rng(0)
    x = np.geomspace(1e-3, 1.0, 12)
    y = 3.7 * x**2.5 * np.exp(0.01 * rng.standard_normal(12))
    fit = fit_loglog(x, y)
    assert fit.slope == pytest.approx(2.5, abs=0.02)
    assert fit.ci_lo < 2.5 < fit.ci_hi
    assert fit.r2 > 0.999


def test_fit_linear_basic():
    x = np.arange(10.0)
    fit = fit_linear(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0) and fit.intercept == pytest.approx(1.0)
    assert fit.r2 == pytest.approx(1.0)


def test_radial_scaling_requires_two_decades():
    with pytest.raises(InsufficientDecadesError):
        run_radial_scaling(A1, plan(5_000), r_lo=0.1, r_hi=1.0)


def test_radial_scaling_volume_slope():
    # alpha = 0 is the ball volume: slope exactly 2n
    rep = run_radial_scaling(A1, plan(60_000, "rs0"), alphas=(0.0,))
    assert rep.checks["slope_alpha_0"]
    assert rep.fitted["slope_alpha_0"]["value"] == pytest.approx(4.0, abs=0.05)


def test_two_pole_pairs_share_one_midpoint(monkeypatch):
    # every separation straddles the same base point along the same
    # direction: the midpoints (z + w) / 2 differ only by the O(delta^2)
    # correction of projecting p +- delta e / 2 back onto X
    from conekop import verify

    captured = []
    real = verify.integrate

    def spy(v, region, integrand, plan_, poles=(), chart=None):
        captured.append(poles)
        return real(v, region, integrand, plan_, poles=poles, chart=chart)

    monkeypatch.setattr(verify, "integrate", spy)
    run_two_pole(A1, plan(9_000, "tpmid"))
    assert len(captured) == 9
    mid0 = (captured[0][0][0] + captured[0][1][0]) / 2
    for (z, _), (w, _) in captured:
        sep = np.sqrt(np.sum(np.abs(z - w) ** 2))
        assert np.sqrt(np.sum(np.abs((z + w) / 2 - mid0) ** 2)) <= 0.25 * sep**2


def test_two_pole_trivial_volume():
    rep = run_two_pole(A1, plan(30_000, "tp0"), alpha=0.0, beta=0.0)
    from conekop.sampling import Region, integrate

    vol = integrate(A1, Region.domain(1.0, 3),
                    lambda b: np.ones(len(b), dtype=complex), plan(30_000, "tpv"))
    for r in rep.rows:
        err = 4 * np.hypot(r["stderr"], vol.stderr)
        assert abs(r["integral"] - vol.value.real) <= err


def test_two_pole_log_regime_is_linear_in_log_separation():
    # alpha + beta = 2n: the integral grows like |log |z - w||
    rep = run_two_pole(HP, SamplingPlan(samples=30_000, seed=5, experiment_id="tplog"),
                       alpha=2.0, beta=2.0)
    assert rep.parameters["regime"] == "log"
    assert rep.checks["log_regime_linear"]
    assert rep.fitted["log_fit_r2"]["value"] > 0.99


def test_log_annulus_rows_are_two_pi_squared_on_the_hyperplane():
    # in C^2, dV = 2 pi^2 r^3 dr, so each row is 2 pi^2 times the change of
    # log|log r| across (e^-e^(m+1), e^-e^m): exactly 2 pi^2, for every m and
    # about the origin and the surface point alike
    rep = run_log_annulus(HP, SamplingPlan(samples=30_000, seed=5, experiment_id="la"))
    assert len(rep.rows) == 6
    for r in rep.rows:
        val = r["integral"] if "integral" in r else r["loglog_integral"]
        assert abs(val - 2 * np.pi**2) <= 4 * r["stderr"], r


def test_offcenter_ball_concentric_rows_are_exact_on_the_hyperplane():
    # int over B(z, r) of |zeta - z|^-1 dV = 2 pi^2 r^3 / 3 in C^2
    rep = run_offcenter_ball(HP, SamplingPlan(samples=30_000, seed=5,
                                              experiment_id="oc"))
    rows = [r for r in rep.rows if r["mode"] == "concentric"]
    assert len(rows) == 5
    for r in rows:
        err = 4 * r["stderr"] / r["r"] ** 3
        assert abs(r["normalized"] - 2 * np.pi**2 / 3) <= err, r


def test_hoelder_zero_separation_is_zero():
    from conekop.kernels import model_k_tilde

    z = np.array([0.4, 0.3, 0.0], dtype=complex)
    zeta = np.array([[1.0, 0.2, 0.0]], dtype=complex)
    assert model_k_tilde(zeta, z, 1.0, 0, 2)[0] == pytest.approx(
        model_k_tilde(zeta, z, 1.0, 0, 2)[0])
    # the modulus integrand vanishes identically for w = z
    diff = np.abs(model_k_tilde(zeta, z, 1.0, 0, 2) - model_k_tilde(zeta, z, 1.0, 0, 2))
    assert diff[0] == 0.0


def test_kernel_direction_derivative_matches_finite_difference():
    # the integrand of the predicted Hoelder log coefficient is the derivative
    # of the model kernel along the separation direction, on T_pX
    from conekop.kernels import model_k_tilde
    from conekop.sampling import surface_point_with_norm, tangent_frame

    p = surface_point_with_norm(A1, 0.5, seed=3)
    fr = tangent_frame(A1, p)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((6, 4))
    c = g[:, :2] + 1j * g[:, 2:]
    theta = (c / np.linalg.norm(c, axis=1)[:, None]) @ fr
    h = 1e-5
    for e in fr:
        for comp in range(3):
            # K~(zeta, z) depends on zeta - z, so moving z by -h e moves u by +h e
            fd = (model_k_tilde(p + theta, p - h * e, 0.0, comp, 2)
                  - model_k_tilde(p + theta, p + h * e, 0.0, comp, 2)) / (2 * h)
            exact = kernel_direction_derivative(theta, e, comp, 2)
            assert np.allclose(fd, exact, rtol=1e-6, atol=1e-8)


def test_hoelder_gate_rejects_zero_coefficient(monkeypatch):
    # a Lipschitz modulus has log coefficient 0; the measured one must not pass
    import conekop.verify as verify

    monkeypatch.setattr(verify, "hoelder_log_coefficient", lambda *a, **k: 0.0)
    rep = run_hoelder_modulus(A1, plan(36_000, "hz"))
    assert rep.predicted["modulus_log_coefficient"] == 0.0
    assert rep.fitted["modulus_log_coefficient"]["value"] > 10.0
    assert rep.checks == {"modulus_log_coefficient": False}
    assert not rep.verdict


def test_lp_threshold_reports():
    rep = run_lp_threshold(A1, plan(40_000, "lpth"), r_min_list=(4e-2, 2e-2, 1e-2))
    assert rep.checks["stable_above_threshold"]
    assert "divergence_exponent" in rep.fitted
    assert rep.fitted["divergence_exponent"]["value"] > 0.5  # grows below threshold


def test_flat_bm_residuals_small():
    rows = flat_bm_residuals(plan(60_000, "fbm"), z_norms=(0.1, 0.3))
    for r in rows:
        assert r["residual"] <= max(3 * r["stderr"], 0.02 * abs(r["phi_z"]))


def test_report_serialization_roundtrip():
    rep = run_radial_scaling(A1, plan(30_000, "ser"), alphas=(1.0,))
    doc = rep.to_json_dict()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["name"] == "radial_scaling"
    assert "runtime" not in back  # wall clock excluded for byte-identity
    rows = rep.csv_rows()
    assert all(set(r) == {"experiment", "variety", "param", "predicted", "fitted",
                          "ci_lo", "ci_hi", "verdict"} for r in rows)
    assert any(r["param"] == "slope_alpha_1" for r in rows)


def test_report_checks_serialize_as_json_booleans():
    rep = ExperimentReport("unit", "a1", {})
    rep.record_check("holds", True)
    rep.record_check("fails", np.bool_(False))
    rep.rows.append({"pass": np.bool_(True), "count": 3})
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert '"fails": false' in text and '"holds": true' in text
    back = json.loads(text)
    assert back["checks"] == {"holds": True, "fails": False}
    assert back["rows"][0]["pass"] is True and back["rows"][0]["count"] == 3


def test_record_value_layout():
    rep = ExperimentReport("unit", "a1", {})
    fit = fit_linear(np.arange(5.0), np.array([0.0, 1.1, 1.9, 3.2, 3.9]))
    assert fit.r2 < 1.0
    rep.record_value("spread", 2.5, 1.0)
    rep.record_value("log_case_r2", fit.r2, 1.0, r2=fit.r2)
    doc = rep.to_json_dict()
    assert doc["fitted"] == {
        "spread": {"value": 2.5, "ci_lo": 2.5, "ci_hi": 2.5, "stderr": 0.0,
                   "r2": 1.0},
        "log_case_r2": {"value": fit.r2, "ci_lo": fit.r2, "ci_hi": fit.r2,
                        "stderr": 0.0, "r2": fit.r2},
    }
    assert doc["predicted"] == {"spread": 1.0, "log_case_r2": 1.0}
    assert doc["checks"] == {} and doc["verdict"] is True
    head = {"experiment": "unit", "variety": "a1"}
    assert rep.csv_rows() == [
        {**head, "param": "spread", "predicted": 1.0, "fitted": 2.5,
         "ci_lo": 2.5, "ci_hi": 2.5, "verdict": "pass"},
        {**head, "param": "log_case_r2", "predicted": 1.0, "fitted": fit.r2,
         "ci_lo": fit.r2, "ci_hi": fit.r2, "verdict": "pass"},
    ]


def test_koppelman_q1_loose_runs_and_reports():
    rep = run_koppelman_q1_loose(HP, plan(60_000, "q1"), fd_step=0.03)
    assert "q1_residual_over_scale" in rep.fitted
    assert rep.rows and "fd" in rep.rows[0]


def test_koppelman_q0_flat_even_ambient_dimension():
    # the q = 0 homotopy identity on the hyperplane z_4 = 0 in C^4; with c_K
    # of the wrong sign the bump rows miss by 2-4x their tolerance
    v = attach_link_margin(hyperplane(4), samples=2000)
    rep = run_experiment("koppelman_q0", v, SamplingPlan(samples=4096, seed=7))
    assert rep.checks == {"identity_holo1100": True, "identity_zbar0_bump": True}
