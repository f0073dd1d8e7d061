"""Acceptance gate: one test per criterion, at fixed budgets and tolerances.

Each test prints a single summary line; the suite is deterministic for the
fixed seed below.  Criterion 6 gates the Hölder modulus on its sharp law
delta * (a + b |log delta|) at one base point: the fitted b must lie within
10% of the predicted sphere-integral constant.  The pure power-law slope is
only reported, since on [1e-3, 1e-1] it stays below 0.9 for a correct kernel;
see the criterion's docstring.
"""

import numpy as np

from conekop.kernels import WeightConfig, sigma_form
from conekop.sampling import SamplingPlan
from conekop.varieties import get_variety
from conekop.verify import (
    flat_bm_residuals,
    run_cutoff_decay,
    run_hoelder_modulus,
    run_koppelman_q0,
    run_lp_threshold,
    run_radial_scaling,
    run_tm_decay,
    run_truncation,
    run_two_pole,
    run_v_bounds,
)

SEED = 2026
CFG = WeightConfig()
CATALOG = ("hyperplane", "a1", "fermat3", "fermat4", "ci22")


def plan(n, tag):
    return SamplingPlan(samples=n, seed=SEED, experiment_id=tag)


def _announce(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_algebraic_exactness():
    """Hefer exactness, contraction normalization, Euler identity, homogeneity."""
    rng = np.random.default_rng(SEED)
    worst = {"hefer": 0.0, "euler": 0.0, "sigma": 0.0, "minors": 0.0, "omega": 0.0}
    for name in CATALOG:
        v = get_variety(name)
        N = v.ambient_dim
        ze = rng.standard_normal((1000, N)) + 1j * rng.standard_normal((1000, N))
        zz = rng.standard_normal((1000, N)) + 1j * rng.standard_normal((1000, N))
        H = v.hefer_coeffs(ze, zz)
        lhs = np.einsum("bj,bij->bi", ze - zz, H)
        rhs = v.eval_tuple(ze) - v.eval_tuple(zz)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst["hefer"] = max(worst["hefer"], float(np.max(np.abs(lhs - rhs))) / scale)

        J = v.jacobian(ze)
        el = np.einsum("bj,bij->bi", ze, J)
        er = v.eval_tuple(ze) * np.array(v.degrees)
        worst["euler"] = max(worst["euler"],
                             float(np.max(np.abs(el - er)))
                             / max(1.0, float(np.max(np.abs(er)))))

        for lam in (2.0, 1.0 + 1.0j, 0.1):
            ratio = v.minors_norm(lam * ze[:100]) / v.minors_norm(ze[:100])
            expected = abs(lam) ** (v.total_degree - v.nu)
            worst["minors"] = max(worst["minors"],
                                  float(np.max(np.abs(ratio / expected - 1.0))))
        if v.total_degree > v.nu:
            from conekop.kernels import structure_form

            lam = 1.0 + 1.0j
            o1 = structure_form(v, ze[:50], v.minors(ze[:50]))
            o2 = structure_form(v, lam * ze[:50], v.minors(lam * ze[:50]))
            n1 = np.zeros(50)
            n2 = np.zeros(50)
            for m in o1.terms:
                n1 += np.abs(o1.terms[m]) ** 2
                n2 += np.abs(np.atleast_1d(o2.terms.get(m, 0.0))
                             * np.ones(50)) ** 2
            expected = abs(lam) ** -(v.total_degree - v.nu)
            worst["omega"] = max(worst["omega"], float(np.max(
                np.abs(np.sqrt(n2 / n1) / expected - 1.0))))

    zeta = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
    z = np.array([0.1, -0.2j, 0.05])
    out = sigma_form(zeta, z, 3).contract_eta(zeta - z)
    worst["sigma"] = float(np.max(np.abs(out.terms[0] - 1.0)))

    ok = (worst["hefer"] < 1e-10 and worst["euler"] < 1e-10
          and worst["sigma"] < 1e-12 and worst["minors"] < 1e-12
          and worst["omega"] < 1e-12)
    _announce(1, ok, f"residuals {worst}")
    assert worst["hefer"] < 1e-10
    assert worst["euler"] < 1e-10
    assert worst["sigma"] < 1e-12
    assert worst["minors"] < 1e-12
    assert worst["omega"] < 1e-12


def test_criterion_02_flat_calibration():
    """Bochner-Martinelli reproduction and the q = 0 identity on the flat model."""
    rows = flat_bm_residuals(plan(1_000_000, "acc2bm"))
    bm_ok = all(r["residual"] <= max(3 * r["stderr"], 0.02 * abs(r["phi_z"]))
                for r in rows)
    hp = get_variety("hyperplane")
    rep = run_koppelman_q0(hp, plan(1_000_000, "acc2kop"), cfg=CFG, rel_tol=0.02,
                           scale_mode="pointwise")
    ok = bm_ok and rep.verdict
    worst_bm = max(r["residual"] for r in rows)
    _announce(2, ok, f"worst BM residual {worst_bm:.4g}, identity "
                     f"checks {rep.checks}")
    assert bm_ok, f"BM reproduction rows: {rows}"
    assert rep.verdict, f"flat identity rows: {rep.rows}"


def test_criterion_03_singular_koppelman_q0():
    """q = 0 homotopy identity on the quadric cone for both test inputs."""
    a1 = get_variety("a1")
    rep = run_koppelman_q0(a1, plan(1_000_000, "acc3"), cfg=CFG, rel_tol=0.05)
    _announce(3, rep.verdict,
              f"checks {rep.checks}, worst ratios "
              f"{ {k: round(f['value'], 3) for k, f in rep.fitted.items()} }")
    assert rep.verdict, f"identity rows: {rep.rows}"


def test_criterion_04_radial_scaling():
    """Radial power laws on the quadric cone and the logarithmic borderline."""
    a1 = get_variety("a1")
    rep = run_radial_scaling(a1, plan(400_000, "acc4"))
    slopes = {k: round(f["value"], 4) for k, f in rep.fitted.items()}
    _announce(4, rep.verdict, f"fits {slopes}")
    for a in (1.0, 2.0, 3.0):
        key = f"slope_alpha_{a:g}"
        assert abs(rep.fitted[key]["value"] - (4.0 - a)) <= 0.05, slopes
    assert rep.checks["log_case_linear"], slopes


def test_criterion_05_two_pole_regimes():
    """Bounded and power regimes of the two-pole integrals."""
    a1 = get_variety("a1")
    rep_b = run_two_pole(a1, plan(300_000, "acc5b"), alpha=1.0, beta=1.0)
    rep_p = run_two_pole(a1, plan(300_000, "acc5p"), alpha=3.0, beta=2.0)
    sb = rep_b.fitted["separation_slope"]["value"]
    sp = rep_p.fitted["separation_slope"]["value"]
    ok = abs(sb) < 0.05 and abs(sp + 1.0) <= 0.1
    _announce(5, ok, f"bounded slope {sb:.4f}, power slope {sp:.4f}")
    assert abs(sb) < 0.05, rep_b.rows
    assert abs(sp + 1.0) <= 0.1, rep_p.rows


def test_criterion_06_hoelder_modulus():
    """Sharp Hölder law of the model kernel for gamma in {0, 1}.

    At one base point p and one tangent direction e the L^1 first-difference
    modulus follows omega(delta) = delta * (a + b |log delta|), so the kernel
    is C^alpha for every alpha < 1 but not Lipschitz.  Gated: the slope of
    omega / delta against |log delta| over [1e-3, 1e-1] lies within 10% of the
    predicted b, the sphere integral over T_pX of the kernel's derivative
    along e.  The pure power-law slope is printed only: its local value
    1 - 1/(a/b + |log delta|) is at most ~0.88 at delta = 1e-3 for the
    measured a/b of 1.1-1.4, so no fit over this range reaches 0.9.
    """
    a1 = get_variety("a1")
    results = {}
    for g in (0.0, 1.0):
        rep = run_hoelder_modulus(a1, plan(400_000, f"acc6g{g:g}"), gamma=g)
        results[g] = (rep.checks["modulus_log_coefficient"],
                      rep.fitted["modulus_log_coefficient"],
                      rep.predicted["modulus_log_coefficient"],
                      rep.fitted["modulus_slope"]["value"],
                      rep.fitted["log_corrected_r2"]["value"])
    ok = all(r[0] for r in results.values())
    detail = ", ".join(
        f"gamma={g:g}: log coefficient {r[1]['value']:.3f} "
        f"(CI {r[1]['ci_lo']:.3f}..{r[1]['ci_hi']:.3f}, predicted {r[2]:.3f}), "
        f"R2 {r[4]:.4f}, power-law slope {r[3]:.3f} (reported)"
        for g, r in results.items())
    _announce(6, ok, detail)
    assert ok, "log coefficient outside 10% of the sharp constant: " + detail


def test_criterion_07_cutoff_decay():
    """Strict decay of the dbar mass of the cut-offs with confined support."""
    a1 = get_variety("a1")
    rep = run_cutoff_decay(a1, plan(200_000, "acc7"))
    vals = [r["dbar_mu_l2n_norm"] for r in rep.rows if "dbar_mu_l2n_norm" in r]
    _announce(7, rep.verdict, f"norms {['%.4f' % v for v in vals]}, "
                              f"checks {rep.checks}")
    assert rep.checks["strictly_decreasing"], vals
    assert rep.checks["halving"], vals
    assert rep.checks["support_confined"] and rep.checks["support_nonempty"]


def test_criterion_08_tm_decay_and_truncation():
    """Decay of the annulus operators in m and of the truncation tails in j."""
    a1 = get_variety("a1")
    rep_m = run_tm_decay(a1, plan(300_000, "acc8m"))
    rep_j = run_truncation(a1, plan(300_000, "acc8j"))
    ms = [r["rms_over_grid"] for r in rep_m.rows]
    js = [r["tail_rms"] for r in rep_j.rows]
    ok = rep_m.verdict and rep_j.verdict
    _announce(8, ok, f"T_m rms {['%.3g' % v for v in ms]}, "
                     f"truncation tails {['%.3g' % v for v in js]}")
    assert rep_m.verdict, ms
    assert rep_j.verdict, js


def test_criterion_09_v_bounds():
    """Monotone positive volume ratios and cone scale invariance."""
    a1 = get_variety("a1")
    rep = run_v_bounds(a1, plan(250_000, "acc9"))
    _announce(9, rep.verdict,
              f"v_min {rep.fitted['v_min']['value']:.4f}, "
              f"v_max {rep.fitted['v_max']['value']:.4f}, checks {rep.checks}")
    assert rep.checks["v_monotone_nondecreasing"], rep.rows
    assert rep.checks["v_min_positive"]
    assert rep.checks["cone_scale_invariance"], rep.rows


def test_criterion_10_threshold_probe():
    """Kernel-mass stability above the exponent threshold; growth reported below.

    The boundedness estimates assert nothing below the threshold, so the
    below-threshold divergence is informational and only stability is gated.
    """
    a1 = get_variety("a1")
    rep = run_lp_threshold(a1, plan(300_000, "acc10"))
    div = rep.fitted["divergence_exponent"]["value"]
    _announce(10, rep.checks["stable_above_threshold"],
              f"stable at p=2: {rep.checks['stable_above_threshold']}, "
              f"fitted divergence exponent at p=1.2: {div:.3f} "
              f"(predicted {rep.predicted['divergence_exponent']:.3f}, reported)")
    assert rep.checks["stable_above_threshold"], rep.rows
