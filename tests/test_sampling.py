import itertools
import re
import warnings

import numpy as np
import pytest

from conekop import operators as O
from conekop import sampling
from conekop.forms import TestForm
from conekop.kernels import WeightConfig, annulus_bounds
from conekop.sampling import (
    Chart,
    EmptyRegionError,
    FiberDegenerateError,
    NearSingularError,
    PointBatch,
    Region,
    SamplingPlan,
    admissible_charts,
    chart_stretch,
    default_chart,
    estimate_v,
    gram_factors,
    integrate,
    project_to_surface,
    solve_fiber,
    surface_point_with_norm,
    tangent_frame,
)
from conekop.varieties import (ConeVariety, MultiIndexPoly, catalog_names,
                               eval_monomials, get_variety)
from layer_cake import ProfileError, layer_cake_integral

HP = get_variety("hyperplane")
A1 = get_variety("a1")
ONE = lambda b: np.ones(len(b), dtype=complex)
CFG = WeightConfig()


def test_admissible_charts():
    assert admissible_charts(HP) == [Chart((0, 1), (2,))]
    assert len(admissible_charts(A1)) == 3
    assert len(admissible_charts(get_variety("ci22"))) == 6


def _sheets(v, base, chart):
    """Valid sheets over one base point and their Gram factors."""
    pts, valid = solve_fiber(v, chart, np.asarray(base, dtype=complex)[None, :])
    sel = pts[valid]
    return sel, np.real(gram_factors(v, chart, v.minors(sel)))


@pytest.mark.parametrize("name", catalog_names())
def test_gram_factors_match_graph_metric(name):
    # the minors formula against det(I + A^H A) for the derivative
    # A = -Jf^-1 Jb of the graph map, on every admissible chart
    v = get_variety(name)
    rng = np.random.default_rng(5)
    bases = rng.standard_normal((80, v.dim)) + 1j * rng.standard_normal((80, v.dim))
    for chart in admissible_charts(v):
        pts, valid = solve_fiber(v, chart, bases)
        sel = pts[valid]
        assert len(sel) > 0
        J = v.jacobian(sel)
        A = -np.linalg.solve(J[..., chart.fiber], J[..., chart.base])
        AHA = np.conj(np.swapaxes(A, -1, -2)) @ A
        want = np.real(np.linalg.det(np.eye(v.dim) + AHA))
        got = gram_factors(v, chart, v.minors(sel))
        assert np.max(np.abs(got - want) / want) <= 1e-12
        # an empty batch gives empty arrays of the same sheet count
        none, none_valid = solve_fiber(v, chart, np.zeros((0, v.dim)))
        assert none.shape == (0,) + pts.shape[1:]
        assert none_valid.shape == (0,) + valid.shape[1:]


def test_solve_fiber_a1_two_sheets():
    # base (1, 0) in the chart projecting out the last coordinate
    pts, grams = _sheets(A1, [1.0, 0.0], Chart((0, 1), (2,)))
    assert len(pts) == 2
    assert sorted(pts[:, 2].imag) == pytest.approx([-1.0, 1.0])
    assert grams == pytest.approx([2.0, 2.0], rel=1e-10)
    assert np.max(np.abs(A1.eval_tuple(pts))) < 1e-10


def test_solve_fiber_hyperplane_flat_sheet():
    pts, grams = _sheets(HP, [0.3 + 0.1j, -2.0], default_chart(HP))
    assert len(pts) == 1
    assert pts[0, 2] == pytest.approx(0.0)
    assert grams[0] == pytest.approx(1.0)


def test_solve_fiber_branch_locus_discarded():
    pts, _ = _sheets(A1, [1.0, 1j], Chart((0, 1), (2,)))
    assert len(pts) == 0


def test_fiber_degenerate_chart():
    with pytest.raises(FiberDegenerateError):
        solve_fiber(HP, Chart((1, 2), (0,)), np.array([[1.0, 2.0]], dtype=complex))


def test_point_residual_tolerance():
    rng = np.random.default_rng(0)
    bases = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    for v in (A1, get_variety("fermat3"), get_variety("fermat4")):
        pts, valid = solve_fiber(v, default_chart(v), bases)
        res = np.sqrt(np.sum(np.abs(v.eval_tuple(pts[valid])) ** 2, axis=-1))
        nrm = np.sqrt(np.sum(np.abs(pts[valid]) ** 2, axis=-1))
        assert np.all(res <= 1e-10 * np.maximum(1.0, nrm) ** v.total_degree)


def test_tangent_frame_hyperplane():
    fr = tangent_frame(HP, np.array([0.5, 0.25, 0.0], dtype=complex))
    assert np.allclose(fr[:, 2], 0.0)
    assert np.allclose(fr @ np.conj(fr.T), np.eye(2), atol=1e-12)


def test_tangent_frame_orthonormal_and_in_kernel():
    rng = np.random.default_rng(1)
    bases = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    pts, valid = solve_fiber(A1, default_chart(A1), bases)
    sel = pts[valid][:1000]
    from conekop.sampling import frames_for

    fr = frames_for(A1, sel)
    gram = np.einsum("bik,bjk->bij", fr, np.conj(fr))
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10
    J = A1.jacobian(sel)
    resid = np.einsum("bij,bkj->bik", J, fr)
    scale = np.sqrt(np.sum(np.abs(J) ** 2, axis=(-2, -1)))[:, None, None]
    assert np.max(np.abs(resid) / np.maximum(scale, 1e-300)) < 1e-8


def test_tangent_frame_near_singular_error():
    with pytest.raises(NearSingularError):
        tangent_frame(A1, np.zeros(3, dtype=complex))


@pytest.mark.parametrize("name", catalog_names())
def test_projector_fixes_positions(name):
    # Euler: J(zeta) zeta = deg * f(zeta) = 0, so every point lies in its own
    # tangent plane, and a radial (0,1) form keeps its full norm on X
    v = get_variety(name)
    rng = np.random.default_rng(6)
    bases = rng.standard_normal((60, v.dim)) + 1j * rng.standard_normal((60, v.dim))
    pts, valid = solve_fiber(v, default_chart(v), bases)
    sel = pts[valid]
    P = PointBatch(v, sel, np.ones(len(sel)), v.minors(sel)).projector
    scale = np.max(np.abs(sel))
    assert np.max(np.abs(np.einsum("bij,bj->bi", P, sel) - sel)) <= 1e-12 * scale
    assert np.max(np.abs(P @ P - P)) <= 1e-12
    assert np.allclose(np.trace(P, axis1=-2, axis2=-1), v.dim, atol=1e-12)


def test_projector_near_singular_error():
    pts = np.array([[0.5, 0.5j, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(NearSingularError):
        PointBatch(A1, pts, np.ones(2), A1.minors(pts)).projector


@pytest.mark.parametrize("name", ["a1", "fermat3", "ci22"])
def test_projector_matches_jacobian_formula(name):
    # the frame projector F^T conj(F) against I - J^H (J J^H)^-1 J
    v = get_variety(name)
    rng = np.random.default_rng(8)
    bases = rng.standard_normal((200, v.dim)) + 1j * rng.standard_normal((200, v.dim))
    pts, valid = solve_fiber(v, default_chart(v), bases)
    sel = pts[valid]
    J = v.jacobian(sel)
    JH = np.conj(np.swapaxes(J, -1, -2))
    want = np.eye(v.ambient_dim) - JH @ np.linalg.solve(J @ JH, J)
    got = PointBatch(v, sel, np.ones(len(sel)), v.minors(sel)).projector
    assert np.max(np.abs(got - want)) <= 1e-13
    cone_point = np.zeros((1, v.ambient_dim), dtype=complex)
    with pytest.raises(NearSingularError):
        PointBatch(v, cone_point, np.ones(1), v.minors(cone_point)).projector


def test_sampling_plan_rejects_bad_radii():
    with pytest.raises(ValueError):
        SamplingPlan(r_min=0.0)
    with pytest.raises(ValueError):
        SamplingPlan(shell_ratio=1.01)
    with pytest.raises(ValueError):
        SamplingPlan().with_(shell_ratio=float("nan"))


def test_flat_ball_volume():
    plan = SamplingPlan(samples=50_000, seed=2, experiment_id="tv")
    res = integrate(HP, Region.ball(np.zeros(3), 1.0), ONE, plan)
    assert res.value.real == pytest.approx(np.pi**2 / 2, rel=1e-12)
    assert res.samples == sum(s.count for s in res.strata)


def test_cone_scale_invariance():
    plan = SamplingPlan(samples=60_000, seed=3, experiment_id="tsc")
    v1 = integrate(A1, Region.ball(np.zeros(3), 0.5), ONE, plan)
    v2 = integrate(A1, Region.ball(np.zeros(3), 1.0), ONE,
                   plan.with_(experiment_id="tsc2"))
    lam = 2.0
    err = 3.0 * np.hypot(v2.stderr, lam**4 * v1.stderr)
    assert abs(v2.value.real - lam**4 * v1.value.real) <= err


def test_chart_independence():
    plan = SamplingPlan(samples=60_000, seed=4, experiment_id="tci")
    charts = admissible_charts(A1)
    z = surface_point_with_norm(A1, 0.5, seed=9)
    region = Region.ball(z, 0.4)
    r1 = integrate(A1, region, ONE, plan, chart=charts[0])
    r2 = integrate(A1, region, ONE, plan.with_(experiment_id="tci2"),
                   chart=charts[2])
    assert abs(r1.value - r2.value) <= 3.0 * np.hypot(r1.stderr, r2.stderr)


def test_radial_integral_against_quadrature_oracle():
    # flat model: integral of |zeta|^(-1) over the unit ball of C^2; oracle is
    # a 1-d quadrature of Vol(S^3) r^(2n-1-alpha) dr
    rr = np.linspace(0.0, 1.0, 20_001)
    oracle = 2 * np.pi**2 * np.trapezoid(rr ** (4 - 1 - 1), rr)
    plan = SamplingPlan(samples=80_000, seed=5, experiment_id="tro")
    res = integrate(
        HP, Region.ball(np.zeros(3), 1.0),
        lambda b: 1.0 / np.maximum(b.norms(), 1e-300) + 0j, plan,
        poles=[(np.zeros(3), 1.0)],
    )
    assert abs(res.value.real - oracle) <= max(3.0 * res.stderr, 2e-3 * oracle)


def test_estimate_v_flat():
    plan = SamplingPlan(samples=40_000, seed=6, experiment_id="tev")
    res = estimate_v(HP, 0.5, np.zeros(3), plan)
    assert res.value.real == pytest.approx(np.pi**2 / 2, rel=1e-9)


def test_estimate_v_cone_invariance_and_monotone():
    plan = SamplingPlan(samples=40_000, seed=7, experiment_id="tvi")
    vals = []
    for i, r in enumerate((0.25, 0.5, 1.0)):
        qr = estimate_v(A1, r, np.zeros(3), plan.with_(experiment_id=f"tvi{i}"))
        vals.append((qr.value.real, qr.stderr))
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(vals[a][0] - vals[b][0]) <= 3 * np.hypot(vals[a][1], vals[b][1])
    z = surface_point_with_norm(A1, 0.5, seed=3)
    seq = []
    for i, r in enumerate(np.geomspace(0.05, 0.8, 6)):
        qr = estimate_v(A1, r, z, plan.with_(experiment_id=f"tvm{i}"))
        seq.append((qr.value.real, qr.stderr))
    for k in range(len(seq) - 1):
        assert seq[k + 1][0] >= seq[k][0] - 3 * np.hypot(seq[k][1], seq[k + 1][1])


def test_layer_cake_constant_profile_equals_volume():
    plan = SamplingPlan(samples=60_000, seed=8, experiment_id="tlc")
    lc = layer_cake_integral(A1, lambda r: 1.0, np.zeros(3), 0.8, plan)
    vol = integrate(A1, Region.ball(np.zeros(3), 0.8), ONE,
                    plan.with_(experiment_id="tlcv"))
    assert abs(lc.value.real - vol.value.real) <= 3 * np.hypot(lc.stderr, vol.stderr)


def test_layer_cake_flat_oracle():
    plan = SamplingPlan(samples=60_000, seed=9, experiment_id="tlcf")
    lc = layer_cake_integral(HP, lambda r: 1.0 / max(r, 1e-300), np.zeros(3), 1.0,
                             plan)
    assert lc.value.real == pytest.approx(2 * np.pi**2 / 3, rel=2e-3)


def test_layer_cake_cross_estimator_a1():
    plan = SamplingPlan(samples=80_000, seed=10, experiment_id="tlcx")
    lc = layer_cake_integral(A1, lambda r: 1.0 / max(r, 1e-300) ** 2, np.zeros(3),
                             1.0, plan)
    direct = integrate(
        A1, Region.ball(np.zeros(3), 1.0),
        lambda b: 1.0 / np.maximum(b.norms(), 1e-300) ** 2 + 0j,
        plan.with_(experiment_id="tlcx2"), poles=[(np.zeros(3), 2.0)],
    )
    assert abs(lc.value.real - direct.value.real) <= 3 * np.hypot(lc.stderr,
                                                                  direct.stderr)


def test_layer_cake_rejects_bad_profiles():
    plan = SamplingPlan(samples=5_000, seed=11, experiment_id="tlcb")
    with pytest.raises(ProfileError):
        layer_cake_integral(A1, lambda r: r, np.zeros(3), 0.5, plan)
    with pytest.raises(ProfileError):
        layer_cake_integral(A1, lambda r: 1.0 / max(r, 1e-300) ** 4, np.zeros(3),
                            0.5, plan)


def test_reproducibility_bit_identical(monkeypatch):
    plan = SamplingPlan(samples=30_000, seed=12, experiment_id="trep")
    f = lambda b: 1.0 / np.maximum(b.norms(), 1e-300) + 0j
    r1 = integrate(A1, Region.ball(np.zeros(3), 1.0), f, plan,
                   poles=[(np.zeros(3), 1.0)])
    r2 = integrate(A1, Region.ball(np.zeros(3), 1.0), f, plan,
                   poles=[(np.zeros(3), 1.0)])
    assert r1.value == r2.value and r1.stderr == r2.stderr
    monkeypatch.setattr(sampling, "BATCH_SIZE", 7_777)
    r3 = integrate(A1, Region.ball(np.zeros(3), 1.0), f, plan,
                   poles=[(np.zeros(3), 1.0)])
    # same per-stratum streams, different batch splits: estimates agree closely
    assert abs(r3.value - r1.value) <= 5 * np.hypot(r1.stderr, r3.stderr) + 1e-9


def test_region_validation():
    with pytest.raises(EmptyRegionError):
        Region.ball(np.zeros(3), 0.0)
    with pytest.raises(EmptyRegionError):
        Region.annulus(np.zeros(3), 0.5, 0.25)
    with pytest.raises(EmptyRegionError):
        Region.domain(-1.0, 3)


def test_pointwise_adapter():
    plan = SamplingPlan(samples=2_000, seed=13, experiment_id="tpw")
    res = integrate(HP, Region.ball(np.zeros(3), 0.5), lambda b: b.grams + 0j,
                    plan)
    assert res.value.real == pytest.approx(np.pi**2 / 2 * 0.5**4, rel=1e-9)


def test_chart_stretch_not_stale_across_varieties():
    # get_variety builds a fresh object per call, so ids of collected
    # varieties are reused; each bound must still be the variety's own
    chart = Chart((1, 2), (0,))
    names = ("a1", "fermat3", "fermat4")
    sampling._STRETCH_CACHE.clear()
    held = [get_variety(name) for name in names]
    own = {v.name: chart_stretch(v, chart) for v in held}
    assert len(set(own.values())) == len(names)
    for _ in range(300):
        for name in names:
            assert chart_stretch(get_variety(name), chart) == own[name]


def test_chart_stretch_bounds():
    assert chart_stretch(HP, default_chart(HP)) == pytest.approx(1.0)
    s = chart_stretch(A1, default_chart(A1))
    assert s >= np.sqrt(2.0)  # true sheet stretch on the quadric cone


def test_project_to_surface():
    z = surface_point_with_norm(A1, 0.5, seed=1)
    moved = z + 0.05 * np.array([1.0, 1j, -0.5])
    back = project_to_surface(A1, moved)
    assert np.max(np.abs(A1.eval_tuple(back))) < 1e-12
    assert np.sqrt(np.sum(np.abs(back - moved) ** 2)) < 0.2


def test_comparability_with_flat_radial_integrals():
    # for radial integrands, the ratio of the integral on X to the same
    # profile on C^n lies within the empirical volume-ratio band
    plan = SamplingPlan(samples=60_000, seed=21, experiment_id="tcmp")
    r_max = 0.6
    for i, znorm in enumerate((0.0, 0.5)):
        z = np.zeros(3, dtype=complex) if znorm == 0 else \
            surface_point_with_norm(A1, znorm, seed=i)
        vs = []
        for k, r in enumerate(np.geomspace(0.05, r_max, 5)):
            qr = estimate_v(A1, r, z, plan.with_(experiment_id=f"tcmp{i}{k}"))
            vs.append(qr.value.real)
        lo, hi = min(vs), max(vs)
        lc = layer_cake_integral(A1, lambda r: 1.0 / max(r, 1e-300), z, r_max,
                                 plan.with_(experiment_id=f"tcmpl{i}"))
        flat = 2 * np.pi**2 * r_max**3 / 3  # same profile over a ball of C^2
        flat_v = np.pi**2 / 2  # flat volume ratio, the C^n normalizer
        ratio = lc.value.real / flat
        assert 0.8 * lo / flat_v <= ratio <= 1.2 * hi / flat_v


def test_ci22_fiber_solving_and_volume(monkeypatch):
    ci = get_variety("ci22")
    chart = Chart((0, 1), (2, 3))
    assert chart in admissible_charts(ci)
    rng = np.random.default_rng(3)
    bases = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    pts, valid = solve_fiber(ci, chart, bases)
    assert np.all(valid)  # generic bases give all 4 sheets
    res = np.sqrt(np.sum(np.abs(ci.eval_tuple(pts)) ** 2, axis=-1))
    assert np.max(res) < 1e-7 * np.maximum(
        1.0, np.max(np.abs(pts))) ** ci.total_degree
    # closed-form oracle: the diagonal pencil solves linearly in the squares,
    # so every row's sheets are (+-sqrt(-3 s0^2 - 2 s1^2), +-sqrt(2 s0^2 + s1^2))
    s2 = bases**2
    t1 = np.sqrt(-3 * s2[:, 0] - 2 * s2[:, 1])
    t2 = np.sqrt(2 * s2[:, 0] + s2[:, 1])
    want = np.stack([np.stack([a * t1, b * t2], axis=-1)
                     for a in (1, -1) for b in (1, -1)], axis=1)
    scale = np.max(np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1)), axis=1)
    assert np.max(_set_distance(pts[..., 2:], want) / scale) <= 1e-12
    # scale invariance of the cone volume
    monkeypatch.setattr(sampling, "BATCH_SIZE", 2_000)
    plan = SamplingPlan(samples=6_000, seed=5, experiment_id="tci22")
    v1 = integrate(ci, Region.ball(np.zeros(4), 0.5), ONE, plan)
    v2 = integrate(ci, Region.ball(np.zeros(4), 1.0), ONE,
                   plan.with_(experiment_id="tci22b"))
    assert abs(v2.value.real / v1.value.real - 16.0) < 2.0


# ---------------------------------------------------------------------------
# the nu = 1 root finder for degree >= 3
# ---------------------------------------------------------------------------


def _random_quartic():
    # dense quartic with random complex coefficients; the pure power z_0^4
    # is present, so the chart with fiber z_0 is admissible
    rng = np.random.default_rng(21)
    terms = {}
    for a in range(5):
        for b in range(5 - a):
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[(a, b, 4 - a - b)] = c
    return ConeVariety("quartic", 3, (MultiIndexPoly.from_dict(3, terms),))


def _lacunary_quartic():
    # t^4 + a(s) t^2 + b(s) in t = z_0: p(t) = q(t^2) with q quadratic
    rng = np.random.default_rng(24)
    terms = {(4, 0, 0): 1.0}
    for a in (2, 0):
        for b in range(5 - a):
            terms[(a, b, 4 - a - b)] = complex(*rng.standard_normal(2))
    return ConeVariety("lacunary", 3, (MultiIndexPoly.from_dict(3, terms),))


def _degree3_plus():
    return [get_variety("fermat3"), get_variety("fermat4"), _random_quartic(),
            _lacunary_quartic()]


def _monomial_loop(exps, coeffs, pts):
    """The per-module monomial loop that eval_monomials replaced."""
    vals = np.zeros(pts.shape[:-1], dtype=complex)
    for e, c in zip(exps, coeffs):
        term = np.full(pts.shape[:-1], c)
        for j in range(pts.shape[-1]):
            if e[j]:
                term = term * pts[..., j] ** int(e[j])
        vals += term
    return vals


@pytest.mark.parametrize("name", ["a1", "fermat3", "fermat4", "quartic"])
def test_fiber_coefficient_table_is_bit_identical_to_loop(name):
    v = _random_quartic() if name == "quartic" else get_variety(name)
    rng = np.random.default_rng(9)
    bases = rng.standard_normal((500, v.dim)) + 1j * rng.standard_normal((500, v.dim))
    table = sampling._fiber_poly_coeffs(v, default_chart(v))
    want = np.stack([_monomial_loop(e, c, bases) for e, c in table], axis=-1)
    assert np.array_equal(_fiber_coeffs(v, bases), want)


def _fiber_coeffs(v, bases):
    table = sampling._fiber_poly_coeffs(v, default_chart(v))
    return np.stack([eval_monomials(e, c, bases.T) for e, c in table], axis=-1)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Count the rows the root finder hands to the companion eigensolver."""
    rows = []
    companion = sampling._companion_roots

    def counted(cs):
        rows.append(len(cs))
        return companion(cs)

    monkeypatch.setattr(sampling, "_companion_roots", counted)
    return rows


def _set_distance(a, b):
    """Largest distance from a root in one row set to the other set.

    Rows hold roots (B, S) or root vectors (B, S, k).
    """
    diff = a[:, :, None] - b[:, None, :]
    dist = np.sqrt(np.sum(np.abs(diff) ** 2, axis=tuple(range(3, diff.ndim))))
    return np.maximum(np.max(np.min(dist, axis=2), axis=1),
                      np.max(np.min(dist, axis=1), axis=1))


@pytest.mark.parametrize("v", _degree3_plus(), ids=lambda v: v.name)
def test_aberth_roots_match_companion(v, fallback_rows):
    rng = np.random.default_rng(22)
    bases = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    cs = _fiber_coeffs(v, bases)
    got = sampling._aberth_roots(cs)
    assert sum(fallback_rows) == 0
    want = sampling._companion_roots(cs)
    scale = np.max(np.abs(want), axis=1)
    assert np.max(_set_distance(got, want) / scale) <= 1e-12


@pytest.mark.parametrize("v", _degree3_plus(), ids=lambda v: v.name)
def test_solve_fiber_all_sheets_sorted_by_angle(v):
    # away from the branch locus every one of the d sheets is valid, and the
    # sheets come out in canonical order: by the argument of the fiber root;
    # every fiber, solved through q(t^g) where it is lacunary (Fermat,
    # t^4 + a t^2 + b), matches the companion eigensolver on the full
    # polynomial
    rng = np.random.default_rng(23)
    bases = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    chart = default_chart(v)
    pts, valid = solve_fiber(v, chart, bases)
    assert pts.shape[1] == v.polys[0].degree
    assert np.all(valid)
    t = pts[..., chart.fiber[0]]
    assert np.all(np.diff(np.angle(t), axis=1) >= 0)
    want = sampling._companion_roots(_fiber_coeffs(v, bases))
    scale = np.max(np.abs(want), axis=1)
    assert np.max(_set_distance(t, want) / scale) <= 1e-12


@pytest.mark.parametrize("base", [(0.0, 0.0), (1.0, -1.0)])
def test_fermat_cone_point_and_branch_locus_sheets(base):
    # over the base point 0 and over (1, -1), where 1 + (-1)^3 = 0, the
    # fiber polynomial is t^3: q(u) = u has the root 0, every sheet is 0,
    # and the branch guard discards them all
    v = get_variety("fermat3")
    chart = default_chart(v)
    pts, valid = solve_fiber(v, chart, np.array([base]))
    t = pts[..., chart.fiber[0]]
    assert t.shape == (1, 3)
    assert np.all(np.isfinite(t)) and np.all(t == 0)
    assert not np.any(valid)


def test_aberth_falls_back_on_double_root_and_cone_point(fallback_rows):
    # (t - 1)^2 (t + 2) = t^3 - 3t + 2, next to a row with simple roots
    cs = np.array([[2.0, -3.0, 0.0, 1.0], [-6.0, 11.0, -6.0, 1.0]], dtype=complex)
    t = sampling._aberth_roots(cs)
    assert fallback_rows == [1]
    assert np.max(_set_distance(t[:1], np.array([[1.0, 1.0, -2.0]]))) < 1e-6
    assert np.max(_set_distance(t[1:], np.array([[1.0, 2.0, 3.0]]))) < 1e-13
    # over the base point 0 the dense quartic's fiber polynomial is c t^4:
    # all sheets meet at the cone point and the branch guard discards them,
    # but none is lost
    v = _random_quartic()
    pts, valid = solve_fiber(v, default_chart(v), np.zeros((1, 2)))
    assert fallback_rows == [1, 1]
    assert pts.shape == (1, 4, 3)
    assert np.all(pts == 0) and not np.any(valid)


@pytest.mark.parametrize("name", ["fermat3", "fermat4"])
def test_sampled_batches_need_no_fallback(name, fallback_rows, monkeypatch):
    # one 20k-sample integral draws its base points from every stratum,
    # the cone-point shells included; the Fermat fibers t^d + c(s) are
    # solved in closed form, so the Aberth iteration never runs
    v = get_variety(name)
    calls = []
    aberth, aberth_roots = [], sampling._aberth_roots

    def counted(cs):
        aberth.append(len(cs))
        return aberth_roots(cs)

    monkeypatch.setattr(sampling, "_aberth_roots", counted)

    def integrand(batch):
        calls.append(len(batch))
        return np.ones(len(batch), dtype=complex)

    integrate(v, Region.ball(np.zeros(3), 1.0), integrand,
              SamplingPlan(samples=20_000, seed=3, experiment_id="nofallback"),
              poles=[(np.zeros(3), 2)])
    assert sum(calls) > 20_000
    assert fallback_rows == []
    assert aberth == []


# ---------------------------------------------------------------------------
# nu = 2 fibers by elimination
# ---------------------------------------------------------------------------


def _random_ci(rng, d1, d2):
    """Complete intersection in C^4 of two dense polynomials, seeded."""
    polys = []
    for d in (d1, d2):
        terms = {e: complex(*rng.standard_normal(2))
                 for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d}
        polys.append(MultiIndexPoly.from_dict(4, terms))
    return ConeVariety(f"ci{d1}{d2}", 4, tuple(polys))


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2)],
                         ids=["pencil22", "cubic_quadric"])
def test_solve_fiber_nu2_bezout(degrees):
    # away from the branch locus all d1 d2 sheets are valid and distinct,
    # solve the system to rounding, and come out sorted by the angle of u1
    rng = np.random.default_rng(31)
    v = _random_ci(rng, *degrees)
    chart = default_chart(v)
    bases = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    pts, valid = solve_fiber(v, chart, bases)
    assert pts.shape[1] == degrees[0] * degrees[1]
    assert np.all(valid)
    scale = np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1))
    res = np.abs(v.eval_tuple(pts)) / scale[..., None] ** np.array(v.degrees)
    assert np.max(res) <= 1e-12
    gap = np.sqrt(np.sum(np.abs(pts[:, :, None] - pts[:, None, :]) ** 2, axis=-1))
    off = ~np.eye(pts.shape[1], dtype=bool)
    assert np.min(gap[:, off] / np.max(scale, axis=1)[:, None]) > 1e-8
    u1 = (pts[..., list(chart.fiber)] @ np.conj(sampling.FIBER_ROTATION))[..., 0]
    assert np.all(np.diff(np.angle(u1), axis=1) >= 0)


def test_solve_fiber_nu2_solutions_at_infinity():
    # f1 = z0^2 - z1^2 + z2^2 + z3^2 and f2 = z1^2 - z0^2 + 2 z2^2 + 3 z3^2:
    # in the default chart's fiber (z0, z1) their top parts are proportional
    f1 = MultiIndexPoly.from_dict(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): -1.0,
                                      (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
    f2 = MultiIndexPoly.from_dict(4, {(0, 2, 0, 0): 1.0, (2, 0, 0, 0): -1.0,
                                      (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 3.0})
    v = ConeVariety("at_infinity", 4, (f1, f2))
    with pytest.raises(FiberDegenerateError):
        solve_fiber(v, default_chart(v), np.ones((3, 2)))


def test_nu2_fiber_solve_evaluates_the_system_a_few_times(monkeypatch):
    # elimination evaluates the whole batch a fixed number of times; a path
    # tracker evaluates it at every step (about 186 times for 60 steps)
    calls = {"eval_tuple": 0, "jacobian": 0}
    for name in calls:
        def counted(self, pts, _name=name, _orig=getattr(ConeVariety, name)):
            calls[_name] += 1
            return _orig(self, pts)
        monkeypatch.setattr(ConeVariety, name, counted)
    ci = get_variety("ci22")
    rng = np.random.default_rng(32)
    bases = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
    solve_fiber(ci, default_chart(ci), bases)
    assert calls["eval_tuple"] <= 10 and calls["jacobian"] <= 5


# ---------------------------------------------------------------------------
# the batch loop: mixture density by shell chain, packed work units
# ---------------------------------------------------------------------------


def _stratum_by_stratum_density(strata, fracs, bases, n):
    """The mixture density summed one stratum at a time: the reference."""
    p = np.zeros(len(bases))
    for st, f in zip(strata, fracs):
        r = np.sqrt(np.sum(np.abs(bases - st.center) ** 2, axis=-1))
        beta = 2 * n - st.power
        if st.r_lo > 0:
            norm = beta / (st.r_hi**beta - st.r_lo**beta)
        else:
            norm = beta / st.r_hi**beta
        inside = (r >= st.r_lo) & (r <= st.r_hi)
        rr = np.where(inside, np.maximum(r, 1e-300), 1.0)
        p += f * np.where(inside,
                          norm * rr ** (-st.power) / sampling._sphere_area(n), 0.0)
    return p


def _tm_decay_annulus():
    # the pole sits at the largest norm run_log_annulus gives one, hi / 3
    lo, hi = annulus_bounds(2)
    z = surface_point_with_norm(A1, hi / 3, seed=1)
    return Region.annulus(np.zeros(3), lo, hi), [(z, 1.0)], 0.3 * lo


def _density_cases():
    z = surface_point_with_norm(A1, 0.5, seed=1)
    annulus, poles, r_min = _tm_decay_annulus()
    return {
        "apply_K": (Region.domain(CFG.omega_prime_radius, 3),
                    [(z, 3), (np.zeros(3), 1)], 1e-4),
        "apply_P": (Region.annulus(np.zeros(3), CFG.rho1, CFG.rho2), [], 1e-4),
        "tm_decay": (annulus, poles, r_min),
    }


@pytest.mark.parametrize("case", ["apply_K", "apply_P", "tm_decay"])
def test_mixture_density_by_chain_is_bit_identical(case):
    region, poles, r_min = _density_cases()[case]
    plan = SamplingPlan(samples=20_000, r_min=r_min)
    strata = sampling._build_strata(A1, region, default_chart(A1), poles, plan)
    counts = sampling._allocate(strata, plan, A1.dim)
    fracs = counts / counts.sum()
    rng = np.random.default_rng(11)
    bases = [sampling._sample_stratum(st, A1.dim, 200, rng) for st in strata]
    # every center (r = 0: the pole discs' r^-a term at its cap), and bases
    # on the edges of the chains around the origin, shared radii included:
    # an axis point has the edge as its computed distance exactly
    edges = {0.0}
    for st in strata:
        bases.append(st.center[None, :])
        if not np.any(st.center):
            edges |= {st.r_lo, st.r_hi}
    for j, unit in itertools.product(range(A1.dim), (1.0, 1j)):
        axis = np.zeros((len(edges), A1.dim), dtype=complex)
        axis[:, j] = unit * np.array(sorted(edges))
        assert np.array_equal(np.sqrt(np.sum(np.abs(axis) ** 2, axis=-1)),
                              sorted(edges))
        bases.append(axis)
    bases = np.concatenate(bases)
    chains = sampling._chains(strata, fracs, A1.dim)
    assert len(chains) == 1 + len(poles)
    with np.errstate(over="ignore"):
        want = _stratum_by_stratum_density(strata, fracs, bases, A1.dim)
        got = sampling._mixture_density(chains, bases, A1.dim)
    assert np.array_equal(got, want)
    # the origin chains have shared radii: some edge bases lie in two shells
    assert ({st.r_lo for st in strata if not np.any(st.center)}
            & {st.r_hi for st in strata if not np.any(st.center)})


def _same_result(a, b):
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.stderr, b.stderr)
    assert (a.samples, a.discarded) == (b.samples, b.discarded)
    assert len(a.strata) == len(b.strata)
    for sa, sb in zip(a.strata, b.strata):
        assert np.array_equal(sa.value, sb.value)
        assert np.array_equal(sa.stderr, sb.stderr)
        assert sa.count == sb.count


def _run_with_pack(monkeypatch, pack, run):
    """run() with PACK_ROWS = pack (None: the default), and the stratum
    indices of its 'no admissible fiber points' warnings.  Every patch,
    run()'s own included, is undone afterwards."""
    if pack is not None:
        monkeypatch.setattr(sampling, "PACK_ROWS", pack)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    monkeypatch.undo()
    empty = [int(re.match(r"stratum (\d+) received", str(w.message)).group(1))
             for w in caught if "no admissible fiber points" in str(w.message)]
    return out, empty


def _apply_K_a1():
    phi = TestForm.one_form_bump(3, 0, 1, 1.1, 1.6)
    z = surface_point_with_norm(A1, 0.4, seed=1)
    return O.apply_K(A1, phi, z, CFG, SamplingPlan(
        samples=6_000, seed=3, experiment_id="packK"))[1]


def _apply_P_fermat3():
    v = get_variety("fermat3")
    z = surface_point_with_norm(v, 0.5, seed=2)
    return O.apply_P(v, TestForm.constant(3), z, CFG, SamplingPlan(
        samples=6_000, seed=3, experiment_id="packP"))[1]


def _radial_ci22():
    ci = get_variety("ci22")
    z = surface_point_with_norm(ci, 0.5, seed=4)
    return integrate(ci, Region.domain(1.0, 4), lambda b: b.norms() ** -1 + 0j,
                     SamplingPlan(samples=4_000, seed=3, experiment_id="packci"),
                     poles=[(z, 3), (np.zeros(4), 2)])


@pytest.mark.parametrize("run", [_apply_K_a1, _apply_P_fermat3, _radial_ci22],
                         ids=["apply_K_a1", "apply_P_fermat3", "nu2_ci22"])
def test_packing_does_not_change_results(monkeypatch, run):
    # PACK_ROWS = 1 runs every chunk alone, the schedule without packing
    alone, alone_empty = _run_with_pack(monkeypatch, 1, run)
    packed, packed_empty = _run_with_pack(monkeypatch, None, run)
    _same_result(packed, alone)
    assert packed_empty == alone_empty


# a quartic whose fiber polynomial in z0 has the powers 0, 1, 3 and 4
DENSE_QUARTIC = ConeVariety("dense_quartic", 3, (MultiIndexPoly.from_dict(3, {
    (4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (1, 1, 2): 0.5,
    (3, 0, 1): 0.3, (0, 1, 3): 0.7j}),))


def _reach_cases(v, chart, rng):
    """(region, bases) pairs for the row-drop test.

    Regions: balls and annuli at 0 and about a point z of norm 0.5, a
    double-exponential annulus about z, and a ball of radius 1e-30 about a
    sheet w solved over z's base, which solve_fiber finds again bit for bit.
    Bases: 0.1 to 10 times r_outer from the region's base projection, that
    projection itself and, about 0, bases scaled to put a sheet on a
    boundary sphere."""
    zero = np.zeros(v.ambient_dim)
    z = surface_point_with_norm(v, 0.5, seed=2)
    pts, valid = solve_fiber(v, chart, z[list(chart.base)])
    w = pts[valid][0]
    g = rng.standard_normal((300, 2 * v.dim))
    s = g[:, :v.dim] + 1j * g[:, v.dim:]
    pts, valid = solve_fiber(v, chart, s)
    rho = np.where(valid, np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1)), np.nan)
    for region in (Region.ball(zero, 0.5), Region.annulus(zero, 0.3, 0.6),
                   Region.ball(z, 0.2), Region.annulus(z, 0.05, 0.3),
                   Region.annulus(z, 0.3, 0.6), Region.annulus(z, *annulus_bounds(3)),
                   Region.ball(w, 1e-30)):
        c_base = region.center[list(chart.base)]
        dirs = s / np.sqrt(np.sum(np.abs(s) ** 2, axis=-1, keepdims=True))
        radii = region.r_outer * 10.0 ** rng.uniform(-1, 1, len(s))
        bases = [c_base + dirs * radii[:, None], c_base[None, :]]
        if not np.any(region.center):
            for r in {region.r_inner, region.r_outer} - {0.0}:
                scaled = s[:, None, :] * (r / rho)[:, :, None]
                bases.append(scaled[np.isfinite(rho)])
        yield region, np.concatenate(bases)


@pytest.mark.parametrize("v", [A1, get_variety("fermat3"), HP, get_variety("ci22"),
                               DENSE_QUARTIC],
                         ids=["a1", "fermat3", "hyperplane", "ci22", "dense_quartic"])
def test_dropped_rows_have_no_sheet_in_the_region(v):
    rng = np.random.default_rng(8)
    kept = dropped = 0
    for chart in admissible_charts(v):
        for region, bases in _reach_cases(v, chart, rng):
            keep = sampling._may_reach(v, chart, region, bases)
            if not keep.all():
                pts, _ = solve_fiber(v, chart, bases[~keep])
                assert not np.any(region.indicator(pts))
            kept, dropped = kept + keep.sum(), dropped + (~keep).sum()
    assert kept > 0 and dropped > 0


def _offcenter_ci22():
    ci = get_variety("ci22")
    z = surface_point_with_norm(ci, 0.5, seed=4)
    # the origin's pole shells reach 0.6 from the origin, past the ball
    return integrate(ci, Region.ball(z, 0.3), lambda b: b.norms() ** -1 + 0j,
                     SamplingPlan(samples=4_000, seed=3, experiment_id="reachci"),
                     poles=[(np.zeros(4), 2)])


def _count_dropped(monkeypatch):
    """Patch _may_reach to record how many rows each call drops; the list
    of those counts fills as integrate runs."""
    dropped = []
    reach = sampling._may_reach

    def counted(v, chart, region, bases):
        keep = reach(v, chart, region, bases)
        dropped.append(int(np.sum(~keep)))
        return keep

    monkeypatch.setattr(sampling, "_may_reach", counted)
    return dropped


@pytest.mark.parametrize("run", [_apply_K_a1, _apply_P_fermat3, _offcenter_ci22],
                         ids=["apply_K_a1", "apply_P_fermat3", "offcenter_ci22"])
def test_dropping_rows_does_not_change_results(monkeypatch, run):
    # the reference solves every row and lets the indicator reject its sheets
    dropped = []

    def dropping():
        dropped.append(_count_dropped(monkeypatch))
        return run()

    def keeping_all():
        monkeypatch.setattr(sampling, "_may_reach",
                            lambda v, chart, region, bases: np.ones(len(bases), dtype=bool))
        return run()

    got, got_empty = _run_with_pack(monkeypatch, None, dropping)
    want, want_empty = _run_with_pack(monkeypatch, None, keeping_all)
    assert sum(dropped[0]) > 0
    _same_result(got, want)
    assert got_empty == want_empty


def test_packing_keeps_empty_stratum_warnings(monkeypatch):
    # sheets over bases within 1e-3 of the cone point made invalid: the
    # innermost cone-point strata draw no admissible point, and each packed
    # unit must hand its valid flags back to the right strata
    solve = sampling.solve_fiber

    def blind_near_origin(v, chart, bases):
        pts, valid = solve(v, chart, bases)
        near = np.sqrt(np.sum(np.abs(bases) ** 2, axis=-1)) < 1e-3
        return pts, valid & ~near[:, None]

    def run():
        monkeypatch.setattr(sampling, "solve_fiber", blind_near_origin)
        return integrate(A1, Region.domain(1.0, 3), ONE,
                         SamplingPlan(samples=4_000, seed=5, experiment_id="blind"),
                         poles=[(np.zeros(3), 1)])

    alone, alone_empty = _run_with_pack(monkeypatch, 1, run)
    packed, packed_empty = _run_with_pack(monkeypatch, None, run)
    _same_result(packed, alone)
    assert packed_empty == alone_empty
    assert len(packed_empty) >= 2


def test_pole_near_annulus_center_gets_its_own_chain():
    # the region shells stand in only for a pole at the annulus center
    # itself, measured on the cover's scale: a pole at 3 lo (|z| ~ 6e-9,
    # inside an absolute 1e-8) still gets its own chain of shells
    lo, hi = annulus_bounds(2)
    region = Region.annulus(np.zeros(3), lo, hi)
    plan = SamplingPlan(r_min=0.3 * lo)

    def chains(center):
        strata = sampling._build_strata(A1, region, default_chart(A1),
                                        [(center, 1.0)], plan)
        return len(sampling._chains(strata, np.ones(len(strata)), A1.dim))

    assert chains(surface_point_with_norm(A1, 3 * lo, seed=1)) == 2
    assert chains(np.zeros(3)) == 1


def test_small_strata_share_fiber_solves(monkeypatch):
    # many 128-sample strata: their chunks pack into a few units, each with
    # one fiber solve
    region, poles, r_min = _tm_decay_annulus()
    plan = SamplingPlan(samples=4_000, seed=1, r_min=r_min, shell_ratio=1.25,
                        experiment_id="pack")
    calls = []
    solve = sampling.solve_fiber

    def counted(v, chart, bases):
        calls.append(len(bases))
        return solve(v, chart, bases)

    monkeypatch.setattr(sampling, "solve_fiber", counted)
    dropped = _count_dropped(monkeypatch)
    integrate(A1, region, ONE, plan, poles=poles)
    strata = sampling._build_strata(A1, region, default_chart(A1), poles, plan)
    counts = sampling._allocate(strata, plan, A1.dim)
    units, rows = 0, 0
    for cnt in counts:
        for done in range(0, cnt, sampling.BATCH_SIZE):
            bs = min(sampling.BATCH_SIZE, cnt - done)
            if rows == 0 or rows + bs > sampling.PACK_ROWS:
                units, rows = units + 1, 0
            rows += bs
    # a unit whose rows all lie outside the region skips its solve
    assert len(dropped) == units and len(calls) <= units
    assert sum(calls) + sum(dropped) == counts.sum()
    assert units < len(strata) / 10


@pytest.mark.parametrize("pack", [1, None], ids=["alone", "packed"])
def test_vector_integrand_with_empty_first_batch(monkeypatch, pack):
    # one-row batches: on seeds 1, 5, 6 and 7 the first holds no point of
    # the ball, so K is not known until a later batch
    if pack is not None:
        monkeypatch.setattr(sampling, "PACK_ROWS", pack)
    monkeypatch.setattr(sampling, "BATCH_SIZE", 1)
    region = Region.ball(surface_point_with_norm(A1, 0.8, seed=3), 0.3)
    for seed in range(8):
        plan = SamplingPlan(samples=256, seed=seed, experiment_id="x")
        vec = integrate(A1, region, lambda b: np.ones((len(b), 3)), plan)
        one = integrate(A1, region, ONE, plan)
        assert np.array_equal(vec.value, np.full(3, one.value))
        assert np.array_equal(vec.stderr, np.full(3, one.stderr))
        for sv, so in zip(vec.strata, one.strata):
            assert np.array_equal(sv.value, np.full(3, so.value))
