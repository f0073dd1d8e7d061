import dataclasses

import numpy as np
import pytest

from conekop import operators as O
from conekop.forms import TestForm
from conekop.kernels import WeightConfig
from conekop.sampling import Region, SamplingPlan, surface_point_with_norm
from conekop.varieties import get_variety, row_norm_sq
from frame_density import frame_densities

A1 = get_variety("a1")
CFG = WeightConfig()


def plan(n, tag, **kw):
    return SamplingPlan(samples=n, seed=17, experiment_id=tag, **kw)


def test_apply_K_zero_input_is_zero():
    phi = TestForm(3, 1, {}, None, label="zero")
    z = surface_point_with_norm(A1, 0.5, seed=0)
    coeffs, qr = O.apply_K(A1, phi, z, CFG, plan(5_000, "k0"))
    assert np.allclose(coeffs, 0.0)
    assert qr.stderr == pytest.approx(0.0)


def test_apply_K_linearity():
    base = TestForm.one_form_bump(3, 0, 1, 1.1, 1.6)
    double = TestForm(3, 1, {k: [(p.__class__(p.num_vars, p.exps, 2 * p.coeffs), o)
                                 for p, o in v] for k, v in base.coeffs.items()},
                      base.window, label="x2")
    z = surface_point_with_norm(A1, 0.4, seed=1)
    c1, q1 = O.apply_K(A1, base, z, CFG, plan(40_000, "kl"))
    c2, q2 = O.apply_K(A1, double, z, CFG, plan(40_000, "kl"))
    assert np.allclose(c2, 2.0 * c1, atol=5 * float(np.max(np.atleast_1d(q1.stderr))))


def test_apply_K_rejects_bad_degree():
    z = surface_point_with_norm(A1, 0.5, seed=0)
    with pytest.raises(ValueError):
        O.apply_K(A1, TestForm.constant(3), z, CFG, plan(2_000, "kb"))


def test_apply_K_pole_adjacent_warning():
    phi = TestForm.one_form_bump(3, 0, 1, 1.1, 1.6)
    z = surface_point_with_norm(A1, 5e-4, seed=2)
    with pytest.warns(RuntimeWarning):
        O.apply_K(A1, phi, z, CFG, plan(2_000, "kw"))


def test_apply_P_reproduces_constants():
    one = TestForm.constant(3)
    z = surface_point_with_norm(A1, 0.5, seed=3)
    val, qr = O.apply_P(A1, one, z, CFG, plan(60_000, "p1"))
    assert abs(val - 1.0) <= max(3 * qr.stderr, 0.02)


def test_apply_P_reproduces_holomorphic_polynomial():
    holo = TestForm.holomorphic_monomial(3, [1, 1, 0])
    for i, znorm in enumerate((0.3, 0.6, 0.85)):
        z = surface_point_with_norm(A1, znorm, seed=4 + i)
        val, qr = O.apply_P(A1, holo, z, CFG, plan(60_000, f"ph{i}"))
        want = z[0] * z[1]
        assert abs(val - want) <= max(3 * qr.stderr, 0.02 * max(abs(want), 0.05))


def test_apply_P_lipschitz_probe():
    holo = TestForm.holomorphic_monomial(3, [2, 0, 0])
    z = surface_point_with_norm(A1, 0.5, seed=9)
    from conekop.sampling import project_to_surface, tangent_frame

    tau = tangent_frame(A1, z)[0]
    ratios = []
    for i, h in enumerate((0.05, 0.1, 0.2)):
        w = project_to_surface(A1, z + h * tau)
        pv_z, _ = O.apply_P(A1, holo, z, CFG, plan(30_000, "pl"))
        pv_w, _ = O.apply_P(A1, holo, w, CFG, plan(30_000, "pl"))
        ratios.append(abs(pv_z - pv_w) / np.sqrt(np.sum(np.abs(z - w) ** 2)))
    assert np.isfinite(ratios).all() and max(ratios) < 10.0


def test_apply_T_m_decreasing_and_range_errors():
    one = lambda b: np.ones(len(b), dtype=complex)
    z = surface_point_with_norm(A1, 0.5, seed=7)
    v0 = O.apply_T_m(A1, one, z, 1.0, 0, plan(20_000, "t0"))
    v1 = O.apply_T_m(A1, one, z, 1.0, 1, plan(20_000, "t1"))
    assert v1.value.real < v0.value.real
    with pytest.raises(O.ExponentRangeError):
        O.apply_T_m(A1, one, z, 3.0, 0, plan(2_000, "te2"))


def test_apply_P_codim_two_best_effort():
    # the scale constants follow the (2 pi i)^nu pattern; a wrong sign or
    # power would miss the reproducing value by a factor, not by noise
    ci = get_variety("ci22")
    one = TestForm.constant(4)
    z = surface_point_with_norm(ci, 0.35, seed=7)
    val, qr = O.apply_P(ci, one, z, CFG, plan(20_000, "cip"))
    assert abs(val - 1.0) <= max(4 * qr.stderr, 0.25)


def test_kernel_mass_uniform_bound_stability():
    # mass of the model kernel over a z-grid is stable under doubling budget
    n = A1.dim
    zs = [surface_point_with_norm(A1, r, seed=10 + i)
          for i, r in enumerate((0.3, 0.5, 0.7))]

    def mass(z, nsamp, tag):
        def integrand(batch):
            from conekop.kernels import model_k_gamma

            nz = np.maximum(batch.norms(), 1e-300)
            zn = np.sqrt(np.sum(np.abs(z) ** 2))
            return model_k_gamma(batch.positions, z, 1.0, n) + 0j

        from conekop.sampling import integrate

        qr = integrate(A1, Region.domain(1.0, 3), integrand,
                       plan(nsamp, tag), poles=[(z, 2 * n - 1), (np.zeros(3), 1.0)])
        return qr.value.real, qr.stderr

    for i, z in enumerate(zs):
        v1, e1 = mass(z, 30_000, f"km{i}")
        v2, e2 = mass(z, 60_000, f"km{i}b")
        assert abs(v1 - v2) <= 4 * np.hypot(e1, e2) + 0.02 * abs(v1)


def test_fiber_solvers_agree_at_fixed_z(monkeypatch):
    # P and K on the cubic cone at one fixed z: solving every fiber through
    # q(t^3) in closed form instead of with the companion eigensolver on the
    # full cubic reorders only rounding, because both return the sheets
    # sorted by angle
    from conekop import sampling

    v = get_variety("fermat3")
    z = surface_point_with_norm(v, 0.5, seed=4)
    bump = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)

    def both():
        pv, _ = O.apply_P(v, bump, z, CFG, plan(6_000, "agreeP"))
        kv, _ = O.apply_K(v, bump.dbar(), z, CFG, plan(6_000, "agreeK"))
        return pv, kv[0]

    new = both()
    # the reference solves the full cubic t^3 + c(s), not q(u) = u + c(s)
    chart = sampling.default_chart(v)
    monkeypatch.setitem(v._chart_plans, chart,
                        dataclasses.replace(sampling.chart_plan(v, chart), step=1))
    old = both()
    for a, b in zip(new, old):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_kernel_densities_match_the_frame_pullback():
    # apply_P and apply_K on a1 at one fixed z against the same integrals of
    # omega ^ kappa ^ phi pulled back through det F[:, A] of the SVD frames
    from conekop.sampling import integrate

    z = surface_point_with_norm(A1, 0.5, seed=4)
    bump = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)

    def reference(phi):
        return lambda batch: frame_densities(A1, [phi], z, CFG, batch)[0][:, 0]

    pv, _ = O.apply_P(A1, bump, z, CFG, plan(6_000, "refP"))
    want_p = integrate(A1, Region.annulus(np.zeros(3), CFG.rho1, CFG.rho2),
                       reference(bump), plan(6_000, "refP"))
    kv, _ = O.apply_K(A1, bump.dbar(), z, CFG, plan(6_000, "refK"))
    want_k = integrate(A1, Region.domain(CFG.omega_prime_radius, 3),
                       reference(bump.dbar()), plan(6_000, "refK"),
                       poles=[(z, 3), (np.zeros(3), 1)])
    assert abs(pv - want_p.value) <= 1e-12 * abs(want_p.value)
    assert abs(kv[0] - want_k.value) <= 1e-12 * abs(want_k.value)


def test_one_kernel_batch_evaluates_the_minors_once(monkeypatch):
    # one apply_K batch on a1 needs the Jacobian minors once: integrate
    # evaluates them for the Gram factors and hands them to the integrand in
    # the PointBatch, where the structure form takes them
    from conekop import sampling
    from conekop.varieties import ConeVariety

    calls = []
    minors = ConeVariety.minors
    monkeypatch.setattr(ConeVariety, "minors",
                        lambda self, pts: calls.append(len(pts)) or minors(self, pts))

    def one_batch(v, region, integrand, plan_, poles=(), chart=None, support=None):
        chart = sampling.default_chart(v)
        rng = np.random.default_rng(3)
        bases = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        pts, valid = sampling.solve_fiber(v, chart, bases)
        sel = pts[valid]
        m = v.minors(sel)
        msq = row_norm_sq(m)
        integrand(sampling.PointBatch(sel, sampling.gram_factors(v, chart, m, msq), m,
                                      msq, row_norm_sq(sel)))
        return sampling.QuadratureResult(value=0j, stderr=0.0, samples=len(sel))

    monkeypatch.setattr(O, "integrate", one_batch)
    z = surface_point_with_norm(A1, 0.5, seed=0)
    O.apply_K(A1, TestForm.one_form_bump(3, 0, 1, 1.1, 1.6), z, CFG, plan(2_000, "mc"))
    assert len(calls) == 1


# ----- the integrand's support ------------------------------------------------

BUMP = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)


def _solved_rows(monkeypatch):
    """Spy on integrate's fiber solves: the (positions, valid) of each call."""
    from conekop import sampling

    solved = []
    solve = sampling.solve_fiber

    def spy(v, chart, bases):
        out = solve(v, chart, bases)
        solved.append(out)
        return out

    monkeypatch.setattr(sampling, "solve_fiber", spy)
    return solved


def test_kernels_solve_no_row_beyond_the_support(monkeypatch):
    # the bump's window ends at 0.95 rho2 < rho2 < Omega': K phi and P phi
    # are exactly 0 beyond it, so no row whose sheets all lie there is solved
    z = surface_point_with_norm(A1, 0.5, seed=4)
    solved = _solved_rows(monkeypatch)
    r_end = np.sqrt(O._x_end(CFG, BUMP)) * (1 + 1e-9)
    assert r_end < CFG.rho2
    O.apply_K(A1, BUMP.dbar(), z, CFG, plan(4_000, "supK"))
    O.apply_P(A1, BUMP, z, CFG, plan(4_000, "supP"))
    nearest = np.concatenate([np.min(np.sqrt(np.sum(np.abs(pts) ** 2, -1)), axis=1)
                              for pts, _ in solved])
    assert len(nearest) > 1000 and np.max(nearest) <= r_end


def test_a_row_just_inside_the_support_is_still_solved(monkeypatch):
    # every stratum of apply_K draws the same two base rows: one whose sheets
    # sit 1e-12 inside sqrt(x_end), which is solved, and one 1e-8 outside,
    # which is not
    from conekop import sampling

    chart = sampling.default_chart(A1)
    r_end = np.sqrt(O._x_end(CFG, BUMP))
    pts = [surface_point_with_norm(A1, r_end * f, seed=2) for f in (1 - 1e-12, 1 + 1e-8)]
    inside, outside = (p[list(chart.base)] for p in pts)
    monkeypatch.setattr(sampling, "_sample_stratum",
                        lambda st, n, count, rng: np.resize([inside, outside], (count, n)))
    z = surface_point_with_norm(A1, 0.5, seed=4)
    solved = _solved_rows(monkeypatch)
    O.apply_K(A1, BUMP.dbar(), z, CFG, plan(2_000, "supE"))
    norms = np.concatenate([np.sqrt(np.sum(np.abs(p) ** 2, -1)) for p, _ in solved])
    assert norms.size and np.all(norms == norms[0, 0])
    assert abs(norms[0, 0] / r_end - 1) < 1e-11


@pytest.mark.parametrize("name", ["a1", "fermat3", "ci22", "hyperplane4"])
def test_the_support_changes_no_result(name, monkeypatch):
    # apply_K and apply_P with and without the support: the same value,
    # stderr and per-stratum statistics, bit for bit, from fewer solved rows;
    # ci22 takes the nu = 2 base-distance bound, hyperplane(4) the FormValue
    # path
    from conekop import sampling
    from conekop.varieties import hyperplane

    v = hyperplane(4) if name == "hyperplane4" else get_variety(name)
    N = v.ambient_dim
    z = surface_point_with_norm(v, 0.5, seed=4)
    bump = TestForm.zbar_bump(N, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    solved = _solved_rows(monkeypatch)

    def run():
        del solved[:]
        _, qk = O.apply_K(v, bump.dbar(), z, CFG, plan(3_000, "supB"))
        _, qp = O.apply_P(v, bump, z, CFG, plan(3_000, "supBp"))
        return [qk, qp], sum(len(p) for p, _ in solved)

    got, rows = run()
    monkeypatch.setattr(O, "integrate",
                        lambda *a, support=None, **kw: sampling.integrate(*a, **kw))
    want, all_rows = run()
    assert rows < all_rows
    for g, w in zip(got, want):
        assert np.array_equal(g.value, w.value) and g.stderr == w.stderr
        assert g.samples == w.samples
        assert [(s.value, s.stderr, s.count) for s in g.strata] == \
            [(s.value, s.stderr, s.count) for s in w.strata]
