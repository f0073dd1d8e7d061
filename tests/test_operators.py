import numpy as np
import pytest

from conekop import operators as O
from conekop.forms import TestForm
from conekop.kernels import WeightConfig
from conekop.sampling import Region, SamplingPlan, surface_point_with_norm
from conekop.varieties import get_variety

HP = get_variety("hyperplane")
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


def test_apply_model_T_radial_oracle():
    # f = 1, gamma = 0: T(1)(z) is a radial integral with layer-cake oracle
    from conekop.sampling import layer_cake_integral

    z = surface_point_with_norm(A1, 0.5, seed=5)
    qr = O.apply_model_T(A1, lambda b: np.ones(len(b), dtype=complex), z, 0.0,
                         plan(60_000, "mt"))
    # oracle: integrate |zeta - z|^(-3) radially around z out to the domain
    # radius; comparability holds within the empirical volume-ratio band
    lc = layer_cake_integral(A1, lambda r: 1.0 / max(r, 1e-300) ** 3, z, 1.6,
                             plan(60_000, "mto"))
    lo = lc.value.real * 0.3
    hi = lc.value.real * 1.2
    assert lo <= qr.value.real <= hi


def test_apply_model_T_zero_function():
    z = surface_point_with_norm(A1, 0.5, seed=6)
    qr = O.apply_model_T(A1, lambda b: np.zeros(len(b), dtype=complex), z, 1.0,
                         plan(4_000, "mz"))
    assert qr.value == 0.0


def test_apply_T_m_decreasing_and_range_errors():
    one = lambda b: np.ones(len(b), dtype=complex)
    z = surface_point_with_norm(A1, 0.5, seed=7)
    v0 = O.apply_T_m(A1, one, z, 1.0, 0, plan(20_000, "t0"))
    v1 = O.apply_T_m(A1, one, z, 1.0, 1, plan(20_000, "t1"))
    assert v1.value.real < v0.value.real
    with pytest.raises(O.ExponentRangeError):
        O.apply_model_T(A1, one, z, 4.0, plan(2_000, "te"))
    with pytest.raises(O.ExponentRangeError):
        O.apply_T_m(A1, one, z, 3.0, 0, plan(2_000, "te2"))


def test_lp_norm_constant_flat():
    region = Region.ball(np.zeros(3), 1.0)
    qr = O.lp_norm(HP, lambda b: np.ones(len(b), dtype=complex), region, 2.0,
                   plan(30_000, "lp1"))
    assert qr.value == pytest.approx(np.sqrt(np.pi**2 / 2), rel=1e-6)


def test_lp_norm_radial_against_layer_cake():
    from conekop.sampling import layer_cake_integral

    region = Region.ball(np.zeros(3), 1.0)
    qr = O.lp_norm(A1, lambda b: 1.0 / np.maximum(b.norms(), 1e-300), region, 2.0,
                   plan(60_000, "lp2"), poles=[(np.zeros(3), 2.0)])
    lc = layer_cake_integral(A1, lambda r: 1.0 / max(r, 1e-300) ** 2, np.zeros(3),
                             1.0, plan(60_000, "lp2o"))
    want = np.sqrt(lc.value.real)
    err = 3 * (qr.stderr + lc.stderr / (2 * want))
    assert abs(qr.value - want) <= err


def test_lp_norm_triangle_inequality():
    region = Region.ball(np.zeros(3), 1.0)
    rng = np.random.default_rng(1)
    c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = lambda b: c1 * b.norms() + 0j
    g = lambda b: c2 * np.ones(len(b), dtype=complex)
    fg = lambda b: f(b) + g(b)
    nf = O.lp_norm(A1, f, region, 2.0, plan(20_000, "lt"))
    ng = O.lp_norm(A1, g, region, 2.0, plan(20_000, "lt"))
    nfg = O.lp_norm(A1, fg, region, 2.0, plan(20_000, "lt"))
    assert nfg.value <= nf.value + ng.value + 3 * (nf.stderr + ng.stderr + nfg.stderr)


def test_lp_norm_form_input_and_sup():
    region = Region.ball(np.zeros(3), 0.9)
    phi = TestForm.one_form_bump(3, 0, 1, 0.4, 0.8)
    qr = O.lp_norm(A1, phi, region, 2.0, plan(20_000, "lf"))
    assert qr.value > 0
    sup = O.lp_norm(A1, phi, region, np.inf, plan(5_000, "ls"))
    assert sup.value > 0 and sup.stderr == 0.0 and sup.samples > 0
    with pytest.raises(ValueError):
        O.lp_norm(A1, phi, region, 0.5, plan(2_000, "lb"))


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
    monkeypatch.setattr(sampling, "_lacunary_step", lambda table: 1)
    monkeypatch.setattr(sampling, "_aberth_roots", sampling._companion_roots)
    old = both()
    for a, b in zip(new, old):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_kernel_densities_match_the_frame_pullback():
    # apply_P and apply_K on a1 at one fixed z against the same integrals of
    # omega ^ kappa ^ phi pulled back through det F[:, A] of the SVD frames
    import itertools

    from conekop import kernels
    from conekop.sampling import frames_for, integrate

    z = surface_point_with_norm(A1, 0.5, seed=4)
    bump = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)

    def reference(kernel, phi):
        def integrand(batch):
            zeta = batch.positions
            ne = np.sqrt(np.sum(np.abs(zeta - z) ** 2, -1))
            ok = (batch.norms() > O._TINY) & (ne > O._TINY)
            pts = zeta[ok]
            fr = frames_for(A1, pts)
            coords = {sum(1 << j for j in A): np.linalg.det(fr[..., list(A)])
                      for A in itertools.combinations(range(3), 2)}
            omega = kernels.structure_form(A1, pts, A1.minors(pts))
            total = omega.wedge(kernel(A1, pts, z, CFG))
            total = total.wedge(phi.form_value(pts)).restricted_to_dim(2)
            dens = total.pullback_surface(coords)
            out = np.zeros(len(batch), dtype=complex)
            out[ok] = dens[0]
            return out
        return integrand

    pv, _ = O.apply_P(A1, bump, z, CFG, plan(6_000, "refP"))
    want_p = integrate(A1, Region.annulus(np.zeros(3), CFG.rho1, CFG.rho2),
                       reference(kernels.kernel_P, bump), plan(6_000, "refP"))
    kv, _ = O.apply_K(A1, bump.dbar(), z, CFG, plan(6_000, "refK"))
    want_k = integrate(A1, Region.domain(CFG.omega_prime_radius, 3),
                       reference(kernels.kernel_K, bump.dbar()), plan(6_000, "refK"),
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

    def one_batch(v, region, integrand, plan_, poles=(), chart=None):
        chart = sampling.default_chart(v)
        rng = np.random.default_rng(3)
        bases = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        pts, valid = sampling.solve_fiber(v, chart, bases)
        sel = pts[valid]
        m = v.minors(sel)
        integrand(sampling.PointBatch(v, sel, sampling.gram_factors(v, chart, m), m))
        return sampling.QuadratureResult(value=0j, stderr=0.0, samples=len(sel))

    monkeypatch.setattr(O, "integrate", one_batch)
    z = surface_point_with_norm(A1, 0.5, seed=0)
    O.apply_K(A1, TestForm.one_form_bump(3, 0, 1, 1.1, 1.6), z, CFG, plan(2_000, "mc"))
    assert len(calls) == 1
