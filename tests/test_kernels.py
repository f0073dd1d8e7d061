import inspect
import itertools

import numpy as np
import pytest

from conekop import kernels as K
from conekop import operators as O
from conekop.forms import FormValue, TestForm, Window
from conekop.kernels import WeightConfig, annulus_bounds
from conekop.sampling import (PointBatch, QuadratureResult, SamplingPlan,
                              default_chart, solve_fiber, surface_point_with_norm)
from conekop.varieties import (ConeVariety, MultiIndexPoly, NearSingularError,
                               catalog_names, get_variety, hyperplane,
                               minor_complements, row_norm_sq, variety_from_json)
from conekop.verify import flat_bm_residuals
from frame_density import frame_densities

HP = get_variety("hyperplane")
A1 = get_variety("a1")
CFG = WeightConfig()
PLAN = SamplingPlan(samples=4096)


def _rand(rng, n, N=3):
    return rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))


def _max_coeff(f: FormValue):
    return max((float(np.max(np.abs(np.atleast_1d(c)))) for c in f.terms.values()),
               default=0.0)


def test_b_contraction_normalized():
    rng = np.random.default_rng(0)
    eta = _rand(rng, 200)
    out = K.bm_B(eta, 3, 1).contract_eta(eta)
    assert np.max(np.abs(out.terms[0] - 1.0)) < 1e-13


def test_b_coefficient_magnitude():
    rng = np.random.default_rng(1)
    eta = _rand(rng, 100)
    b = K.bm_B(eta, 3, 1)
    total = np.zeros(100)
    for c in b.terms.values():
        total += np.abs(c) ** 2
    nrm = np.sqrt(np.sum(np.abs(eta) ** 2, axis=-1))
    assert np.allclose(np.sqrt(total), 1.0 / (2 * np.pi * nrm), rtol=1e-12)


def test_b_scaling_pattern():
    eta = np.array([[0.3 - 0.2j, 1.1, -0.4j]])
    b1 = K.bm_B(eta, 3, 1)
    b2 = K.bm_B(2.0 * eta, 3, 1)
    for m, c in b1.terms.items():
        assert np.allclose(b2.terms[m], c / 2.0, rtol=1e-13)


def test_B_bidegree_audit():
    rng = np.random.default_rng(2)
    eta = _rand(rng, 5)
    B = K.bm_B(eta, 3, 2)
    emask = (1 << 3) - 1
    degs = {}
    for m in B.terms:
        e = (m & emask).bit_count()
        anti = (m >> 3).bit_count()
        degs.setdefault(e, set()).add(anti)
    assert set(degs) == {1, 2}
    assert degs[1] == {0} and degs[2] == {1}


def test_B_term_homogeneity():
    direction = np.array([[0.6, -0.64j, 0.48]])
    direction /= np.sqrt(np.sum(np.abs(direction) ** 2))
    for k in (1, 2):
        part_1 = K.bm_B(direction, 3, 2).bidegree_part(k)
        part_h = K.bm_B(direction / 2, 3, 2).bidegree_part(k)
        ratio = 2.0 ** (2 * k - 1)
        checked = 0
        for m, c in part_1.terms.items():
            c0 = np.atleast_1d(c)[0]
            if abs(c0) < 1e-12:
                continue
            got = np.atleast_1d(part_h.terms[m])[0] / c0
            assert abs(got - ratio) < 1e-10 * ratio
            checked += 1
        assert checked > 0


def test_b_pole_error():
    with pytest.raises(K.PoleError):
        K.bm_B(np.zeros((1, 3), dtype=complex), 3, 1)


def test_sigma_contraction():
    rng = np.random.default_rng(3)
    zeta = _rand(rng, 1000)
    z = np.array([0.1, -0.2j, 0.05])
    out = K.sigma_form(zeta, z, 3).contract_eta(zeta - z)
    assert np.max(np.abs(out.terms[0] - 1.0)) < 1e-12


def test_weight_scalar_inside():
    rng = np.random.default_rng(4)
    zeta = 0.5 * CFG.rho1 * _rand(rng, 50) / np.sqrt(3)
    zeta = zeta / np.maximum(np.sqrt(np.sum(np.abs(zeta) ** 2, -1))[:, None], 1e-9) \
        * (0.5 * CFG.rho1)
    z = np.array([0.1, 0.0, 0.0])
    g = K.weight_g(zeta, z, CFG, 2, 3)
    assert np.allclose(g.terms[0], 1.0)
    assert all(np.allclose(c, 0.0) for m, c in g.terms.items() if m != 0)


def test_weight_vanishes_outside():
    zeta = np.array([[2.5, 0.1, 0.0], [0.0, 2.2, 0.5]], dtype=complex)
    z = np.array([0.1, 0.0, 0.0])
    g = K.weight_g(zeta, z, CFG, 2, 3)
    assert _max_coeff(g) == 0.0


def test_weight_holomorphic_in_z():
    # finite differences in z-bar of the weight coefficients vanish
    rng = np.random.default_rng(5)
    zeta = _rand(rng, 20)
    zeta = zeta / np.sqrt(np.sum(np.abs(zeta) ** 2, -1))[:, None] * 1.4
    z0 = np.array([0.2, -0.1j, 0.15])
    h = 1e-5
    for j in range(3):
        ej = np.zeros(3, complex)
        ej[j] = 1.0
        gp = K.weight_g(zeta, z0 + h * ej, CFG, 2, 3)
        gm = K.weight_g(zeta, z0 - h * ej, CFG, 2, 3)
        gip = K.weight_g(zeta, z0 + 1j * h * ej, CFG, 2, 3)
        gim = K.weight_g(zeta, z0 - 1j * h * ej, CFG, 2, 3)
        masks = set(gp.terms) | set(gm.terms) | set(gip.terms) | set(gim.terms)
        for m in masks:
            a = np.atleast_1d(gp.terms.get(m, 0.0) - gm.terms.get(m, 0.0))
            b = np.atleast_1d(gip.terms.get(m, 0.0) - gim.terms.get(m, 0.0))
            dbar = (a + 1j * b) / (4 * h)
            assert np.max(np.abs(dbar)) < 1e-6


def test_sigma_pole_error_outside_ball():
    zeta = np.array([[1.2, 0.0, 0.0]], dtype=complex)
    z = 1.2 * zeta[0]  # denominator |zeta|^2 - conj(zeta).z = 1.44 - 1.728 != 0
    z = zeta[0]  # exact equality makes Q = 0? no: Q = |zeta|^2 - |zeta|^2 = 0
    with pytest.raises(K.PoleError):
        K.sigma_form(zeta, z, 3)


def test_hefer_form_contract_matches_difference():
    rng = np.random.default_rng(6)
    for v in (HP, A1, get_variety("fermat3")):
        ze = _rand(rng, 500, v.ambient_dim)
        zz = _rand(rng, 500, v.ambient_dim)
        h = K.hefer_form(v, ze, zz)
        got = h.contract_eta(ze - zz).terms[0]
        want = v.eval_tuple(ze)[:, 0] - v.eval_tuple(zz)[:, 0]
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_hefer_growth_bound():
    rng = np.random.default_rng(7)
    v = get_variety("fermat4")
    ze = _rand(rng, 2000, 3)
    zz = _rand(rng, 2000, 3)
    H = v.hefer_coeffs(ze, zz)
    nz = np.sqrt(np.sum(np.abs(ze) ** 2, -1))
    nw = np.sqrt(np.sum(np.abs(zz) ** 2, -1))
    bound = sum(nz ** (v.total_degree - v.nu - g) * nw**g
                for g in range(v.total_degree - v.nu + 1))
    C = np.max(np.max(np.abs(H), axis=(1, 2)) / bound)
    assert np.isfinite(C) and C < 10.0


def test_structure_form_hyperplane_constant():
    rng = np.random.default_rng(8)
    zeta = _rand(rng, 10)
    om = K.structure_form(HP, zeta, HP.minors(zeta))
    live = {m for m, c in om.terms.items() if np.max(np.abs(c)) > 0}
    assert live == {0b011}  # e_0 ^ e_1, constant coefficient
    assert np.allclose(om.terms[0b011], 1.0)


def test_structure_form_homogeneity():
    rng = np.random.default_rng(9)
    zeta = _rand(rng, 50)
    for lam in (3.0, 0.5, 1.0 + 2.0j):
        om1 = K.structure_form(A1, zeta, A1.minors(zeta))
        om2 = K.structure_form(A1, lam * zeta, A1.minors(lam * zeta))
        n1 = np.zeros(50)
        n2 = np.zeros(50)
        for m in om1.terms:
            n1 += np.abs(om1.terms[m]) ** 2
            n2 += np.abs(om2.terms.get(m, np.zeros(50))) ** 2
        ratio = np.sqrt(n2 / n1)
        expected = abs(lam) ** -(A1.total_degree - A1.nu)
        assert np.max(np.abs(ratio - expected)) < 1e-10 * expected


def test_structure_form_sign_convention():
    # d zeta_I ^ (complement) = + d zeta_1 ^ ... ^ d zeta_N, checked by wedge
    import itertools

    from conekop.varieties import minor_complements

    for N in (3, 4):
        top = FormValue(N, {(1 << N) - 1: 1.0})
        for nu in (1, 2):
            subsets = list(itertools.combinations(range(N), nu))
            duals = minor_complements(N, nu)
            assert len(duals) == len(subsets)
            for I, (comp, sgn) in zip(subsets, duals):
                mask_I = 0
                for j in I:
                    mask_I |= 1 << j
                assert comp == ((1 << N) - 1) ^ mask_I
                prod = FormValue(N, {mask_I: 1.0}).wedge(
                    FormValue(N, {comp: float(sgn)}))
                assert prod.terms == top.terms


def test_structure_form_singular_origin():
    origin = np.zeros((1, 3), dtype=complex)
    with pytest.raises(K.PoleError):
        K.structure_form(A1, origin, A1.minors(origin))


def test_structure_form_near_singular_error():
    # z0 z1 = 0 is singular along its z2 axis: at (1e-12, 0, 1) the minors
    # norm is 1e-12 > 0, below FRAME_TOL |zeta|^(d - nu) = 1e-8
    planes = ConeVariety("planes", 3, (MultiIndexPoly.from_dict(3, {(1, 1, 0): 1.0}),))
    pts = np.array([[0.5, 0.0, 0.3], [1e-12, 0.0, 1.0]], dtype=complex)
    assert 0.0 < planes.minors_norm(pts[1]) <= 1e-8
    K.structure_form(planes, pts[:1], planes.minors(pts[:1]))
    with pytest.raises(NearSingularError):
        K.structure_form(planes, pts, planes.minors(pts))


def test_near_branch_locus_point_on_a_dead_row_still_raises(monkeypatch):
    # K and P skip the row outside rho2, yet the structure form's regularity
    # guard still sees it
    planes = ConeVariety("planes", 3, (MultiIndexPoly.from_dict(3, {(1, 1, 0): 1.0}),))
    pts = np.array([[0.5, 0.0, 0.3], [1e-12, 0.0, 1.9]], dtype=complex)
    assert np.sum(np.abs(pts[1]) ** 2) > CFG.rho2**2
    z = np.array([0.1, 0.0, 0.2], dtype=complex)
    phi = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    for rows in (1, 2):
        batch = _batch(planes, pts[:rows])
        _on_batch(monkeypatch, batch)
        for apply, form in ((O.apply_P, phi), (O.apply_K, phi.dbar())):
            if rows == 1:
                apply(planes, form, z, CFG, PLAN)
            else:
                with pytest.raises(NearSingularError):
                    apply(planes, form, z, CFG, PLAN)


def test_near_branch_locus_point_raises_with_the_work_unit_norms(monkeypatch):
    # integrate itself builds the batch, so x comes from its indicator and
    # |m|^2 from its Gram factors: every base row carries the regular point
    # of z0 z1 = 0 and, in the second pass, also a point 1e-12 off its z2 axis
    from conekop import sampling

    planes = ConeVariety("planes", 3, (MultiIndexPoly.from_dict(3, {(1, 1, 0): 1.0}),))
    pts = np.array([[1.0, 0.0, 0.6], [1e-12, 0.0, 1.2]], dtype=complex)
    r = np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1))
    assert np.all((CFG.rho1 < r) & (r < 0.95 * CFG.rho2))
    z = np.array([0.1, 0.0, 0.2], dtype=complex)
    phi = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    # the fiber variable z2 has no pure power: force its chart and stretch
    monkeypatch.setattr(sampling, "default_chart", lambda v: sampling.Chart((0, 1), (2,)))
    monkeypatch.setattr(sampling.ChartPlan, "stretch", 2.0)
    for sheets in (1, 2):
        monkeypatch.setattr(sampling, "solve_fiber", lambda v, chart, bases: (
            np.broadcast_to(pts[:sheets], (len(bases), sheets, 3)).copy(),
            np.ones((len(bases), sheets), dtype=bool)))
        for apply, form in ((O.apply_P, phi), (O.apply_K, phi.dbar())):
            # the zero fiber minor makes the Gram factors overflow
            with np.errstate(over="ignore", invalid="ignore"):
                if sheets == 1:
                    apply(planes, form, z, CFG, PLAN)
                else:
                    with pytest.raises(NearSingularError):
                        apply(planes, form, z, CFG, PLAN)


def _omega_kernel(v, zeta, z):
    """The full kernel omega ^ kappa, with omega wedged in explicitly."""
    return K.structure_form(v, zeta, v.minors(zeta)).wedge(K.kernel_K(v, zeta, z, CFG))


def _coordinate_plane(N, nu):
    """{z_{N-nu} = ... = z_{N-1} = 0} in C^N, loaded as a custom variety."""
    polys = [[{"exp": [int(j == i) for j in range(N)], "re": 1.0}]
             for i in range(N - nu, N)]
    return variety_from_json({"ambient_dim": N, "polys": polys})


FLAT_CASES = ((3, 1), (4, 1), (4, 2), (5, 2))


def test_kernel_K_hyperplane_matches_flat_bm():
    # with chi identically 1 at interior points, the assembled kernel equals
    # the flat Bochner-Martinelli form of the coordinate plane, with the one
    # constant c_K = (2 pi i)^nu for either parity of N and nu = 1, 2
    rng = np.random.default_rng(10)
    for N, nu in FLAT_CASES:
        n = N - nu
        flat = hyperplane(N) if nu == 1 else _coordinate_plane(N, nu)
        z = np.array([0.2, -0.1, 0.05][:n] + [0.0] * nu, dtype=complex)
        zeta = _rand(rng, 40, N)
        zeta[:, n:] = 0.0
        zeta *= 0.3 / np.sqrt(np.sum(np.abs(zeta) ** 2, -1))[:, None]
        # the flat chart: p_{0..n-1} = 1, every other Plücker coordinate 0
        plucker = {A: np.full(40, 1.0 if A == (1 << n) - 1 else 0.0)
                   for A, _ in minor_complements(N, nu)}
        ker = _omega_kernel(flat, zeta, z)
        Bflat = K.bm_B(zeta - z, N, n)
        for phi_idx in range(n):  # wedge against each dzeta-bar slot
            probe = FormValue(N, {1 << (N + phi_idx): np.ones(40)})
            dens_K = ker.wedge(probe).restricted_to_dim(n).pullback_surface(plucker)
            dens_B = Bflat.wedge(probe).restricted_to_dim(n).pullback_surface(plucker)
            got = dens_K.get(0, np.zeros(40))
            want = dens_B.get(0, np.zeros(40))
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def _batch(v, pts):
    """A PointBatch of the points with unit Gram factors."""
    m = v.minors(pts)
    return PointBatch(pts, np.ones(len(pts)), m, row_norm_sq(m), row_norm_sq(pts))


def _on_batch(monkeypatch, batch):
    """Make operators.integrate evaluate its integrand once, on batch."""
    outs = []

    def one_batch(v, region, integrand, plan_, poles=(), support=None):
        outs.append(integrand(batch))
        return QuadratureResult(value=0j, stderr=0.0, samples=len(batch))

    monkeypatch.setattr(O, "integrate", one_batch)
    return outs


def _straddling_batch(v, bases: int):
    """Points of v with |zeta| uniform in [0.2, 2]: within rho1, across the
    windows' r_hi and rho2, and past rho2."""
    rng = np.random.default_rng(17)
    bases = rng.standard_normal((bases, v.dim)) + 1j * rng.standard_normal((bases, v.dim))
    pts, valid = solve_fiber(v, default_chart(v), bases)
    pts = pts[valid]
    pts *= (rng.uniform(0.2, 2.0, len(pts))
            / np.sqrt(np.sum(np.abs(pts) ** 2, -1)))[:, None]
    return _batch(v, pts)


def _windowed_form(N, q):
    """A (0,q) input over the window (1.1, 1.6) with a window-derivative term.

    For q >= 3 the inputs are built here: dbar of a dbar would need the
    window's second derivative, which Window.value does not store.  On each
    q-index I: c_I conj(zeta_(I_0)) w + (0.3 - 0.2i) zeta_(I_-1) w'.
    """
    coeffs = {}
    for t, I in enumerate(itertools.combinations(range(N), q)):
        zbar, zeta = np.zeros(2 * N, dtype=np.int64), np.zeros(2 * N, dtype=np.int64)
        zbar[2 * I[0] + 1] = 1
        zeta[2 * I[-1]] = 1
        coeffs[I] = [(MultiIndexPoly(2 * N, zbar, [1.0 + 0.5j * t]), 0),
                     (MultiIndexPoly(2 * N, zeta, [0.3 - 0.2j]), 1)]
    return TestForm(N, q, coeffs, Window(1.1, 1.6), label=f"windowed{q}")


# a threefold quadric cone in C^4 with a mixed term
QUADRIC3 = {"name": "quadric3", "ambient_dim": 4, "polys": [[
    {"exp": [2, 0, 0, 0], "re": 1.0}, {"exp": [0, 2, 0, 0], "re": 1.0},
    {"exp": [0, 0, 2, 0], "re": 1.0}, {"exp": [0, 0, 0, 2], "re": 1.0},
    {"exp": [1, 1, 0, 0], "re": 0.3, "im": 0.2}]]}
VARIETIES = {name: get_variety(name) for name in catalog_names()}
VARIETIES["line2"] = variety_from_json({"name": "line2", "ambient_dim": 2, "polys": [[
    {"exp": [1, 0], "re": 1.0}, {"exp": [0, 1], "re": 0.5, "im": 0.5}]]})
VARIETIES["hyperplane4"] = hyperplane(4)
VARIETIES["hyperplane5"] = hyperplane(5)
VARIETIES["quadric3"] = variety_from_json(QUADRIC3)


@pytest.mark.parametrize("name", VARIETIES)
def test_surface_integrand_matches_unpruned(name, monkeypatch):
    # apply_P and apply_K at every q from 1 to n, on a line to fourfolds,
    # on one batch through the kernel integrand, against the FormValue
    # kernel pulled back through the SVD frames' Plücker coordinates on
    # every ok row at once: within 1e-13 of the batch maximum, and exactly
    # 0 on dead rows (the cone point, z, past x_end)
    v = VARIETIES[name]
    N, n = v.ambient_dim, v.dim
    z = surface_point_with_norm(v, 0.5, seed=4)
    pts = np.vstack([_straddling_batch(v, 6000).positions, np.zeros((1, N)), z])
    batch = _batch(v, pts)
    x = np.sum(np.abs(pts) ** 2, -1)
    for lo, hi in ((0.0, CFG.rho1), (CFG.rho1, 0.95 * CFG.rho2),
                   (0.95 * CFG.rho2, CFG.rho2), (CFG.rho2, 2.0)):
        assert np.sum((lo**2 < x) & (x < hi**2)) > 100
    ok = (batch.norms() > O._TINY) & (batch.dist(z) > O._TINY)
    assert not np.all(ok)
    bump = TestForm.zbar_bump(N, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    cases = [(O.apply_P, phi) for phi in (bump, TestForm.constant(N))]
    cases += [(O.apply_K, phi)
              for phi in (bump.dbar(), TestForm.one_form_bump(N, 1, 0, 1.1, 1.6),
                          TestForm.one_form_bump(N, 0, 1, 1.1, 1.6).dbar())]
    cases += [(O.apply_K, _windowed_form(N, q)) for q in range(3, n + 1)]
    cases = [(apply, phi) for apply, phi in cases if phi.q <= n]
    assert {phi.q for _, phi in cases} == set(range(n + 1))
    outs = _on_batch(monkeypatch, batch)
    wants = frame_densities(v, [phi for _, phi in cases], z, CFG, batch)
    for (apply, phi), want in zip(cases, wants):
        apply(v, phi, z, CFG, PLAN)
        live = ok & (x < O._x_end(CFG, phi))
        assert np.sum(live) > O._BLOCK and np.any(want)
        assert np.max(np.abs(outs[-1] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(outs[-1][~live] == 0)


def test_densities_evaluate_the_input_on_live_rows_in_blocks(monkeypatch):
    # apply_P and apply_K take phi on the live rows only, at most _BLOCK rows
    # per call
    v = A1
    z = surface_point_with_norm(v, 0.5, seed=4)
    batch = _straddling_batch(v, 6000)
    calls = []
    evaluate = TestForm.eval

    def recorded(self, pts, x=None):
        calls.append(pts)
        return evaluate(self, pts, x)

    monkeypatch.setattr(TestForm, "eval", recorded)
    _on_batch(monkeypatch, batch)
    bump = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    x = np.sum(np.abs(batch.positions) ** 2, -1)
    for apply, phi in ((O.apply_P, bump), (O.apply_K, bump.dbar()),
                       (O.apply_K, TestForm.one_form_bump(3, 0, 1, 1.1, 1.6).dbar())):
        calls.clear()
        apply(v, phi, z, CFG, PLAN)
        live = (x < O._x_end(CFG, phi)) & (batch.dist(z) > O._TINY)
        assert len(calls) > 1 and max(len(c) for c in calls) <= O._BLOCK
        assert np.array_equal(np.vstack(calls), batch.positions[live])


def test_surfaces_take_k_and_p_without_the_form_algebra(monkeypatch):
    # K and P take their densities in closed form in every dimension: no
    # FormValue wedge and no input as a FormValue, for P and for K on (0,1)
    # and (0,2) inputs, on surfaces (a1, ci22) and threefolds
    calls = []
    for owner, name in ((FormValue, "wedge"), (TestForm, "form_value")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args, _m=method, _n=name:
                            calls.append(_n) or _m(self, *args))
    plan = SamplingPlan(samples=2000)
    for v in (A1, get_variety("ci22"), hyperplane(4), VARIETIES["quadric3"]):
        N = v.ambient_dim
        z = surface_point_with_norm(v, 0.5, seed=4)
        bump = TestForm.zbar_bump(N, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
        pv, _ = O.apply_P(v, bump, z, CFG, plan)
        k1, _ = O.apply_K(v, bump.dbar(), z, CFG, plan)
        k2, _ = O.apply_K(v, TestForm.one_form_bump(N, 0, 1, 1.1, 1.6).dbar(), z, CFG,
                          plan)
        assert np.isfinite(pv) and np.all(np.isfinite(k1)) and len(k1) == 1
        assert np.all(np.isfinite(k2)) and len(k2) == N
    assert calls == []


def test_kernels_and_per_point_norms_take_no_optional_parameters():
    # the FormValue reference builds whole kernels, the per-point norms are
    # always handed in, and K and P call their closed forms with no adapter
    from conekop import sampling

    got = {fn.__qualname__: [(p.name, p.default is p.empty)
                             for p in inspect.signature(fn).parameters.values()]
           for fn in (K.bm_B, K.kernel_K, K.weight_g, K.structure_norm_sq,
                      sampling.gram_factors, PointBatch.__init__)}
    want = {"bm_B": ["eta", "N", "n"],
            "kernel_K": ["v", "zeta", "z", "cfg"],
            "weight_g": ["zeta", "z", "cfg", "n", "N"],
            "structure_norm_sq": ["v", "x", "m", "msq"],
            "gram_factors": ["v", "chart", "m", "msq"],
            "PointBatch.__init__": ["self", "positions", "grams", "minors", "msq", "x"]}
    assert got == {name: [(p, True) for p in params] for name, params in want.items()}
    assert not hasattr(O, "_closed_form")


def test_flat_bm_check_takes_neither_wedge_nor_pullback(monkeypatch):
    # criterion 2's Bochner-Martinelli check runs on K's closed form
    calls = []
    for name in ("wedge", "pullback_surface"):
        method = getattr(FormValue, name)
        monkeypatch.setattr(FormValue, name, lambda self, *args, _m=method, _n=name:
                            calls.append(_n) or _m(self, *args))
    rows = flat_bm_residuals(SamplingPlan(samples=2000, experiment_id="fbm"),
                             z_norms=(0.3,))
    assert len(rows) == 1 and np.isfinite(rows[0]["estimate"])
    assert calls == []


def _flat_bm_reference(phi, z, pts):
    """B ^ phi on the hyperplane {z_N = 0}, pulled back through its flat
    Plücker coordinates: p_{0..n-1} = 1, every other one 0."""
    N, n = HP.ambient_dim, HP.dim
    flat = {A: float(A == (1 << n) - 1) for A, _ in minor_complements(N, HP.nu)}
    B = K.bm_B(pts - z, N, n)
    total = B.wedge(phi.form_value(pts)).restricted_to_dim(n)
    return total.pullback_surface(flat).get(0, np.zeros(len(pts)))


def test_flat_bm_density_matches_the_plucker_pullback(monkeypatch):
    # with chi = 1 on supp phi, K's closed form on dbar phi is B ^ dbar phi:
    # on one hyperplane batch, within 1e-13 of the batch maximum
    batch = _straddling_batch(HP, 6000)
    outs = _on_batch(monkeypatch, batch)
    plan = SamplingPlan(samples=2000, seed=5)
    flat_bm_residuals(plan, z_norms=(0.3,))
    z = surface_point_with_norm(HP, 0.3, seed=plan.seed)
    dphi = TestForm.radial_bump(3, 0.5, 0.8).dbar()
    ok = batch.dist(z) > O._TINY
    want = np.zeros(len(batch), dtype=complex)
    want[ok] = _flat_bm_reference(dphi, z, batch.positions[ok])
    assert np.count_nonzero(want) > 500
    assert np.max(np.abs(outs[-1][:, 0] - want)) <= 1e-13 * np.max(np.abs(want))


def test_surface_densities_take_sigma_at_the_safe_point_within_rho1():
    # gamma = 0 within rho1, where sigma is taken at weight_g's safe zeta_s:
    # a row with conj(zeta) . (zeta - z) = 0 raises no PoleError
    z = np.array([0.5, 0.0, 0.0], dtype=complex)
    zeta = np.array([[0.25, 0.25, 0.0]], dtype=complex)
    m = HP.minors(zeta)
    msq = np.sum(np.abs(m) ** 2, -1)
    x = np.sum(np.abs(zeta) ** 2, -1)
    for density, phi, q in ((K.density_K, {(0,): np.ones(1)}, (1,)),
                            (K.density_P, {(): np.ones(1)}, ())):
        assert np.all(np.isfinite(density(HP, zeta, x, z, CFG, m, msq, phi, *q)))


def test_kernel_P_vanishes_inside_cutoff():
    rng = np.random.default_rng(11)
    zeta = _rand(rng, 20)
    zeta *= 0.8 * CFG.rho1 / np.sqrt(np.sum(np.abs(zeta) ** 2, -1))[:, None]
    z = np.array([0.2, 0.1, 0.0], dtype=complex)
    P = K.kernel_P(HP, zeta, z, CFG)
    assert _max_coeff(P) == 0.0


def test_kernel_pole_order_audit():
    # sup of |K| * |zeta - z|^(2n-1) stays bounded as zeta approaches z
    z = surface_point_with_norm(A1, 0.5, seed=0)
    from conekop.sampling import tangent_frame

    tau = tangent_frame(A1, z)[0]
    sups = []
    for eps in np.geomspace(1e-4, 1e-1, 7):
        from conekop.sampling import project_to_surface

        zeta = np.stack([project_to_surface(A1, z + eps * tau),
                         project_to_surface(A1, z - eps * tau)])
        ker = _omega_kernel(A1, zeta, z)
        dist = np.sqrt(np.sum(np.abs(zeta - z) ** 2, -1))
        mag = np.zeros(2)
        for c in ker.terms.values():
            mag = np.maximum(mag, np.abs(c))
        sups.append(np.max(mag * dist**3))
    sups = np.array(sups)
    assert np.max(sups) < 50.0 * np.min(sups[sups > 0])


def test_kernel_decomposition_bound():
    # |K(zeta, z)| <= C sum_gamma |z|^g |zeta|^-g |zeta-z|^-(2n-1) empirically
    rng = np.random.default_rng(12)
    z = surface_point_with_norm(A1, 0.5, seed=1)
    bases = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    pts, valid = solve_fiber(A1, default_chart(A1), bases)
    zeta = pts[valid]
    nz = np.sqrt(np.sum(np.abs(zeta) ** 2, -1))
    keep = (nz > 1e-3) & (nz < 2.0)
    zeta = zeta[keep][:10_000]
    ker = _omega_kernel(A1, zeta, z)
    mag = np.zeros(len(zeta))
    for c in ker.terms.values():
        mag = np.maximum(mag, np.abs(c))
    nz = np.sqrt(np.sum(np.abs(zeta) ** 2, -1))
    dz = np.sqrt(np.sum(np.abs(zeta - z) ** 2, -1))
    zn = np.sqrt(np.sum(np.abs(z) ** 2))
    bound = sum((zn / nz) ** g for g in range(A1.total_degree - A1.nu + 1)) / dz**3
    C = np.max(mag / bound)
    assert np.isfinite(C) and C < 100.0


def test_model_kernels():
    rng = np.random.default_rng(13)
    zeta = _rand(rng, 10_000)
    z = np.array([0.3, 0.2, 0.0], dtype=complex)
    k0 = K.model_k_gamma(zeta, z, 0.0, 2)
    dist = np.sqrt(np.sum(np.abs(zeta - z) ** 2, -1))
    assert np.allclose(k0, dist**-3, rtol=1e-12)
    # on the shell |zeta| = |z| the ratio weight drops out
    shell = zeta / np.sqrt(np.sum(np.abs(zeta) ** 2, -1))[:, None] * \
        np.sqrt(np.sum(np.abs(z) ** 2))
    for g in (0.0, 1.0, 2.0):
        assert np.allclose(K.model_k_gamma(shell, z, g, 2),
                           K.model_k_gamma(shell, z, 0.0, 2), rtol=1e-10)
    # truncation clamps exactly where the kernel exceeds the level
    k1 = K.model_k_gamma(zeta, z, 1.0, 2)
    for j in (10.0, 100.0):
        kj = K.k_gamma_truncated(zeta, z, 1.0, j, 2)
        assert np.all(kj[k1 > j] == 0.0)
        assert np.allclose(kj[k1 <= j], k1[k1 <= j])


def test_model_k_tilde_magnitude():
    rng = np.random.default_rng(14)
    zeta = _rand(rng, 100)
    z = np.array([0.3, 0.2, 0.0], dtype=complex)
    kt = K.model_k_tilde(zeta, z, 0.0, 0, 2)
    dist = np.sqrt(np.sum(np.abs(zeta - z) ** 2, -1))
    assert np.all(np.abs(kt) <= dist**-3 + 1e-12)


def test_annulus_bounds_range():
    lo, hi = annulus_bounds(0)
    assert hi == pytest.approx(np.exp(-1))
    assert lo == pytest.approx(np.exp(-np.e))
    with pytest.raises(ValueError):
        annulus_bounds(6)
    with pytest.raises(ValueError):
        annulus_bounds(-1)


def test_cutoff_slope_bounds():
    xs = np.linspace(-1.0, 7.0, 20_001)
    rho = K.rho_transition(xs, 2)
    drho = np.gradient(rho, xs)
    assert np.max(np.abs(drho)) <= 2.0 + 1e-3
    rxs = np.linspace(0.0, 1.0, 20_001)
    r = K.radial_transfer(rxs)
    dr = np.gradient(r, rxs)
    assert np.max(np.abs(dr)) <= 1.0 + 1e-3
    assert np.all(np.diff(r) >= -1e-15)
    assert r[0] == 0.0 and r[-1] == pytest.approx(0.5)


def test_mu_support_and_underflow():
    for k in (1, 2, 3):
        lo, hi = annulus_bounds(k)
        pts = np.array([[2 * hi, 0, 0], [lo / 2, 0, 0], [0.5, 0, 0]], dtype=complex)
        coeffs = K.dbar_mu_coeffs(pts, k)
        assert np.all(np.abs(coeffs) == 0.0)
        inside = np.array([[np.sqrt(lo * hi), 0, 0]], dtype=complex)
        assert np.max(np.abs(K.dbar_mu_coeffs(inside, k))) > 0.0
        assert K.mu_value(np.array([[0.5, 0, 0]], dtype=complex), k)[0] == 1.0
    # underflow guard at the origin
    tiny = np.array([[1e-310, 0, 0]], dtype=complex)
    assert K.mu_value(tiny, 1)[0] == 0.0
    assert np.all(np.isfinite(K.dbar_mu_coeffs(tiny, 1)))


def test_structure_form_link_bound_reported():
    # sup over the unit link of |omega coefficients| * |zeta|^(d - nu) is
    # finite; on the link it is 1 / minors_norm, bounded by the margin
    from conekop.sampling import attach_link_margin

    rng = np.random.default_rng(15)
    for name in ("a1", "fermat3"):
        v = get_variety(name)
        bases = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
        pts, valid = solve_fiber(v, default_chart(v), bases)
        nrm = np.sqrt(np.sum(np.abs(pts) ** 2, -1))
        unit = (pts[valid & (nrm > 1e-9)]
                / nrm[valid & (nrm > 1e-9)][:, None])[:2000]
        om = K.structure_form(v, unit, v.minors(unit))
        mag = np.zeros(len(unit))
        for c in om.terms.values():
            mag += np.abs(c) ** 2
        sup = float(np.max(np.sqrt(mag)))
        margin = attach_link_margin(v, samples=4000).link_regularity_margin
        assert np.isfinite(sup)
        assert sup <= 2.0 / margin  # coefficient norm is 1 / minors norm


def _calibration(samples, tag, **params):
    # the calibrate experiment ignores its variety argument
    from conekop.verify import run_calibrate

    rep = run_calibrate(HP, SamplingPlan(samples=samples, seed=31, experiment_id=tag),
                        **params)
    assert rep.checks["P_spread_within_tol"]
    assert rep.checks["flat_identity_within_tol"]
    return rep.fitted["c_K_rel_dev"]["value"], rep.fitted["c_P_rel_dev"]["value"]


def test_calibrate_recovers_default_constants():
    dev_K, dev_P = _calibration(120_000, "tcal")
    assert dev_K < 0.1
    assert dev_P < 0.05


def test_calibrate_flat_c4_recovers_default_constants():
    # the fit on the hyperplane z_4 = 0 in C^4 lands on +2 pi i for c_K,
    # the same constant as in C^3
    dev_K, dev_P = _calibration(8192, "tcal4", ambient_dim=4)
    assert dev_K < 0.1
    assert dev_P < 0.05
