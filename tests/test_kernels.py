import numpy as np
import pytest

from conekop import kernels as K
from conekop import operators as O
from conekop.forms import FormValue, TestForm
from conekop.kernels import WeightConfig, annulus_bounds
from conekop.sampling import (PointBatch, QuadratureResult, SamplingPlan,
                              default_chart, solve_fiber, surface_point_with_norm)
from conekop.varieties import (ConeVariety, MultiIndexPoly, NearSingularError,
                               catalog_names, get_variety, hyperplane,
                               minor_complements, variety_from_json)

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
        batch = PointBatch(planes, pts[:rows], np.ones(rows), planes.minors(pts[:rows]))
        _on_batch(monkeypatch, batch)
        for apply, form in ((O.apply_P, phi), (O.apply_K, phi.dbar())):
            if rows == 1:
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


def _unpruned_k(v, zeta, z):
    """k assembled from every degree of g and of B, with no row shortcut."""
    N, n = v.ambient_dim, v.dim
    Bf = K.bm_B(zeta - z, N, n)
    g = K.weight_g(zeta, z, CFG, n, N)
    part = FormValue.zero(N)
    for k in range(n):
        part = part + g.bidegree_part(k).wedge(Bf.bidegree_part(n - k))
    return K._top_with_hefer(v, zeta, z, part)


def _unpruned_p(v, zeta, z):
    g = K.weight_g(zeta, z, CFG, v.dim, v.ambient_dim)
    return K._top_with_hefer(v, zeta, z, g.bidegree_part(v.dim))


def _bits(f: FormValue, keep=lambda m: True):
    return {m: np.asarray(c).tobytes() for m, c in f.terms.items() if keep(m)}


@pytest.mark.parametrize("N, nu", FLAT_CASES)
def test_pruned_kernel_pieces_match_unpruned(N, nu):
    # every pruned piece holds exactly the unpruned terms it keeps, bit for bit
    rng = np.random.default_rng(16)
    n = N - nu
    v = hyperplane(N) if nu == 1 else _coordinate_plane(N, nu)
    z = np.array([0.2, -0.1, 0.05][:n] + [0.0] * nu, dtype=complex)
    zeta = _rand(rng, 60, N)
    # |zeta| from 0.3 to 2: inside rho1, across the transition, outside rho2
    zeta *= (np.linspace(0.3, 2.0, 60)
             / np.sqrt(np.sum(np.abs(zeta) ** 2, -1)))[:, None]
    emask = (1 << N) - 1

    g = K.weight_g(zeta, z, CFG, n, N)
    assert _bits(K.weight_g(zeta, z, CFG, n, N, range(n))) == \
        _bits(g, lambda m: (m & emask).bit_count() < n)
    assert _bits(K.weight_g(zeta, z, CFG, n, N, (n,))) == _bits(g.bidegree_part(n))

    def zbar_at_most(d):
        return lambda m: (m >> (2 * N)).bit_count() <= d

    ref_k = _unpruned_k(v, zeta, z)
    for d in (0, 1):
        assert _bits(K.kernel_K(v, zeta, z, CFG, d)) == _bits(ref_k, zbar_at_most(d))
    assert _bits(K.kernel_P(v, zeta, z, CFG)) == _bits(_unpruned_p(v, zeta, z))

    # a batch wholly within rho1, where g is the scalar 1, takes the same path:
    # the same bits, and any term of the unpruned sum it never forms is +-0
    inner = zeta[np.sum(np.abs(zeta) ** 2, -1) <= CFG.rho1**2]
    assert len(inner) > 5
    ref_inner = _unpruned_k(v, inner, z)
    for d in (0, 1):
        got = K.kernel_K(v, inner, z, CFG, d)
        want = _bits(ref_inner, zbar_at_most(d))
        assert _bits(got) == {m: want[m] for m in got.terms}
        assert all(not np.any(ref_inner.terms[m]) for m in want if m not in got.terms)


def _on_batch(monkeypatch, batch):
    """Make operators.integrate evaluate its integrand once, on batch."""
    outs = []

    def one_batch(v, region, integrand, plan_, poles=(), support=None):
        outs.append(integrand(batch))
        return QuadratureResult(value=0j, stderr=0.0, samples=len(batch))

    monkeypatch.setattr(O, "integrate", one_batch)
    return outs


def _unpruned_integrand(v, phi, z, subsets, kernel, batch):
    """The kernel integrand with every ok row evaluated in one piece."""
    ok = (batch.norms() > O._TINY) & (batch.dist(z) > O._TINY)
    pts = batch.positions[ok]
    total = kernel(v, pts, z).wedge(phi.form_value(pts))
    dens = total.restricted_to_dim(v.dim).surface_density(
        K.structure_form(v, pts, batch.minors[ok]))
    out = np.zeros((len(batch), len(subsets)), dtype=complex)
    for i, s in enumerate(subsets):
        m = sum(1 << j for j in s)
        if m in dens:
            out[ok, i] = dens[m]
    return out


def _straddling_batch(v, bases: int):
    """Points of v with |zeta| uniform in [0.2, 2]: within rho1, across the
    windows' r_hi and rho2, and past rho2."""
    rng = np.random.default_rng(17)
    bases = rng.standard_normal((bases, v.dim)) + 1j * rng.standard_normal((bases, v.dim))
    pts, valid = solve_fiber(v, default_chart(v), bases)
    pts = pts[valid]
    pts *= (rng.uniform(0.2, 2.0, len(pts))
            / np.sqrt(np.sum(np.abs(pts) ** 2, -1)))[:, None]
    return PointBatch(v, pts, np.ones(len(pts)), v.minors(pts))


def _unpruned_integrand_in_blocks(v, phi, z, subsets, kernel, batch):
    """_unpruned_integrand on the live rows, in the driver's blocks."""
    x = np.sum(np.abs(batch.positions) ** 2, -1)
    ok = (batch.norms() > O._TINY) & (batch.dist(z) > O._TINY)
    live = np.flatnonzero(ok & (x < O._x_end(CFG, phi)))
    out = np.zeros((len(batch), len(subsets)), dtype=complex)
    for lo in range(0, len(live), O._BLOCK):
        rows = live[lo:lo + O._BLOCK]
        block = PointBatch(v, batch.positions[rows], np.ones(len(rows)),
                           batch.minors[rows])
        out[rows] = _unpruned_integrand(v, phi, z, subsets, kernel, block)
    return out


@pytest.mark.parametrize("name", ["a1", "fermat3"])
def test_pruned_kernel_integrand_matches_unpruned(name):
    # the FormValue density through the one driver, on inputs that surfaces
    # otherwise send to the closed form, on one batch that straddles rho1, the
    # windows' r_hi and rho2, with over twice numpy's 8,192-element ufunc
    # buffer in rows: at that size form_value on a row subset changes last
    # bits (numpy 2.4, x86-64), so the bit-for-bit reference is the unpruned
    # integrand on the same blocks, and the whole-batch one reads exactly 0
    # on every row the driver skips
    v = get_variety(name)
    batch = _straddling_batch(v, 9000)
    assert len(batch) > 2 * 8192
    z = surface_point_with_norm(v, 0.5, seed=4)
    bump = TestForm.zbar_bump(3, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    x = np.sum(np.abs(batch.positions) ** 2, -1)
    for lo, hi in ((0.0, CFG.rho1), (CFG.rho1, 0.95 * CFG.rho2),
                   (0.95 * CFG.rho2, CFG.rho2), (CFG.rho2, 2.0)):
        assert np.sum((lo**2 < x) & (x < hi**2)) > 100

    cases = [(phi, [()], _unpruned_p, lambda zeta: K.kernel_P(v, zeta, z, CFG))
             for phi in (bump, TestForm.constant(3))]
    cases += [(phi, O.output_subsets(3, phi.q - 1), _unpruned_k,
               lambda zeta, d=phi.q - 1: K.kernel_K(v, zeta, z, CFG, d))
              for phi in (bump.dbar(), TestForm.one_form_bump(3, 0, 1, 1.1, 1.6).dbar())]
    for phi, subsets, ref, kernel in cases:
        density = O._form_density(v, phi, subsets, kernel)
        got = O._kernel_integrand(v, phi, z, CFG, len(subsets), density)(batch)
        want = _unpruned_integrand_in_blocks(v, phi, z, subsets, ref, batch)
        # array_equal allows no difference but the sign of zero
        assert np.any(want) and np.array_equal(got, want)
        whole = _unpruned_integrand(v, phi, z, subsets, ref, batch)
        assert np.all(whole[x >= O._x_end(CFG, phi)] == 0)


VARIETIES = {name: get_variety(name) for name in catalog_names()}
VARIETIES["hyperplane4"] = hyperplane(4)


@pytest.mark.parametrize("name", VARIETIES)
def test_surface_integrand_matches_unpruned(name, monkeypatch):
    # apply_K and apply_P on one batch through the kernel integrand, in closed
    # form or in the FormValue algebra: within 1e-13 of the batch maximum of
    # the integrand evaluated on every ok row at once, and exactly 0 on dead
    # rows (the cone point, z, past x_end)
    v = VARIETIES[name]
    N = v.ambient_dim
    z = surface_point_with_norm(v, 0.5, seed=4)
    pts = np.vstack([_straddling_batch(v, 6000).positions, np.zeros((1, N)), z])
    batch = PointBatch(v, pts, np.ones(len(pts)), v.minors(pts))
    x = np.sum(np.abs(pts) ** 2, -1)
    for lo, hi in ((0.0, CFG.rho1), (CFG.rho1, 0.95 * CFG.rho2),
                   (0.95 * CFG.rho2, CFG.rho2), (CFG.rho2, 2.0)):
        assert np.sum((lo**2 < x) & (x < hi**2)) > 100
    ok = (batch.norms() > O._TINY) & (batch.dist(z) > O._TINY)
    assert not np.all(ok)
    # P on (0,0) inputs, K on (0,1) inputs and K on a (0,2) input, which
    # takes the FormValue algebra on a surface
    bump = TestForm.zbar_bump(N, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
    cases = [(O.apply_P, phi, _unpruned_p) for phi in (bump, TestForm.constant(N))]
    cases += [(O.apply_K, phi, _unpruned_k)
              for phi in (bump.dbar(), TestForm.one_form_bump(N, 1, 0, 1.1, 1.6),
                          TestForm.one_form_bump(N, 0, 1, 1.1, 1.6).dbar())]
    outs = _on_batch(monkeypatch, batch)
    for apply, phi, kernel in cases:
        apply(v, phi, z, CFG, PLAN)
        subsets = O.output_subsets(N, max(phi.q - 1, 0))
        want = _unpruned_integrand(v, phi, z, subsets, kernel, batch)
        live = ok & (x < O._x_end(CFG, phi))
        assert np.sum(live) > O._BLOCK and np.any(want)
        assert np.max(np.abs(outs[-1] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(outs[-1][~live] == 0)


def test_form_path_evaluates_the_input_on_live_rows_in_blocks(monkeypatch):
    # the FormValue path takes phi on the live rows only, at most _BLOCK rows
    # per call
    v = A1
    z = surface_point_with_norm(v, 0.5, seed=4)
    batch = _straddling_batch(v, 6000)
    calls = []
    form_value = TestForm.form_value

    def recorded(self, pts):
        calls.append(pts)
        return form_value(self, pts)

    monkeypatch.setattr(TestForm, "form_value", recorded)
    _on_batch(monkeypatch, batch)
    phi = TestForm.one_form_bump(3, 0, 1, 1.1, 1.6).dbar()
    O.apply_K(v, phi, z, CFG, PLAN)
    x = np.sum(np.abs(batch.positions) ** 2, -1)
    live = (x < O._x_end(CFG, phi)) & (batch.dist(z) > O._TINY)
    assert len(calls) > 1 and max(len(c) for c in calls) <= O._BLOCK
    assert np.array_equal(np.vstack(calls), batch.positions[live])


def test_surfaces_take_k_and_p_without_the_form_algebra(monkeypatch):
    # the closed form never wedges; K on a (0,2) input and K and P on a
    # threefold still go through the FormValue algebra
    wedges = []
    wedge = FormValue.wedge

    def counted(self, other):
        wedges.append(1)
        return wedge(self, other)

    monkeypatch.setattr(FormValue, "wedge", counted)
    plan = SamplingPlan(samples=2000)
    for v in (A1, get_variety("ci22"), hyperplane(4)):
        N = v.ambient_dim
        z = surface_point_with_norm(v, 0.5, seed=4)
        bump = TestForm.zbar_bump(N, 0, 0.6 * CFG.rho2, 0.95 * CFG.rho2)
        O.apply_P(v, bump, z, CFG, plan)
        O.apply_K(v, bump.dbar(), z, CFG, plan)
        assert bool(wedges) == (v.dim != 2)
    O.apply_K(A1, TestForm.one_form_bump(3, 0, 1, 1.1, 1.6).dbar(),
              surface_point_with_norm(A1, 0.5, seed=4), CFG, plan)
    assert wedges


def test_surface_densities_take_sigma_at_the_safe_point_within_rho1():
    # gamma = 0 within rho1, where sigma is taken at weight_g's safe zeta_s:
    # a row with conj(zeta) . (zeta - z) = 0 raises no PoleError
    z = np.array([0.5, 0.0, 0.0], dtype=complex)
    zeta = np.array([[0.25, 0.25, 0.0]], dtype=complex)
    m = HP.minors(zeta)
    msq = np.sum(np.abs(m) ** 2, -1)
    x = np.sum(np.abs(zeta) ** 2, -1)
    for density, phi in ((K.surface_density_K, {(0,): np.ones(1)}),
                         (K.surface_density_P, {(): np.ones(1)})):
        assert np.all(np.isfinite(density(HP, zeta, x, z, CFG, m, msq, phi)))


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
