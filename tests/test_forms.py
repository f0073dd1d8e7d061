import itertools

import numpy as np
import pytest

from conekop.forms import (
    DegreeOverflowError,
    FormValue,
    TestForm,
    UniverseMismatchError,
    WrongDegreeError,
    _volume_constant,
)
from conekop.kernels import structure_form
from conekop.sampling import default_chart, frames_for, solve_fiber
from conekop.varieties import MultiIndexPoly, catalog_names, get_variety

N = 3
TWO_PI_I = 2j * np.pi


def e(j, c=1.0):
    return FormValue.generator(N, "e", j, c)


def a(j, c=1.0):
    return FormValue.generator(N, "a", j, c)


def random_form(rng, nterms=6):
    f = FormValue.zero(N)
    for _ in range(nterms):
        mask = int(rng.integers(0, 1 << (3 * N)))
        c = complex(rng.standard_normal(), rng.standard_normal())
        f = f + FormValue(N, {mask: c})
    return f


def random_homogeneous(rng, deg):
    f = FormValue.zero(N)
    for _ in range(8):
        gens = rng.choice(3 * N, size=deg, replace=False)
        mask = 0
        for g in gens:
            mask |= 1 << int(g)
        f = f + FormValue(N, {mask: complex(rng.standard_normal(),
                                            rng.standard_normal())})
    return f


def as_dict(f):
    return {m: complex(c) for m, c in f.terms.items() if abs(complex(c)) > 1e-15}


def test_wedge_anticommutes():
    lhs = e(0).wedge(e(1))
    rhs = e(1).wedge(e(0))
    assert as_dict(lhs) == as_dict((-1.0) * rhs)


def test_wedge_unit():
    one = FormValue.scalar(N, 1.0)
    u = e(0) + a(2, 0.5j)
    assert as_dict(one.wedge(u)) == as_dict(u)


def test_square_of_odd_element_vanishes():
    u = e(0) + a(0)
    assert as_dict(u.wedge(u)) == {}


def test_graded_anticommutativity_random():
    rng = np.random.default_rng(0)
    for deg_u in (1, 2):
        for deg_v in (1, 2, 3):
            u = random_homogeneous(rng, deg_u)
            v = random_homogeneous(rng, deg_v)
            sign = (-1.0) ** (deg_u * deg_v)
            diff = u.wedge(v) + (-sign) * v.wedge(u)
            assert max((abs(complex(c)) for c in diff.terms.values()), default=0.0) < 1e-12


def test_wedge_associative_random():
    rng = np.random.default_rng(4)
    u, v, w = (random_form(rng, 4) for _ in range(3))
    lhs = u.wedge(v).wedge(w)
    rhs = u.wedge(v.wedge(w))
    diff = lhs + (-1.0) * rhs
    assert max((abs(complex(c)) for c in diff.terms.values()), default=0.0) < 1e-12


def test_contract_single_generator():
    eta = np.array([2.0, -1.0 + 1j, 0.5])
    for j in range(N):
        out = e(j).contract_eta(eta)
        assert as_dict(out) == {0: TWO_PI_I * eta[j]}
    # contraction ignores antiholomorphic generators
    assert as_dict(a(1).contract_eta(eta)) == {}


def test_contract_is_antiderivation():
    rng = np.random.default_rng(1)
    eta = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    for deg_u in (1, 2):
        u = random_homogeneous(rng, deg_u)
        v = random_homogeneous(rng, 2)
        lhs = u.wedge(v).contract_eta(eta)
        rhs = u.contract_eta(eta).wedge(v) + ((-1.0) ** deg_u) * u.wedge(
            v.contract_eta(eta))
        diff = lhs + (-1.0) * rhs
        assert max((abs(complex(c)) for c in diff.terms.values()), default=0.0) < 1e-10


def test_contract_squares_to_zero():
    rng = np.random.default_rng(2)
    eta = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    u = random_form(rng, 10)
    dd = u.contract_eta(eta).contract_eta(eta)
    assert max((abs(complex(c)) for c in dd.terms.values()), default=0.0) < 1e-10


def test_bidegree_partition():
    rng = np.random.default_rng(3)
    u = random_form(rng, 12)
    total = FormValue.zero(N)
    for k in range(N + 1):
        total = total + u.bidegree_part(k)
    diff = total + (-1.0) * u
    assert max((abs(complex(c)) for c in diff.terms.values()), default=0.0) == 0.0
    assert as_dict(u.bidegree_part(1).wedge(FormValue.scalar(N, 1.0))) == as_dict(
        u.bidegree_part(1))


def test_extract_top_roundtrip():
    rng = np.random.default_rng(5)
    evol = e(0).wedge(e(1)).wedge(e(2))
    for _ in range(10):
        mask = 0
        for g in rng.choice(2 * N, size=int(rng.integers(0, 3)), replace=False):
            mask |= 1 << (N + int(g))
        kappa = FormValue(N, {mask: complex(rng.standard_normal(),
                                            rng.standard_normal())})
        back = evol.wedge(kappa).extract_top_eta()
        diff = back + (-1.0) * kappa
        assert max((abs(complex(c)) for c in diff.terms.values()), default=0.0) < 1e-14


def test_extract_top_scalar_and_simple():
    evol = e(0).wedge(e(1)).wedge(e(2))
    u = evol.wedge(a(0, 5.0))
    assert as_dict(u.extract_top_eta()) == {1 << N: 5.0}
    assert as_dict(evol.extract_top_eta()) == {0: 1.0}


def test_extract_top_wrong_degree():
    with pytest.raises(WrongDegreeError):
        e(0).wedge(e(1)).extract_top_eta()


def test_universe_mismatch():
    with pytest.raises(UniverseMismatchError):
        FormValue.scalar(2, 1.0).wedge(FormValue.scalar(3, 1.0))


def _volume_form(n, frames_shape=1):
    # ambient volume form of the flat chart spanned by e_0, e_1
    c_vol = (0.5j) ** n * (-1.0 if (n * (n - 1) // 2) & 1 else 1.0)
    f = FormValue(N, {0b11: c_vol})  # e_0 ^ e_1
    f = f.wedge(FormValue(N, {0b11 << N: 1.0}))  # a_0 ^ a_1
    return f


def frame_plucker(frames):
    """Reference Plücker coordinates det F[:, A] from explicit frame rows."""
    n, N_ = np.shape(frames)[-2:]
    return {sum(1 << j for j in A): np.linalg.det(frames[..., list(A)])
            for A in itertools.combinations(range(N_), n)}


def identity_plucker(batch):
    frames = np.zeros((batch, 2, N), dtype=complex)
    frames[:, 0, 0] = 1.0
    frames[:, 1, 1] = 1.0
    return frame_plucker(frames)


def test_pullback_volume_normalization():
    dens = _volume_form(2).pullback_surface(identity_plucker(4))
    assert np.allclose(dens[0], 1.0)


def test_pullback_subtop_degree_vanishes():
    u = FormValue(N, {0b11: 1.0}).wedge(a(0))  # zeta-bidegree (2, 1)
    assert u.pullback_surface(identity_plucker(2)) == {}


def test_pullback_overflow_error():
    u = a(0).wedge(a(1)).wedge(a(2))
    with pytest.raises(DegreeOverflowError):
        u.pullback_surface(identity_plucker(1))


def test_pullback_unitary_frame_invariance():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, _ = np.linalg.qr(m)
    frames = np.stack([q[:2].conj() for _ in range(3)])
    u = _volume_form(2)
    dens = u.pullback_surface(frame_plucker(np.stack([np.eye(N)[:2] for _ in range(3)])))
    assert np.allclose(dens[0], 1.0)
    # the ambient volume sum_A c_vol e_A ^ a_A restricts to the induced
    # volume of every plane, so the rotated frame also gives 1
    c_vol = (0.5j) ** 2 * -1.0
    ambient = FormValue(N, {mask | mask << N: c_vol for mask in (0b011, 0b101, 0b110)})
    dens = ambient.pullback_surface(frame_plucker(frames))
    assert np.allclose(dens[0], 1.0)


@pytest.mark.parametrize("name", catalog_names())
def test_minors_pullback_matches_frame_determinants(name):
    # the Hodge duality that kernels.density_K and _P read omega by: on the
    # tangent plane, sum_A omega_A p_A = 1/|m| and conj(p_B) = |m| omega_B, so
    # the pullback of omega ^ c a_B ^ (dz-bar) through det F[:, A] of the SVD
    # frame rows has density c omega_B / c_vol.  On a random dzeta-free kappa
    # with several dz-bar keys and some terms of zeta-bar degree n - 1, which
    # vanish on X
    v = get_variety(name)
    Nv, n = v.ambient_dim, v.dim
    rng = np.random.default_rng(31)
    bases = rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))
    pts, valid = solve_fiber(v, default_chart(v), bases)
    sel = pts[valid]
    subsets = [sum(1 << j for j in A) for A in itertools.combinations(range(Nv), n)]
    terms = {}
    for _ in range(12):
        B = int(rng.choice(subsets))
        if rng.random() < 0.2:
            B &= B - 1
        C = 0 if rng.random() < 0.3 else 1 << int(rng.integers(Nv))
        mask = B << Nv | C << 2 * Nv
        terms[mask] = rng.standard_normal(len(sel)) + 1j * rng.standard_normal(len(sel))
    kappa = FormValue(Nv, terms)
    omega = structure_form(v, sel, v.minors(sel))
    got = {}
    for mask, c in kappa.terms.items():
        B = mask >> Nv & ((1 << Nv) - 1)
        if B.bit_count() == n:
            dens = c * omega.terms[B] / _volume_constant(n)
            got[mask >> 2 * Nv] = got.get(mask >> 2 * Nv, 0) + dens
    want = omega.wedge(kappa).pullback_surface(frame_plucker(frames_for(v, sel)))
    assert set(got) == set(want) and len(want) > 1
    for key, w in want.items():
        assert np.max(np.abs(got[key] - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("name", catalog_names())
def test_projector_norm_matches_frame_coefficients(name, q):
    # the norm of a (0,q) form on the tangent planes two ways: from its
    # coefficients c_K = sum_I c_I det conj(F)[K, I] in the coframe of the
    # SVD tangent frame F, and by Cauchy-Binet from the q x q minors of the
    # projector P = I - J^H (J J^H)^-1 J of the Jacobian alone.  So the
    # q x q minors of frames_for (its Plücker coordinates at q = n) are
    # those of the tangent planes
    v = get_variety(name)
    Nv, n = v.ambient_dim, v.dim
    rng = np.random.default_rng(32 + q)
    bases = rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))
    pts, valid = solve_fiber(v, default_chart(v), bases)
    sel = pts[valid]
    subsets = list(itertools.combinations(range(Nv), q))
    coeffs = [rng.standard_normal(len(sel)) + 1j * rng.standard_normal(len(sel))
              for _ in subsets]
    fr = np.conj(frames_for(v, sel))
    tot = 0.0
    for K in itertools.combinations(range(n), q):
        cK = sum(c * np.linalg.det(fr[:, list(K)][..., list(I)])
                 for I, c in zip(subsets, coeffs))
        tot = tot + np.abs(cK) ** 2
    want = np.sqrt(np.sqrt(2.0) ** q * tot)
    J = v.jacobian(sel)
    JH = np.conj(np.swapaxes(J, -1, -2))
    P = np.eye(Nv) - JH @ np.linalg.solve(J @ JH, J)
    got = 0.0
    for I, cI in zip(subsets, coeffs):
        for K, cK in zip(subsets, coeffs):
            minor = np.linalg.det(P[..., list(K), :][..., list(I)])
            got = got + np.sqrt(2.0) ** q * cI * np.conj(cK) * minor
    got = np.sqrt(np.maximum(np.real(got), 0.0))
    tol = 1e-12 if q <= 1 else 1e-10
    assert np.max(np.abs(got - want)) <= tol * np.max(want)


@pytest.mark.parametrize("maker", [
    lambda: TestForm.zbar_bump(N, 0, 0.6, 1.1),
    lambda: TestForm.one_form_bump(N, 0, 1, 0.5, 1.0),
    lambda: TestForm.radial_bump(N, 0.4, 0.9),
])
def test_testform_gradient_check(maker):
    # finite-difference dbar of the coefficients matches the closed form
    tf = maker()
    d = tf.dbar()
    rng = np.random.default_rng(12)
    pts = 0.45 * (rng.standard_normal((30, N)) + 1j * rng.standard_normal((30, N)))
    h = 1e-5
    closed = d.eval(pts)
    for newI in closed:
        fd_total = np.zeros(pts.shape[0], dtype=complex)
        for pos, j in enumerate(newI):
            rest = newI[:pos] + newI[pos + 1:]
            if rest not in tf.coeffs:
                continue
            sgn = (-1.0) ** pos
            ej = np.zeros(N, complex)
            ej[j] = 1.0
            fp = tf.eval(pts + h * ej)[rest]
            fm = tf.eval(pts - h * ej)[rest]
            gp = tf.eval(pts + 1j * h * ej)[rest]
            gm = tf.eval(pts - 1j * h * ej)[rest]
            fd_total += sgn * ((fp - fm) + 1j * (gp - gm)) / (4 * h)
        scale = max(float(np.max(np.abs(closed[newI]))), 1e-6)
        assert np.max(np.abs(fd_total - closed[newI])) < 1e-6 * max(scale, 1.0)


def test_polynomial_in_zeta_zetabar_is_bit_identical_to_interleaved_loop():
    # factors multiply as zeta_0, zeta_bar_0, zeta_1, ...: the order of the
    # loop before eval_monomials, kept here.  Complex products are not
    # associative bit for bit, so taking all zeta factors first would differ.
    # The two terms differ in degree, so each is its own coefficient monomial.
    terms = {((2, 1, 0), (1, 0, 3)): 0.7 - 1.3j,
             ((0, 1, 2), (1, 2, 0)): -0.4 + 2.1j}
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    zb = np.conj(pts)
    want = 0.0
    for (ez, ezb), c in terms.items():
        term = c * np.ones(len(pts), dtype=complex)
        for j in range(3):
            if ez[j]:
                term = term * pts[:, j] ** ez[j]
            if ezb[j]:
                term = term * zb[:, j] ** ezb[j]
        want = want + term
    monomials = [(MultiIndexPoly(6, np.ravel(np.column_stack(e)), [c]), 0)
                 for e, c in terms.items()]
    tf = TestForm(3, 0, {(): monomials}, None)
    assert np.array_equal(tf.eval_scalar(pts), want)


def test_testform_holomorphic_has_zero_dbar():
    tf = TestForm.holomorphic_monomial(N, [1, 1, 0])
    assert tf.window is None
    d = tf.dbar()
    pts = np.array([[0.3, 0.4, 0.1]], dtype=complex)
    assert all(np.allclose(v, 0.0) for v in d.eval(pts).values())
