import json

import numpy as np
import pytest

from conekop.varieties import (
    ConeVariety,
    DegenerateExponentError,
    MultiIndexPoly,
    catalog_names,
    eval_monomials,
    get_variety,
    hyperplane,
    row_norm_sq,
    variety_from_json,
)
from conekop.sampling import attach_link_margin
import unit_reference

CATALOG = [get_variety(n) for n in ("hyperplane", "a1", "fermat3", "fermat4", "ci22")]


def _random_points(rng, n, N):
    return rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))


def test_eval_tuple_a1_isotropic_point():
    a1 = get_variety("a1")
    assert a1.eval_tuple(np.array([1.0, 1j, 0.0]))[0] == pytest.approx(0.0)


def test_eval_tuple_hyperplane_reads_coordinate():
    hp = get_variety("hyperplane")
    assert hp.eval_tuple(np.array([5.0, 7.0, 2.0]))[0] == pytest.approx(2.0)


def test_eval_tuple_fermat3_direct_sum():
    f3 = get_variety("fermat3")
    assert f3.eval_tuple(np.array([1.0, 1.0, 1.0]))[0] == pytest.approx(3.0)


def test_poly_evaluation_is_bit_identical_to_monomial_loop():
    # a dense quartic with complex coefficients against the loop that
    # MultiIndexPoly.__call__ ran before it shared eval_monomials
    rng = np.random.default_rng(4)
    terms = {(a, b, 4 - a - b): complex(rng.standard_normal(), rng.standard_normal())
             for a in range(5) for b in range(5 - a)}
    p = MultiIndexPoly.from_dict(3, terms)
    pts = _random_points(rng, 500, 3)
    want = np.zeros(500, dtype=complex)
    for e, c in zip(p.exps, p.coeffs):
        term = np.full(500, c)
        for j in range(3):
            if e[j]:
                term = term * pts[:, j] ** int(e[j])
        want += term
    assert np.array_equal(p(pts), want)


@pytest.mark.parametrize("shape", [(9_000, N) for N in range(1, 10)] + [
    (2_000, 4, 4, 2),  # the sheet gaps of a nu = 2 fiber, t[:, :, None] - t[:, None, :]
    (9_000, 3, 1),     # residuals f(pts) on the nu-length axis
    (9_000, 4, 2),
    (3,),
], ids=lambda shape: "x".join(map(str, shape)))
def test_row_norm_sq_is_bit_identical_to_np_sum(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x *= np.exp(rng.uniform(-30.0, 30.0, shape))
    got = row_norm_sq(x)
    assert got.shape == shape[:-1]
    assert np.array_equal(got, np.sum(np.abs(x) ** 2, axis=-1))
    assert np.array_equal(row_norm_sq(x.real), np.sum(x.real ** 2, axis=-1))


@pytest.mark.parametrize("rows", [5, 9_000], ids=["short", "long"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_eval_monomials_is_bit_identical_to_the_formula(rows, real):
    # exponents 0, 1 and >= 2, a constant monomial and a repeated power, on
    # strided columns (the rows of bases.T, as the fiber solve passes them)
    # longer than numpy's 8,192-element buffer
    rng = np.random.default_rng(rows + real)
    exps = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 2], [3, 1, 0], [0, 0, 1], [2, 2, 2]])
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    bases = _random_points(rng, rows, 3)
    bases = bases.real.copy() if real else bases
    cols = bases.T
    assert not cols[0].flags.contiguous
    got = eval_monomials(exps, coeffs, cols)
    assert np.array_equal(got, unit_reference.eval_monomials(exps, coeffs, cols))
    assert np.array_equal(eval_monomials(exps[:1], coeffs[:1], cols),
                          np.full(rows, coeffs[0]))


@pytest.mark.parametrize("v", CATALOG + [hyperplane(4)], ids=lambda v: v.name)
def test_jacobian_is_bit_identical_to_the_stacked_rows(v):
    rng = np.random.default_rng(v.ambient_dim)
    pts = _random_points(rng, 9_000, v.ambient_dim).reshape(3_000, 3, v.ambient_dim)
    got = v.jacobian(pts)
    assert got.shape == (3_000, 3, v.nu, v.ambient_dim)
    assert np.array_equal(got, unit_reference.jacobian(v, pts))


def test_jacobian_quadric_gradient():
    a1 = get_variety("a1")
    J = a1.jacobian(np.array([1.0, 2.0, 3.0], dtype=complex))
    assert np.allclose(J, [[2.0, 4.0, 6.0]])


def test_jacobian_hyperplane_constant():
    hp = get_variety("hyperplane")
    J = hp.jacobian(np.array([9.0, -4.0, 1.5], dtype=complex))
    assert np.allclose(J, [[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("v", CATALOG, ids=lambda v: v.name)
def test_euler_identity(v):
    rng = np.random.default_rng(11)
    pts = _random_points(rng, 1000, v.ambient_dim)
    J = v.jacobian(pts)
    lhs = np.einsum("bj,bij->bi", pts, J)
    rhs = v.eval_tuple(pts) * np.array(v.degrees)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, float(np.max(np.abs(rhs))))


def test_minors_norm_a1_value():
    a1 = get_variety("a1")
    got = a1.minors_norm(np.array([1.0, 2.0, 3.0], dtype=complex))
    assert got == pytest.approx(2.0 * np.sqrt(14.0), rel=1e-12)


def test_minors_norm_vanishes_at_origin_when_degree_exceeds_codim():
    for v in CATALOG:
        if v.total_degree > v.nu:
            assert v.minors_norm(np.zeros(v.ambient_dim, dtype=complex)) == 0.0


@pytest.mark.parametrize("lam", [2.0, 1.0 + 1.0j, 0.1])
@pytest.mark.parametrize("v", CATALOG, ids=lambda v: v.name)
def test_minors_norm_homogeneity(v, lam):
    rng = np.random.default_rng(3)
    pts = _random_points(rng, 50, v.ambient_dim)
    ratio = v.minors_norm(lam * pts) / v.minors_norm(pts)
    expected = abs(lam) ** (v.total_degree - v.nu)
    assert np.max(np.abs(ratio - expected)) < 1e-12 * expected


def test_hefer_quadric_closed_form():
    a1 = get_variety("a1")
    rng = np.random.default_rng(5)
    ze = _random_points(rng, 20, 3)
    zz = _random_points(rng, 20, 3)
    H = a1.hefer_coeffs(ze, zz)
    assert np.allclose(H[:, 0, :], ze + zz, atol=1e-12)


def test_hefer_hyperplane_constant():
    hp = get_variety("hyperplane")
    H = hp.hefer_coeffs(np.ones(3, dtype=complex), np.zeros(3, dtype=complex))
    assert np.allclose(H, [[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("v", CATALOG, ids=lambda v: v.name)
def test_hefer_exactness(v):
    rng = np.random.default_rng(7)
    ze = _random_points(rng, 1000, v.ambient_dim)
    zz = _random_points(rng, 1000, v.ambient_dim)
    H = v.hefer_coeffs(ze, zz)
    lhs = np.einsum("bj,bij->bi", ze - zz, H)
    rhs = v.eval_tuple(ze) - v.eval_tuple(zz)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, float(np.max(np.abs(rhs))))


def test_thresholds_a1():
    th = get_variety("a1").thresholds()
    assert th.p_min == pytest.approx(4.0 / 3.0)
    assert th.p_min_w == pytest.approx(2.0)
    assert th.canonical and th.main1_applicable and th.main4_applicable


def test_thresholds_fermat4_boundary():
    th = get_variety("fermat4").thresholds()
    assert th.p_min == pytest.approx(4.0)
    assert th.p_min_w == np.inf
    assert th.main1_applicable and not th.main4_applicable
    assert not th.canonical


def test_thresholds_hyperplane():
    th = get_variety("hyperplane").thresholds()
    assert th.p_min == pytest.approx(1.0)
    assert th.canonical


def test_thresholds_degenerate_exponent():
    quintic = MultiIndexPoly.from_dict(
        3, {(5, 0, 0): 1.0, (0, 5, 0): 1.0, (0, 0, 5): 1.0}
    )
    v = ConeVariety("quintic", 3, (quintic,))
    with pytest.raises(DegenerateExponentError):
        v.thresholds()


def test_poly_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        MultiIndexPoly.from_dict(2, {(1, 0): 1.0, (2, 0): 1.0})


def test_catalog_names_and_unknown():
    assert "a1" in catalog_names()
    with pytest.raises(KeyError):
        get_variety("fermat9")
    with pytest.raises(KeyError):
        get_variety("nonsense")


def test_variety_from_json_roundtrip(tmp_path):
    doc = {
        "ambient_dim": 3,
        "polys": [[
            {"exp": [2, 0, 0], "re": 1.0, "im": 0.0},
            {"exp": [0, 2, 0], "re": 1.0, "im": 0.0},
            {"exp": [0, 0, 2], "re": 1.0, "im": 0.0},
        ]],
    }
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    v = variety_from_json(str(path))
    assert v.ambient_dim == 3 and v.nu == 1 and v.total_degree == 2
    assert v.eval_tuple(np.array([1.0, 1j, 0.0]))[0] == pytest.approx(0.0)


def test_link_margin_values_and_stability():
    a1 = attach_link_margin(get_variety("a1"), samples=4000, seed=1)
    assert a1.link_regularity_margin == pytest.approx(2.0, rel=1e-6)
    again = attach_link_margin(get_variety("a1"), samples=10_000, seed=99)
    ratio = again.link_regularity_margin / a1.link_regularity_margin
    assert 0.5 < ratio < 2.0
    hp = attach_link_margin(get_variety("hyperplane"), samples=2000)
    assert hp.link_regularity_margin == pytest.approx(1.0, rel=1e-9)
