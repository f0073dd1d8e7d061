"""Affine cones over smooth projective complete intersections.

A variety is cut out of C^N by a tuple of homogeneous polynomials.  This
module evaluates the tuple, its Jacobian and minors, produces divided
difference coefficients relating values at two points (the exactness data the
kernel construction needs), and exposes the degree-based exponent thresholds
that govern the mapping properties of the integral operators.

All evaluation routines are vectorized: points may be passed as a single
complex N-vector or as an array of shape (batch, N).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MultiIndexPoly",
    "ConeVariety",
    "Thresholds",
    "DegenerateExponentError",
    "NearSingularError",
    "catalog_names",
    "eval_monomials",
    "get_variety",
    "hyperplane",
    "minor_complements",
    "row_norm",
    "row_norm_sq",
    "variety_from_json",
]


FRAME_TOL = 1e-8
# largest degree a custom variety may have: the fiber solver forms d + 1
# coefficients and d x d root-finding matrices per base point
MAX_DEGREE = 32


class DegenerateExponentError(ValueError):
    """The pole degree d - nu reaches 2n, outside the operator hypotheses."""


class NearSingularError(RuntimeError):
    """Tangent data requested where the minors norm is too small to trust."""


def row_norm_sq(x) -> np.ndarray:
    """Squared Euclidean norms |x|^2 along the last axis.

    np.sum adds fewer than 8 terms one after another, so for a last axis of
    length 1 to 7 the column sums give its bits, faster.
    """
    a = np.abs(x) ** 2
    N = a.shape[-1]
    if not 0 < N < 8:
        return np.sum(a, axis=-1)
    return sum((a[..., j] for j in range(1, N)), a[..., 0])


def row_norm(x) -> np.ndarray:
    """Euclidean norms |x| along the last axis."""
    return np.sqrt(row_norm_sq(x))


def eval_monomials(exps, coeffs, cols) -> np.ndarray:
    """Sum over rows (e, c) of c * prod_j cols[j]^e_j.

    cols[j] holds the values of variable j, all of one shape.  Factors
    multiply in column order, so the order of cols fixes the floating-point
    result.
    """
    vals = np.zeros(np.shape(cols[0]), dtype=complex)
    for e, c in zip(exps.tolist(), coeffs):
        term = c
        for j, k in enumerate(e):
            if k:
                term = term * (cols[j] if k == 1 else cols[j] ** k)
        vals += term
    return vals


class MultiIndexPoly:
    """Homogeneous polynomial in N complex variables, sparse monomial storage.

    Test-form coefficients use it in the 2N variables (zeta_0, zeta_bar_0, ...)."""

    __slots__ = ("num_vars", "exps", "coeffs", "degree")

    def __init__(self, num_vars: int, exps, coeffs):
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, num_vars)
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        keep = coeffs != 0
        exps, coeffs = exps[keep], coeffs[keep]
        if exps.shape[0] == 0:
            raise ValueError("polynomial must have at least one nonzero term")
        if np.any(exps < 0):
            raise ValueError("negative exponents")
        degs = exps.sum(axis=1)
        if not np.all(degs == degs[0]):
            raise ValueError("polynomial is not homogeneous")
        self.num_vars = num_vars
        self.exps = exps
        self.coeffs = coeffs
        self.degree = int(degs[0])

    @classmethod
    def from_dict(cls, num_vars: int, terms: dict) -> "MultiIndexPoly":
        return cls(num_vars, list(terms.keys()), list(terms.values()))

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        return eval_monomials(self.exps, self.coeffs, np.moveaxis(pts, -1, 0))

    def partial(self, j: int) -> "MultiIndexPoly | None":
        keep = self.exps[:, j] > 0
        if not np.any(keep):
            return None
        exps = self.exps[keep].copy()
        coeffs = self.coeffs[keep] * exps[:, j]
        exps[:, j] -= 1
        return MultiIndexPoly(self.num_vars, exps, coeffs)


@dataclass(frozen=True)
class Thresholds:
    p_min: float
    p_min_w: float
    canonical: bool
    main1_applicable: bool
    main4_applicable: bool


@dataclass(frozen=True)
class ConeVariety:
    """Affine cone X = {f = 0} in C^N of codimension nu and dimension n = N - nu."""

    name: str
    ambient_dim: int
    polys: tuple
    link_regularity_margin: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim X = N - nu must be at least 1")
        for p in self.polys:
            if p.num_vars != self.ambient_dim:
                raise ValueError("polynomial arity does not match ambient_dim")
            if p.degree < 1:
                raise ValueError("defining polynomials must have degree >= 1")

    # ----- basic invariants ------------------------------------------------

    @property
    def nu(self) -> int:
        return len(self.polys)

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.nu

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.polys)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    # ----- evaluation ---------------------------------------------------

    def eval_tuple(self, pts) -> np.ndarray:
        """Values (f_1, ..., f_nu); shape (..., nu)."""
        pts = np.asarray(pts, dtype=complex)
        return np.stack([p(pts) for p in self.polys], axis=-1)

    @functools.cached_property
    def _partials(self) -> tuple:
        """p.partial(j) for each defining polynomial p and column j, built once."""
        return tuple(tuple(p.partial(j) for j in range(self.ambient_dim))
                     for p in self.polys)

    @functools.cached_property
    def _chart_plans(self) -> dict:
        """sampling's chart plans keyed by chart, and its admissible chart
        list keyed by None; filled on first use (sampling.chart_plan)."""
        return {}

    def jacobian(self, pts) -> np.ndarray:
        """Partial derivatives; shape (..., nu, N)."""
        pts = np.asarray(pts, dtype=complex)
        J = np.zeros(pts.shape[:-1] + (self.nu, self.ambient_dim), dtype=complex)
        for i, row in enumerate(self._partials):
            for j, dp in enumerate(row):
                if dp is not None:
                    J[..., i, j] = dp(pts)
        return J

    def minors(self, pts) -> np.ndarray:
        """All (nu x nu) minors of the Jacobian; shape (..., C(N, nu)).

        Column sets I run in lexicographic order, as in minor_complements.
        """
        J = self.jacobian(pts)
        if self.nu == 1:
            return J[..., 0, :]
        if self.nu > 2:
            raise NotImplementedError("codimension > 2 minors are out of scope")
        cols = itertools.combinations(range(self.ambient_dim), 2)
        return np.stack([J[..., 0, i] * J[..., 1, j] - J[..., 0, j] * J[..., 1, i]
                         for i, j in cols], axis=-1)

    def minors_norm(self, pts) -> np.ndarray:
        """Euclidean norm of the minor tuple; (d - nu)-homogeneous."""
        return row_norm(self.minors(pts))

    # ----- divided differences --------------------------------------------

    def hefer_coeffs(self, zeta, z) -> np.ndarray:
        """Coordinate-telescoping divided differences in index order 1..N.

        Returns the raw coefficients H, shape (..., nu, N); the 2 pi i of the
        interior product is applied by the kernel assembly, never here.

        For a monomial c * prod x_k^(a_k) the j-th telescoping slot picks up
        c * prod_{k<j} z_k^(a_k) * (sum_t zeta_j^t z_j^(a_j-1-t)) * prod_{k>j} zeta_k^(a_k),
        which is bihomogeneous of total degree d_i - 1 and exactly restores
        f_i(zeta) - f_i(z) after contraction with zeta - z.  A single point z
        (shape (N,)) enters as N scalars, and factors zeta_k^0 are skipped.
        """
        zeta = np.asarray(zeta, dtype=complex)
        z = np.asarray(z, dtype=complex)
        N = self.ambient_dim
        shape = np.broadcast_shapes(zeta.shape, z.shape)[:-1]
        # for a single point z, z[..., j] is a zero-dimensional array: a
        # scalar whose powers round as an array's do
        zeta_c = [zeta[..., j] for j in range(N)]
        z_c = [z[..., j] for j in range(N)]
        H = np.zeros(shape + (self.nu, N), dtype=complex)
        for i, p in enumerate(self.polys):
            for e, c in zip(p.exps.tolist(), p.coeffs):
                # suffix[j] = prod_{k>j} zeta_k^(a_k), built backwards once
                suffix = [1.0]
                for k in range(N - 1, 0, -1):
                    s = suffix[0]
                    if e[k]:
                        s = s * zeta_c[k] ** e[k]
                    suffix.insert(0, s)
                prefix = c
                for j, a in enumerate(e):
                    if a > 0:
                        # divided difference of the single-variable power
                        dd = z_c[j] ** (a - 1)
                        for t in range(1, a):
                            dd = dd + zeta_c[j] ** t * z_c[j] ** (a - 1 - t)
                        H[..., i, j] += prefix * dd * suffix[j]
                        prefix = prefix * z_c[j] ** a
        return H

    # ----- thresholds ----------------------------------------------------

    def thresholds(self) -> Thresholds:
        n = self.dim
        d = self.total_degree
        nu = self.nu
        if d - nu >= 2 * n:
            raise DegenerateExponentError(
                f"d - nu = {d - nu} >= 2n = {2 * n}: integrability threshold undefined"
            )
        p_min = 2 * n / (2 * n - (d - nu))
        denom_w = 2 * n - (d - nu + 1)
        p_min_w = math.inf if denom_w <= 0 else 2 * n / denom_w
        return Thresholds(
            p_min=p_min,
            p_min_w=p_min_w,
            canonical=(d <= self.ambient_dim - 1),
            main1_applicable=(d <= 2 * n + nu - 1),
            main4_applicable=(d < 2 * n + nu - 1),
        )

    # ----- regularity of the link ------------------------------------------

    def with_link_margin(self, margin: float) -> "ConeVariety":
        return ConeVariety(self.name, self.ambient_dim, self.polys, margin)


def _require_regular(v: ConeVariety, x, minors_norm: np.ndarray):
    """Raise NearSingularError where |m| <= FRAME_TOL |zeta|^(d - nu), x = |zeta|^2."""
    nrm = np.sqrt(x)
    thresh = FRAME_TOL * np.maximum(nrm, 1e-300) ** (v.total_degree - v.nu)
    if np.any(minors_norm <= thresh):
        raise NearSingularError("tangent plane requested too close to the branch locus")


@functools.lru_cache(maxsize=None)
def minor_complements(N: int, nu: int) -> tuple[tuple[int, int], ...]:
    """Hodge-dual bookkeeping of the Jacobian minors, in the order of minors().

    For each column set I of a (nu x nu) minor: the bit mask of the
    complementary n-subset I^c and the sign of the permutation (I, I^c) of
    (0..N-1).
    """
    out = []
    for I in itertools.combinations(range(N), nu):
        comp = [j for j in range(N) if j not in I]
        inv = sum(1 for i in I for j in comp if i > j)
        out.append((sum(1 << j for j in comp), -1 if inv & 1 else 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _fermat(d: int) -> ConeVariety:
    terms = {}
    for j in range(3):
        e = [0, 0, 0]
        e[j] = d
        terms[tuple(e)] = 1.0
    poly = MultiIndexPoly.from_dict(3, terms)
    return ConeVariety(f"fermat{d}", 3, (poly,))


def hyperplane(ambient_dim: int = 3) -> ConeVariety:
    """The flat model {z_N = 0} in C^N; the catalog entry is N = 3."""
    poly = MultiIndexPoly.from_dict(ambient_dim, {(0,) * (ambient_dim - 1) + (1,): 1.0})
    name = "hyperplane" if ambient_dim == 3 else f"hyperplane{ambient_dim}"
    return ConeVariety(name, ambient_dim, (poly,))


def _ci22() -> ConeVariety:
    # pencil of diagonal quadrics in C^4 with distinct eigenvalues: the
    # projective intersection is a smooth genus-one curve
    f1 = MultiIndexPoly.from_dict(
        4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}
    )
    f2 = MultiIndexPoly.from_dict(
        4, {(0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 3.0}
    )
    return ConeVariety("ci22", 4, (f1, f2))


_FERMAT_RE = re.compile(r"^fermat([0-9]+)$")


def catalog_names() -> list[str]:
    return ["hyperplane", "a1", "fermat2", "fermat3", "fermat4", "ci22"]


def get_variety(name: str) -> ConeVariety:
    """Look up a catalog variety by name.

    Raises KeyError with an explanatory message for names outside the
    catalog, including fermat degrees violating the low-degree hypothesis.
    """
    if name == "hyperplane":
        return hyperplane()
    if name == "a1":
        v = _fermat(2)
        return ConeVariety("a1", 3, v.polys)
    m = _FERMAT_RE.match(name)
    if m:
        d = int(m.group(1))
        if d not in (2, 3, 4):
            raise KeyError(
                f"fermat{d} is not in the catalog: degree d={d} violates "
                f"d <= 2n + nu - 1 = 4 for surfaces in C^3"
            )
        return _fermat(d)
    if name == "ci22":
        return _ci22()
    raise KeyError(f"unknown variety {name!r}; catalog: {', '.join(catalog_names())}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _key(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f"{what} lacks the key {key!r}")
    return obj[key]


def variety_from_json(path_or_obj) -> ConeVariety:
    """Load a custom variety from a JSON document.

    Schema: {"ambient_dim": int, "polys": [[{"exp": [int...], "re": float,
    "im": float}, ...], ...], "name": optional str}.  Malformed documents
    raise ValueError; polys must hold one or two polynomials, the
    codimensions the fiber solver handles, of degree at most MAX_DEGREE.
    """
    if isinstance(path_or_obj, (str,)):
        with open(path_or_obj) as fh:
            obj = json.load(fh)
    else:
        obj = path_or_obj
    if not isinstance(obj, dict):
        raise ValueError("variety JSON must be an object")
    N = _key(obj, "ambient_dim", "variety JSON")
    if not _is_int(N) or N < 1:
        raise ValueError(f"ambient_dim must be a positive integer, got {N!r}")
    specs = _key(obj, "polys", "variety JSON")
    if not isinstance(specs, list) or len(specs) not in (1, 2):
        raise ValueError("polys must be a list of one or two polynomials")
    polys = []
    for spec in specs:
        if not isinstance(spec, list) or not all(isinstance(t, dict) for t in spec):
            raise ValueError(f"a polynomial must be a list of term objects, "
                             f"got {spec!r}")
        terms = {}
        for t in spec:
            exp = _key(t, "exp", f"term {t!r}")
            if not isinstance(exp, list) or not all(_is_int(e) for e in exp):
                raise ValueError(f"exp must be a list of integers, got {exp!r}")
            exp = tuple(exp)
            if len(exp) != N:
                raise ValueError("exponent vector length does not match ambient_dim")
            if min(exp, default=0) < 0 or sum(exp) > MAX_DEGREE:
                raise ValueError(f"exp {list(exp)} must be nonnegative with degree "
                                 f"at most {MAX_DEGREE}")
            parts = (t.get("re", 0.0), t.get("im", 0.0))
            # NaN, infinities and ints beyond double range fail the bound
            if any(isinstance(x, bool) or not isinstance(x, (int, float))
                   or not abs(x) <= sys.float_info.max for x in parts):
                raise ValueError(f"coefficient parts must be finite numbers, got {parts}")
            terms[exp] = terms.get(exp, 0.0) + complex(*parts)
        for exp, c in terms.items():
            if not np.isfinite(c):
                raise ValueError(f"the coefficients of monomial {list(exp)} sum "
                                 f"to {c}, not a finite number")
        polys.append(MultiIndexPoly.from_dict(N, terms))
    name = obj.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    return ConeVariety(name, N, tuple(polys))
