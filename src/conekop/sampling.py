"""Monte Carlo quadrature on affine cones via branched-cover charts.

A chart selects n of the N ambient coordinates as a base; over a base point
the defining equations restrict to a small polynomial system in the fiber
coordinates, whose solutions are the sheets of X.  Integrals over X pull back
to base integrals weighted by the Gram volume factor of each sheet.

What depends only on the variety and a chart (the fiber table, its lacunary
step, the Gram minor's column, the cover's stretch bound) is built once per
variety object, into the chart's ChartPlan (chart_plan); so is the list of
admissible charts.

The sampler draws base points from a mixture of uniform shells centered on
the region and on declared pole centers (stratified importance sampling with
the full-mixture density in the weights, which keeps the estimator unbiased
regardless of component overlap).  Random streams are counter-based, keyed by
(seed, experiment id, stratum index), so results are reproducible and
independent of evaluation order.

The strata around one center form a chain of shells tiling [lo, hi], so the
mixture density needs one distance per chain and a bisection on its radii.
Each stratum draws in BATCH_SIZE chunks from its own stream; consecutive
chunks, across strata, are packed into work units of at most PACK_ROWS base
points, which share one fiber solve and one integrand call.  Sums still
accumulate chunk by chunk, so packing changes no result.

Before the fiber solve, a work unit drops the base rows whose sheets
provably all lie outside the region, or outside the integrand's declared
support (_may_reach).  Such a row adds exactly 0 to the sums, as it would
through the indicator or the integrand, so results are unchanged; only the
remaining rows are solved and enter the mixture density.

Past the fiber solve, whose guards take their own norms, each per-point
quantity is computed once per work unit: |zeta|^2 of the sheets serves
Region.indicator when the region is centred at 0, the minors m and |m|^2
serve gram_factors, and the PointBatch hands all three to the integrand.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .varieties import (ConeVariety, NearSingularError, _require_regular,
                        eval_monomials, minor_complements, row_norm, row_norm_sq)

__all__ = [
    "Chart",
    "Region",
    "SamplingPlan",
    "PointBatch",
    "QuadratureResult",
    "EmptyRegionError",
    "FiberDegenerateError",
    "NearSingularError",
    "admissible_charts",
    "default_chart",
    "tangent_frame",
    "integrate",
    "estimate_v",
    "surface_point_with_norm",
    "project_to_surface",
    "attach_link_margin",
]

POINT_TOL = 1e-10
BRANCH_TOL = 1e-8
# base rows per draw from a stratum's stream, and the fewest samples any
# stratum gets
BATCH_SIZE = 20_000
MIN_PER_STRATUM = 128
# base rows per work unit: consecutive small stratum chunks share one fiber
# solve and one integrand call; larger units raise the peak memory and run
# no faster
PACK_ROWS = 4096


class EmptyRegionError(ValueError):
    pass


class FiberDegenerateError(RuntimeError):
    """Projection direction tangent to the cone at infinity for this chart."""


# ---------------------------------------------------------------------------
# charts and fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """Coordinate projection: base indices parametrize, fiber indices solve."""

    base: tuple[int, ...]
    fiber: tuple[int, ...]


def _fiber_poly_coeffs(v: ConeVariety, chart: Chart):
    """For nu = 1: coefficient polynomials c_k(s) of the fiber polynomial.

    Returns a list indexed by the power of the fiber variable; entries are
    (exps over base vars, coeffs) arrays, possibly empty.
    """
    p = v.polys[0]
    k = p.exps[:, chart.fiber[0]]
    base = p.exps[:, list(chart.base)]
    return [(base[k == j], p.coeffs[k == j]) for j in range(p.degree + 1)]


def _lacunary_step(table) -> int:
    """The gcd g of the powers of t in a fiber table, so that p(t) = q(t^g)."""
    return math.gcd(*(k for k, (_, c) in enumerate(table) if np.any(c != 0)))


@dataclass(frozen=True, eq=False)
class ChartPlan:
    """The facts of one chart of one variety, built once (chart_plan).

    minor is the column of the fiber minor m_F in v.minors.  For nu = 1,
    table holds the fiber polynomial's coefficients (_fiber_poly_coeffs),
    degree its degree d, lead = |c_d| and step the gcd g of its powers of t.
    """

    variety: ConeVariety
    chart: Chart
    minor: int
    table: tuple = ()
    degree: int = 0
    lead: float = 0.0
    step: int = 0

    @property
    def binomial(self) -> bool:
        """p(t) = c_d t^d + c_0(s), g = d: the sheets have closed forms."""
        return 0 < self.step == self.degree

    @functools.cached_property
    def stretch(self) -> float:
        """Upper bound for |zeta| / |base point| over all sheets of the chart.

        Points of X with norm above r can project to base points of norm as
        low as r divided by this factor, so annulus covers must extend below
        their inner radius by it.  For nu = 1 the bound is a Cauchy root
        bound applied to the homogeneous fiber polynomial (rigorous); for
        nu = 2 it is a sampled estimate with a safety factor.
        """
        v = self.variety
        if v.nu == 1:
            d = self.degree
            C = 0.0
            for k in range(d):
                S = float(np.abs(self.table[k][1]).sum())
                if S > 0:
                    C = max(C, 2.0 * (S / self.lead) ** (1.0 / (d - k)))
            return math.sqrt(1.0 + C * C)
        bases = _complex_normal(_stream(0, f"stretch|{v.name}", 0), 512, v.dim)
        bases /= row_norm(bases)[:, None]
        pts, valid = solve_fiber(v, self.chart, bases)
        return 1.5 * float(np.max(np.where(valid, row_norm(pts), 1.0)))


def _build_chart_plan(v: ConeVariety, chart: Chart) -> ChartPlan:
    base = sum(1 << j for j in chart.base)
    minor = [mask for mask, _ in minor_complements(v.ambient_dim, v.nu)].index(base)
    if v.nu != 1:
        return ChartPlan(v, chart, minor)
    table = _fiber_poly_coeffs(v, chart)
    d = len(table) - 1
    return ChartPlan(v, chart, minor, tuple(table), d, abs(table[d][1].sum()),
                     _lacunary_step(table))


def chart_plan(v: ConeVariety, chart: Chart) -> ChartPlan:
    """The plan of chart on v, built on first use and kept on v."""
    cp = v._chart_plans.get(chart)
    if cp is None:
        cp = v._chart_plans[chart] = _build_chart_plan(v, chart)
    return cp


def admissible_charts(v: ConeVariety) -> list[Chart]:
    """Charts whose fiber system has constant top coefficients (full sheets).

    For nu = 1 this requires the pure power of the fiber variable to occur in
    the defining polynomial; then the fiber polynomial has exactly d roots
    over every base point and no sheet escapes to infinity.
    """
    charts = v._chart_plans.get(None)
    if charts is None:
        N, charts = v.ambient_dim, []
        for fiber in itertools.combinations(range(N), v.nu):
            # f_i holds the pure power of its own fiber variable
            want = np.zeros((v.nu, N), dtype=np.int64)
            want[range(v.nu), fiber] = v.degrees
            if all(np.any(np.all(p.exps == w, axis=1))
                   for p, w in zip(v.polys, want)):
                charts.append(Chart(tuple(j for j in range(N) if j not in fiber),
                                    fiber))
        charts = v._chart_plans[None] = tuple(charts)
    return list(charts)


def default_chart(v: ConeVariety) -> Chart:
    charts = admissible_charts(v)
    if not charts:
        raise FiberDegenerateError(
            f"no admissible coordinate projection for variety {v.name!r}"
        )
    return charts[0]


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of monic-normalizable polynomials, batched.

    coeffs has shape (B, d+1), ordered by ascending power; the top coefficient
    must be bounded away from zero (constant for admissible charts).  Every
    root set past degree 2 with no closed form comes from here (non-binomial
    fibers, lacunary q, the nu = 2 resultant), in an order callers sort.
    """
    B, dp1 = coeffs.shape
    d = dp1 - 1
    monic = coeffs / coeffs[:, -1:]
    comp = np.zeros((B, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -monic[:, :-1]
    return np.linalg.eigvals(comp)


def _polyval_and_deriv(cs: np.ndarray, t: np.ndarray):
    """Simultaneous Horner evaluation; cs (B, d+1) ascending powers, t (B, S)."""
    d = cs.shape[1] - 1
    pv = cs[:, d][:, None] * np.ones_like(t)
    dv = np.zeros_like(t)
    for k in range(d - 1, -1, -1):
        dv = dv * t + pv
        pv = pv * t + cs[:, k][:, None]
    return pv, dv


def _poly_roots(cs: np.ndarray) -> np.ndarray:
    """All d roots (B, d) of each row of cs (B, d+1), ascending powers.

    d = 1 and d = 2 in closed form (the quadratic formula); d >= 3 by the
    companion eigensolver, with no iteration and no fallback.
    """
    d = cs.shape[1] - 1
    if d == 1:
        return (-cs[:, 0] / cs[:, 1])[:, None]
    if d == 2:
        a, b, c = cs[:, 2], cs[:, 1], cs[:, 0]
        disc = np.sqrt(b * b - 4.0 * a * c + 0j)
        return np.stack([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], axis=-1)
    return _companion_roots(cs)


def _gth_roots(w: np.ndarray, g: int) -> np.ndarray:
    """The g roots of t^g = w for each entry of w, shape w.shape + (g,).

    Root j is |w|^(1/g) e^(i arg(w)/g) e^(2 pi i j/g), so the principal
    root comes first, and every root is 0, not NaN, where w = 0.
    """
    root = np.abs(w) ** (1.0 / g) * np.exp(1j * np.angle(w) / g)
    return root[..., None] * np.exp(2j * np.pi * np.arange(g) / g)


def _solve_fiber_nu1(cp: ChartPlan, bases: np.ndarray):
    """All fiber roots over each base point; returns (t, valid) of shape (B, d).

    A lacunary fiber polynomial p(t) = q(t^g), g > 1, is solved through q:
    each root u of q gives the g roots _gth_roots(u, g).  Where q is linear
    (g = d: p(t) = c_d t^d + c_0(s), every catalog chart) the sheets are
    exact closed forms and need no polish; every other root set (the
    quadratic formula with b != 0, companion roots, q of degree >= 2) gets
    two Newton passes on p.  Sheet order is canonical: for d = 2 the root
    built from the principal square root first (sqrt(-c_0/c_2), or
    (-b + sqrt(disc)) / 2a when b != 0), for d >= 3 by the angle of the root.
    """
    d, g = cp.degree, cp.step
    cs = np.stack([eval_monomials(e, c, bases.T) for e, c in cp.table], axis=-1)
    lead = cs[:, -1]
    if np.any(np.abs(lead) == 0.0):
        raise FiberDegenerateError("fiber polynomial leading coefficient vanished")
    if g > 1:
        t = _gth_roots(_poly_roots(cs[:, ::g]), g).reshape(len(cs), d)
    else:
        t = _poly_roots(cs)
    if not cp.binomial:
        # roots not in closed form: two Newton passes on p
        for _ in range(2):
            pv, dv = _polyval_and_deriv(cs, t)
            t = t - np.where(np.abs(dv) > 0, pv / np.where(dv == 0, 1.0, dv), 0.0)
    if d >= 3:
        # canonical sheet order: by argument, whichever solver found the roots
        t = np.take_along_axis(t, np.argsort(np.angle(t), axis=1), axis=1)
    # branch-locus guard: derivative small relative to the homogeneous scale
    _, dv = _polyval_and_deriv(cs, t)
    scale = np.sqrt(row_norm_sq(bases)[:, None] + np.abs(t) ** 2)
    valid = np.isfinite(t) & (
        np.abs(dv) > BRANCH_TOL * np.maximum(scale, 1e-300) ** (d - 1)
    )
    return t, valid


# unitary fiber coordinates t = R u for nu = 2: a diagonal pencil (ci22) has
# sheets (+-t1, +-t2), so every root of its resultant in t1 is double
FIBER_ROTATION = np.array([[0.8, 0.6j], [0.6j, 0.8]])


def _chart_points(v: ConeVariety, chart: Chart, bases: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """Ambient points over bases (B, n) with fiber coordinates t (B, ..., nu)."""
    pts = np.zeros(t.shape[:-1] + (v.ambient_dim,), dtype=complex)
    pts[..., list(chart.base)] = bases.reshape(
        (len(bases),) + (1,) * (t.ndim - 2) + (v.dim,))
    pts[..., list(chart.fiber)] = t
    return pts


def _coeffs_in_u2(v: ConeVariety, chart: Chart, bases: np.ndarray,
                  u1: np.ndarray) -> np.ndarray:
    """Coefficients (B, S, K, nu) of f_i(base, R (u1, u2)) in u2 for u1 (B, S).

    Interpolation at K = max d_i + 1 roots of unity in u2, by one FFT.
    """
    K = max(v.degrees) + 1
    w = np.exp(2j * np.pi * np.arange(K) / K)
    u = np.stack(np.broadcast_arrays(u1[..., None], w), axis=-1)
    vals = v.eval_tuple(_chart_points(v, chart, bases, u @ FIBER_ROTATION.T))
    return np.fft.fft(vals, axis=-2) / K


def _solve2(Jm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched 2x2 solve by Cramer's rule, the determinant kept off zero."""
    det = Jm[..., 0, 0] * Jm[..., 1, 1] - Jm[..., 0, 1] * Jm[..., 1, 0]
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    x0 = (Jm[..., 1, 1] * rhs[..., 0] - Jm[..., 0, 1] * rhs[..., 1]) / det
    x1 = (-Jm[..., 1, 0] * rhs[..., 0] + Jm[..., 0, 0] * rhs[..., 1]) / det
    return np.stack([x0, x1], axis=-1)


def _solve_fiber_nu2(v: ConeVariety, chart: Chart, bases: np.ndarray):
    """All d1 d2 solutions of the nu = 2 fiber system, by elimination.

    The defining tuple is homogeneous, so fibers are solved over unit-norm
    base points and rescaled.  In the coordinates u = R^-1 t the resultant
    of f_1 and f_2 in u2 is a polynomial of degree d1 d2 in u1, with a
    constant top coefficient; its roots, sorted by angle, give the sheets in
    canonical order.  u2 is the root of f_2(u1, .) at which |f_1| is least.
    Three Newton passes on the full system polish t = R u.  Returns
    (t (B, d1 d2, 2), valid (B, d1 d2)).
    """
    d1, d2 = v.degrees
    fi = list(chart.fiber)
    base_norms = row_norm(bases)
    degenerate = base_norms < 1e-300
    bases = np.where(degenerate[:, None], 1.0,
                     bases / np.maximum(base_norms, 1e-300)[:, None])
    B, M = len(bases), d1 * d2 + 1
    # the resultant from its Sylvester determinants at M roots of unity in u1
    w = np.exp(2j * np.pi * np.arange(M) / M)
    cs = _coeffs_in_u2(v, chart, bases, np.broadcast_to(w, (B, M)))
    syl = np.zeros((B, M, d1 + d2, d1 + d2), dtype=complex)
    for r in range(d2):
        syl[..., r, r:r + d1 + 1] = cs[..., :d1 + 1, 0]
    for r in range(d1):
        syl[..., d2 + r, r:r + d2 + 1] = cs[..., :d2 + 1, 1]
    resultant = np.fft.fft(np.linalg.det(syl), axis=-1) / M
    lead = np.abs(resultant[:, -1])
    if np.any(lead <= 1e-12 * np.max(np.abs(resultant), axis=1)):
        raise FiberDegenerateError(
            f"fiber system of {v.name!r} has solutions at infinity")
    u1 = _poly_roots(resultant)
    u1 = np.take_along_axis(u1, np.argsort(np.angle(u1), axis=1), axis=1)
    # the coefficient count spelt out, so that an empty batch reshapes too
    cs = _coeffs_in_u2(v, chart, bases, u1).reshape(u1.size, max(v.degrees) + 1, 2)
    u2 = _poly_roots(cs[:, :d2 + 1, 1])
    f1, _ = _polyval_and_deriv(cs[:, :d1 + 1, 0], u2)
    u2 = np.take_along_axis(u2, np.argmin(np.abs(f1), axis=1)[:, None], axis=1)
    t = np.stack([u1, u2.reshape(u1.shape)], axis=-1) @ FIBER_ROTATION.T
    for _ in range(3):
        pts = _chart_points(v, chart, bases, t)
        t = t - _solve2(v.jacobian(pts)[..., fi], v.eval_tuple(pts))
    pts = _chart_points(v, chart, bases, t)
    res = row_norm(v.eval_tuple(pts))
    # near-branch sheets: fiber Jacobian close to singular at unit scale
    det = np.abs(np.linalg.det(v.jacobian(pts)[..., fi]))
    valid = (np.isfinite(res) & (res < 1e-9) & (det > BRANCH_TOL)
             & ~degenerate[:, None])
    # duplicate sheets: keep the first
    gap = row_norm_sq(t[:, :, None] - t[:, None, :])
    valid &= ~np.any(np.triu(gap < 1e-20, 1), axis=1)
    return t * base_norms[:, None, None], valid


def solve_fiber(v: ConeVariety, chart: Chart, bases: np.ndarray):
    """Positions and validity for all sheets over a batch of base points.

    Returns (positions (B, S, N), valid (B, S)).
    """
    bases = np.asarray(bases, dtype=complex).reshape(-1, v.dim)
    if v.nu == 1:
        t, valid = _solve_fiber_nu1(chart_plan(v, chart), bases)
        t = t[..., None]
    elif v.nu == 2:
        t, valid = _solve_fiber_nu2(v, chart, bases)
    else:
        raise NotImplementedError("codimension > 2 fibers are out of scope")
    pts = _chart_points(v, chart, bases, t)
    # residual guard
    fres = row_norm(v.eval_tuple(pts))
    nrm = row_norm(pts)
    tol = POINT_TOL * np.maximum(1.0, nrm) ** v.total_degree
    valid = valid & (fres <= tol)
    return pts, valid


def gram_factors(v: ConeVariety, chart: Chart, m: np.ndarray,
                 msq: np.ndarray) -> np.ndarray:
    """Volume density det(I + (Dg)^* Dg) of the graph chart, per sheet.

    By Cauchy-Binet it equals |m|^2 / |m_F|^2 for the Jacobian minors m
    (v.minors of the points), msq = |m|^2 = row_norm_sq(m), and the minor
    m_F on the chart's fiber columns.
    """
    k = chart_plan(v, chart).minor
    return msq / np.maximum(np.abs(m[..., k]) ** 2, 1e-300)


def frames_for(v: ConeVariety, pts: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the holomorphic tangent spaces, batched.

    Rows ker(J) are obtained from the SVD right-singular vectors with zero
    singular value, which is deterministic for fixed input bits.  The product
    of the nonzero singular values is the minors norm |m| of the guard.
    """
    _, s, Vh = np.linalg.svd(v.jacobian(pts))
    _require_regular(v, row_norm_sq(pts), np.prod(s, axis=-1))
    return np.conj(Vh[..., v.nu:, :])


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class PointBatch:
    """Sample points with their Gram factors, minors m, msq = |m|^2 and
    x = |zeta|^2.  integrate passes the msq of the Gram factors and, for a
    region centred at 0, the x of its indicator; norms() and the K/P
    integrand (structure_norm_sq) reuse them."""

    def __init__(self, positions, grams, minors, msq, x):
        self.positions = positions
        self.grams = grams
        self.minors = minors
        self.msq = msq
        self.x = x

    def __len__(self):
        return self.positions.shape[0]

    def norms(self) -> np.ndarray:
        return np.sqrt(self.x)

    def dist(self, w) -> np.ndarray:
        """|zeta - w| per point, floored at 1e-300 so poles at w stay finite."""
        return np.maximum(row_norm(self.positions - w), 1e-300)


def tangent_frame(v: ConeVariety, zeta) -> np.ndarray:
    """Orthonormal basis of the holomorphic tangent space at one point."""
    return frames_for(v, np.asarray(zeta, dtype=complex)[None, :])[0]


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Points with r_inner <= |zeta - center| <= r_outer; a ball has r_inner = 0."""

    center: np.ndarray
    r_inner: float
    r_outer: float

    @classmethod
    def ball(cls, center, radius: float) -> "Region":
        if radius <= 0:
            raise EmptyRegionError("ball radius must be positive")
        return cls(np.asarray(center, dtype=complex), 0.0, float(radius))

    @classmethod
    def annulus(cls, center, r_inner: float, r_outer: float) -> "Region":
        if not 0 < r_inner < r_outer:
            raise EmptyRegionError("annulus radii must satisfy 0 < r_inner < r_outer")
        return cls(np.asarray(center, dtype=complex), float(r_inner), float(r_outer))

    @classmethod
    def domain(cls, r_outer: float, ambient_dim: int) -> "Region":
        """The ball of radius r_outer about the origin of C^ambient_dim."""
        return cls.ball(np.zeros(ambient_dim, dtype=complex), r_outer)

    def indicator(self, pts: np.ndarray, x=None) -> np.ndarray:
        """Membership of pts; x = |pts|^2, if given, serves a centre at 0."""
        at_0 = x is not None and not np.any(self.center)
        d = np.sqrt(x) if at_0 else row_norm(pts - self.center)
        return (d >= self.r_inner) & (d <= self.r_outer)


# ---------------------------------------------------------------------------
# sampling plan and strata
# ---------------------------------------------------------------------------


@dataclass
class SamplingPlan:
    samples: int = 100_000
    seed: int = 0
    r_min: float = 1e-4
    shell_ratio: float = 2.0
    experiment_id: str = "quad"
    allocation: str = "bound"

    def __post_init__(self):
        if not self.r_min > 0:
            raise ValueError(f"r_min must be positive, got {self.r_min!r}")
        if not self.shell_ratio >= 1.05:
            raise ValueError(
                f"shell_ratio must be at least 1.05, got {self.shell_ratio!r}")
        if self.allocation not in ("bound", "equal"):
            raise ValueError(f"allocation must be 'bound' or 'equal', "
                             f"got {self.allocation!r}")

    def check_r_min(self, n: int, pole_norm: float = 0.0):
        """ValueError unless a pole's disc [0, r_min] in C^n has a finite
        density and r_min passes _check_pole_scale at pole_norm."""
        _radial_norm(_Stratum(np.zeros(n), 0.0, self.r_min, 0.0, 0.0), n)
        _check_pole_scale(self.r_min, pole_norm)

    def with_(self, **kw) -> "SamplingPlan":
        d = self.__dict__ | kw
        return SamplingPlan(**d)

    def sub(self, tag: str, **kw) -> "SamplingPlan":
        """Plan of a sub-integral, with its own streams: experiment_id|tag."""
        return self.with_(experiment_id=f"{self.experiment_id}|{tag}", **kw)

    def part(self, tag: str, parts: int, **kw) -> "SamplingPlan":
        """sub(tag) with a 1/parts share of the budget, at least MIN_PER_STRATUM."""
        return self.sub(tag, samples=max(self.samples // parts, MIN_PER_STRATUM), **kw)


@dataclass(frozen=True)
class _Stratum:
    center: np.ndarray  # base point, complex n-vector
    r_lo: float
    r_hi: float
    power: float  # radial importance exponent a; density ~ r^(-a)
    order: float  # declared pole order, used for budget allocation


def _sphere_area(n: int) -> float:
    # real unit sphere S^(2n-1) in C^n
    return 2.0 * math.pi**n / math.factorial(n - 1)


def _radial_norm(st: _Stratum, n: int) -> float:
    """Normalizer of r^(-power) on [r_lo, r_hi]; ValueError where it is not finite."""
    beta = 2 * n - st.power
    span = st.r_hi**beta - st.r_lo**beta
    if not (span > 0 and math.isfinite(beta / span)):
        raise ValueError(f"r_min is too small: the radial density of the shell "
                         f"[{st.r_lo:g}, {st.r_hi:g}] in C^{n} underflows")
    return beta / span


def _check_pole_scale(r_min: float, pole_norm: float):
    """ValueError unless r_min exceeds sqrt(eps) |pc| for a pole base point pc
    of norm pole_norm.  A base at distance r from pc carries an absolute
    rounding error of about eps |pc|, so its computed distance, and the pole
    disc's density r^(-a) there, keep about log10(r / (eps |pc|)) digits: at
    the floor, half of them, where eps |pc| would leave none."""
    scale = math.sqrt(np.finfo(float).eps) * pole_norm
    if not r_min > scale:
        raise ValueError(f"r_min is too small: {r_min:g} is not above "
                         f"sqrt(eps) times the norm {pole_norm:g} of a pole's "
                         f"base point ({scale:g})")


def _sample_stratum(st: _Stratum, n: int, count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, 2 * n))
    g /= np.sqrt(row_norm_sq(g))[:, None]
    beta = 2 * n - st.power
    u = rng.random(count)
    u *= st.r_hi**beta - st.r_lo**beta
    u += st.r_lo**beta
    g *= (u ** (1.0 / beta))[:, None]
    out = np.empty((count, n), dtype=complex)
    np.add(g[:, :n], st.center.real, out=out.real)
    np.add(g[:, n:], st.center.imag, out=out.imag)
    return out


def _complex_normal(rng, count: int, n: int) -> np.ndarray:
    """count standard complex Gaussian points of C^n."""
    g = rng.standard_normal((count, 2 * n))
    return g[:, :n] + 1j * g[:, n:]


def _geometric_radii(hi: float, lo: float, ratio: float) -> list[float]:
    radii = [hi]
    while radii[-1] / ratio > lo * (1.0 + 1e-9):
        radii.append(radii[-1] / ratio)
    radii.append(lo)
    return radii


def _build_strata(v: ConeVariety, region: Region, chart: Chart, poles,
                  plan: SamplingPlan) -> list[_Stratum]:
    n = v.dim
    base_c = region.center[list(chart.base)]
    R = region.r_outer
    strata: list[_Stratum] = []
    ratio = plan.shell_ratio

    annulus = region.r_inner > 0
    if annulus:
        # region cover: shells must reach below r_inner by the chart stretch
        # (sheets with norm >= r_inner can sit over shallower base points),
        # whatever r_min says
        lo = region.r_inner / chart_plan(v, chart).stretch
        radii = _geometric_radii(region.r_outer, lo, ratio)
        for r_hi, r_lo in zip(radii[:-1], radii[1:]):
            strata.append(_Stratum(base_c, r_lo, r_hi, 0.0, 0.0))
    else:
        strata.append(_Stratum(base_c, 0.0, R, 0.0, 0.0))

    for center, order in poles:
        pc = np.asarray(center, dtype=complex)[list(chart.base)]
        dist = float(row_norm(pc - base_c))
        if dist > 2.0 * R:  # cannot host region points
            continue
        if annulus and dist <= 1e-9 * lo:
            continue  # at the center, on the cover's scale: region shells suffice
        hi = min(dist + R, 2.0 * R) if dist > 0 else R
        if hi <= plan.r_min:
            continue
        _check_pole_scale(plan.r_min, float(row_norm(pc)))
        radii = _geometric_radii(hi, plan.r_min, ratio)
        for r_hi, r_lo in zip(radii[:-1], radii[1:]):
            strata.append(_Stratum(pc, r_lo, r_hi, 0.0, order))
        # innermost disc carries a pole-matched radial density
        a = min(max(order, 0.0), 2 * n - 0.5)
        strata.append(_Stratum(pc, 0.0, radii[-1], a, order))
    return strata


def _allocate(strata, plan: SamplingPlan, n: int) -> np.ndarray:
    m = len(strata)
    if plan.allocation == "equal":
        w = np.ones(m)
    else:
        w = np.array(
            [st.r_hi ** max(2 * n - st.order, 0.5) for st in strata], dtype=float
        )
        w /= w.max()
        w = np.maximum(w, 1e-3)
    counts = np.maximum(
        MIN_PER_STRATUM, (plan.samples * w / w.sum()).astype(int)
    )
    return counts


def _stream(seed: int, experiment_id: str, stratum: int):
    raw = f"{seed}|{experiment_id}|{stratum}".encode()
    h = hashlib.blake2b(raw, digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(h, "little")))


@dataclass(frozen=True)
class _Chain:
    """Consecutive strata around one center object, tiling [edges[0], edges[-1]].

    Shell s spans [edges[s], edges[s + 1]]; shells run innermost first, the
    reverse of stratum order.  const[s] = f norm / area is the shell's
    mixture term where its radial power is 0; powered lists (shell, power,
    f, norm) for the others (a pole's inner disc).
    """

    center: np.ndarray
    edges: np.ndarray
    const: np.ndarray
    powered: tuple


def _chains(strata, fracs, n: int) -> list[_Chain]:
    chains, start = [], 0
    for k in range(1, len(strata) + 1):
        if k < len(strata) and strata[k].center is strata[start].center:
            continue
        run = strata[start:k][::-1]
        f = fracs[start:k][::-1]
        assert all(a.r_hi == b.r_lo for a, b in zip(run, run[1:]))
        norm = [_radial_norm(st, n) for st in run]
        chains.append(_Chain(
            center=run[0].center,
            edges=np.array([run[0].r_lo] + [st.r_hi for st in run]),
            const=np.array([f[s] * (norm[s] / _sphere_area(n))
                            for s in range(len(run))]),
            powered=tuple((s, st.power, f[s], norm[s])
                          for s, st in enumerate(run) if st.power)))
        start = k
    return chains


def _mixture_density(chains: list[_Chain], bases: np.ndarray, n: int) -> np.ndarray:
    """Sum over strata k of f_k times stratum k's density, at each base.

    One distance per chain; bisection on its edges finds the shells that hold
    it.  A base on a shared radius lies in two shells, added outer first, so
    the nonzero terms are added in stratum order, and the sum equals the
    stratum-by-stratum one bit for bit (the terms skipped are exact zeros).
    The inner-shell pass runs only on chains where some base does.
    """
    p = np.zeros(len(bases))
    for ch in chains:
        r = row_norm(bases - ch.center)
        hit = (r >= ch.edges[0]) & (r <= ch.edges[-1])
        outer = np.clip(np.searchsorted(ch.edges, r, "right") - 1, 0, len(ch.const) - 1)
        passes = [(outer, hit)]
        # on the inner edge of a shell past the first: the shell below holds it too
        edge = hit & (outer > 0) & (ch.edges[outer] == r)
        if np.any(edge):
            passes.append((outer - 1, edge))
        for shell, rows in passes:
            term = ch.const[shell]
            for s, power, f, norm in ch.powered:
                on = rows & (shell == s)
                rr = np.maximum(r[on], 1e-300)
                term[on] = f * (norm * rr ** (-power) / _sphere_area(n))
            p += np.where(rows, term, 0.0)
    return p


def _may_reach(v: ConeVariety, chart: Chart, region: Region,
               bases: np.ndarray) -> np.ndarray:
    """False for the rows of bases (B, n) whose sheets all lie outside region.

    Two rigorous bounds on |zeta - c| for the sheets zeta over a base s: the
    chart's projection is 1-Lipschitz, so |zeta - c| >= |s - c_base|; and for
    nu = 1 with a binomial fiber polynomial c_d t^d + c_0(s), every sheet has
    |t| = (|c_0(s)| / |c_d|)^(1/d), which bounds |t - c_fiber| on both sides.
    A row is dropped only when a bound clears its radius by 1e-9 relative;
    the lower fiber bound gives up a further 1e-12 of |t| + |c_fiber|, which
    covers the rounding of the solved sheets where |t - c_fiber| is far
    smaller than either.  Rows at the border, and NaN rows, are kept.
    integrate passes the integrand's support, where it has one, as region.
    """
    c = region.center
    base_sq = row_norm_sq(bases - c[list(chart.base)])
    lo_sq, hi_sq = base_sq, None
    cp = chart_plan(v, chart)
    if cp.binomial:
        c0 = np.abs(eval_monomials(*cp.table[0], bases.T))
        t = (c0 / cp.lead) ** (1.0 / cp.degree)
        cf = abs(c[chart.fiber[0]])
        lo_sq = base_sq + np.maximum(np.abs(t - cf) - 1e-12 * (t + cf), 0.0) ** 2
        hi_sq = base_sq + (t + cf) ** 2
    keep = ~(lo_sq > (region.r_outer * (1.0 + 1e-9)) ** 2)
    if region.r_inner > 0 and hi_sq is not None:
        keep &= ~(hi_sq < (region.r_inner * (1.0 - 1e-9)) ** 2)
    return keep


def _units(counts) -> list[list[tuple[int, int]]]:
    """Work units as lists of (stratum index, chunk size).

    Each stratum draws in chunks of BATCH_SIZE from its own stream.
    Consecutive chunks, across strata, share a unit of at most PACK_ROWS
    base rows; a larger chunk forms a unit alone.
    """
    units, rows = [], 0
    for si, cnt in enumerate(counts):
        done = 0
        while done < cnt:
            bs = int(min(BATCH_SIZE, cnt - done))
            if not units or rows + bs > PACK_ROWS:
                units.append([])
                rows = 0
            units[-1].append((si, bs))
            rows += bs
            done += bs
    return units


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class StratumStat:
    value: complex
    stderr: float
    count: int


@dataclass
class QuadratureResult:
    """discarded counts the invalid sheets over the solved base rows; rows
    dropped before the fiber solve, with no sheet in the region or in the
    integrand's support, add none."""

    value: complex
    stderr: float
    samples: int
    strata: list = field(default_factory=list)
    discarded: int = 0

    def scaled(self, c) -> "QuadratureResult":
        a = abs(c)
        return QuadratureResult(
            value=self.value * c,
            stderr=self.stderr * a,
            samples=self.samples,
            strata=[StratumStat(s.value * c, s.stderr * a, s.count) for s in self.strata],
            discarded=self.discarded,
        )


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def integrate(v: ConeVariety, region: Region, integrand, plan: SamplingPlan,
              poles=(), chart: Chart | None = None,
              support: Region | None = None) -> QuadratureResult:
    """Unbiased Monte Carlo estimate of the integral of integrand over X cap region.

    integrand maps a PointBatch to a complex array of shape (M,) or (M, K);
    declared poles (center, order) add importance-sampling shells around
    their base projections.  The result's strata list mirrors the mixture
    components.  support, a region concentric with region and inside it,
    declares that integrand is exactly 0 outside it: base rows whose sheets
    all miss it are not solved.  The draws, the indicator and the sums still
    come from region, so the result is the same with or without it.
    """
    chart = chart or default_chart(v)
    n = v.dim
    strata = _build_strata(v, region, chart, poles, plan)
    counts = _allocate(strata, plan, n)
    total = int(counts.sum())
    fracs = counts / total
    chains = _chains(strata, fracs, n)

    # per-stratum sums start at width 1 and broadcast once K is known
    s_sum = [np.zeros(1, dtype=complex)] * len(strata)
    s_sq = [np.zeros(1)] * len(strata)
    got_valid = np.zeros(len(strata), dtype=bool)
    K = 1
    discarded = 0
    at_0 = not np.any(region.center)

    rngs = [_stream(plan.seed, plan.experiment_id, si) for si in range(len(strata))]
    for unit in _units(counts):
        draws = [_sample_stratum(strata[si], n, bs, rngs[si]) for si, bs in unit]
        # a lone chunk is used as drawn: a copy would raise the peak memory
        bases = draws[0] if len(draws) == 1 else np.concatenate(draws)
        B = len(bases)
        # rows that cannot reach the support add 0 and count as admissible
        rows = np.flatnonzero(_may_reach(v, chart, support or region, bases))
        admissible = np.ones(B, dtype=bool)
        # None while every row adds exactly 0: the unit's sums are then skipped
        Y = None
        if rows.size:
            kept = bases if rows.size == B else bases[rows]
            pts, valid = solve_fiber(v, chart, kept)
            discarded += int(valid.size - valid.sum())
            admissible[rows] = np.any(valid, axis=1)
            x = row_norm_sq(pts) if at_0 else None
            inside = valid & region.indicator(pts, x)
            S = inside.shape[1]
            flat = inside.reshape(-1)
            if np.any(flat):
                sel = pts.reshape(-1, pts.shape[-1])[flat]
                m = v.minors(sel)
                msq = row_norm_sq(m)
                gsel = gram_factors(v, chart, m, msq)
                xs = row_norm_sq(sel) if x is None else x.reshape(-1)[flat]
                fv = np.asarray(integrand(PointBatch(sel, gsel, m, msq, xs)))
                if fv.ndim == 1:
                    fv = fv[:, None]
                K = fv.shape[1]
                vals = np.zeros((flat.size, K), dtype=complex)
                vals[flat] = fv * gsel[:, None]
                Y = np.zeros((B, K), dtype=complex)
                Y[rows] = (vals.reshape(-1, S, K).sum(axis=1)
                           / _mixture_density(chains, kept, n)[:, None])
        a = 0
        for si, bs in unit:
            e = a + bs
            got_valid[si] |= bool(np.any(admissible[a:e]))
            if Y is not None:
                s_sum[si] = s_sum[si] + Y[a:e].sum(axis=0)
                s_sq[si] = s_sq[si] + np.sum(np.abs(Y[a:e]) ** 2, axis=0)
            a = e

    for si in np.flatnonzero(~got_valid):
        warnings.warn(f"stratum {si} received no admissible fiber points",
                      RuntimeWarning)
    cnt = counts[:, None]
    mean = np.array([np.broadcast_to(s, (K,)) for s in s_sum]) / cnt
    var = np.maximum(np.array([np.broadcast_to(q, (K,)) for q in s_sq]) / cnt
                     - np.abs(mean) ** 2, 0.0)
    se = np.sqrt(var * cnt / np.maximum(cnt - 1, 1) / cnt)
    # sums in stratum order from a leading zero row, the bits of a running sum;
    # the squared errors ride along as real parts
    terms = np.hstack([fracs[:, None] * mean, (fracs[:, None] * se) ** 2])
    sums = np.cumsum(np.vstack([np.zeros((1, 2 * K)), terms]), axis=0)[-1]
    value, stderr = sums[:K], np.sqrt(sums[K:].real)
    if K == 1:
        value, stderr = complex(value[0]), float(stderr[0])
        mean, se = mean[:, 0].tolist(), se[:, 0].tolist()
    strata_stats = [StratumStat(m, s, int(c)) for m, s, c in zip(mean, se, counts)]
    return QuadratureResult(value=value, stderr=stderr, samples=total,
                            strata=strata_stats, discarded=discarded)


def estimate_v(v: ConeVariety, r: float, z, plan: SamplingPlan) -> QuadratureResult:
    """Volume ratio Vol(X cap B_r(z)) / r^(2n)."""
    if r <= 0:
        raise EmptyRegionError("radius must be positive")
    region = Region.ball(z, r)
    res = integrate(v, region, lambda b: np.ones(len(b), dtype=complex), plan)
    return res.scaled(1.0 / r ** (2 * v.dim))


# ---------------------------------------------------------------------------
# surface point utilities
# ---------------------------------------------------------------------------


def surface_point_with_norm(v: ConeVariety, norm: float, seed: int = 0) -> np.ndarray:
    """Deterministic point on X with the requested norm (cone rescaling).

    Takes the first valid sheet in solve_fiber's order over a seeded base
    point.  That order is canonical: for nu = 1 fibers of degree 2 the root
    built from the principal square root comes first, from degree 3 on the
    sheets are sorted by the angle of the root, and nu = 2 fibers by the
    angle of u1.
    """
    chart = default_chart(v)
    rng = _stream(seed, f"spn|{v.name}", 0)
    for _ in range(64):
        pts, valid = solve_fiber(v, chart, _complex_normal(rng, 1, v.dim))
        for s in range(pts.shape[1]):
            if valid[0, s]:
                p = pts[0, s]
                r = row_norm(p)
                if r > 1e-12:
                    return p * (norm / r)
    raise RuntimeError("could not find a regular surface point")


def project_to_surface(v: ConeVariety, z: np.ndarray) -> np.ndarray:
    """Gauss-Newton projection of an ambient point onto X (minimal correction)."""
    z = np.asarray(z, dtype=complex).copy()
    for _ in range(6):
        f = v.eval_tuple(z[None, :])[0]
        if row_norm(f) < 1e-14 * max(1.0, np.sum(np.abs(z))):
            break
        J = v.jacobian(z[None, :])[0]
        JH = np.conj(J.T)
        corr = JH @ np.linalg.solve(J @ JH, f)
        z = z - corr
    return z


def attach_link_margin(v: ConeVariety, samples: int = 10_000,
                       seed: int = 0) -> ConeVariety:
    """Certified-by-sampling lower bound for the minors norm on the unit link."""
    chart = default_chart(v)
    rng = _stream(seed, f"link|{v.name}", 1)
    n = v.dim
    remaining = samples
    m_min = math.inf
    while remaining > 0:
        bs = min(remaining, 4096)
        pts, valid = solve_fiber(v, chart, _complex_normal(rng, bs, n))
        nrm = row_norm(pts)
        ok = valid & (nrm > 1e-9)
        if np.any(ok):
            unit = pts[ok] / nrm[ok][:, None]
            m_min = min(m_min, float(np.min(v.minors_norm(unit))))
        remaining -= bs
    if not math.isfinite(m_min) or m_min <= 0:
        raise NearSingularError(f"link of {v.name} appears singular")
    return v.with_link_margin(m_min)
