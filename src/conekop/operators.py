"""Application of the integral kernels to test inputs by stratified quadrature.

The operators are linear in the input form and deterministic given the
sampling plan; pole locations of each kernel are declared to the sampler so
that importance shells keep the variance of the singular integrands finite.
K and P share one batch integrand, _kernel_integrand, which calls the
closed forms kernels.density_K (q >= 1) or density_P (q = 0) on the live
rows only, in blocks, in every dimension and for every input degree; no
operator assembles a kernel in the FormValue algebra.

K phi and P phi are exactly 0 from |zeta|^2 = x_end on (_x_end), so
integrate solves no fiber over a base row whose sheets all lie beyond.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from . import kernels
from .forms import TestForm
from .kernels import WeightConfig
from .sampling import (
    PointBatch,
    QuadratureResult,
    Region,
    SamplingPlan,
    integrate,
)
from .varieties import ConeVariety, row_norm

__all__ = [
    "ExponentRangeError",
    "apply_K",
    "apply_P",
    "apply_T_m",
    "output_subsets",
]

_TINY = 1e-13
# rows per block of the kernel densities: bounds their temporaries
_BLOCK = 4096


class ExponentRangeError(ValueError):
    pass


def output_subsets(N: int, q_out: int) -> list[tuple[int, ...]]:
    """Ambient dz-bar multi-indices of the output, in lexicographic order."""
    return list(itertools.combinations(range(N), q_out))


def _x_end(cfg: WeightConfig, phi: TestForm) -> float:
    """|zeta|^2 from which every term of K phi and P phi is exactly +-0."""
    return cfg.chi.x1 if phi.window is None else min(cfg.chi.x1, phi.window.x1)


def _rows_where(keep: np.ndarray, *arrays) -> tuple:
    """The rows of each array where keep holds; the arrays themselves, not
    copies, when keep holds on every row."""
    return arrays if np.all(keep) else tuple(a[keep] for a in arrays)


def _kernel_integrand(v: ConeVariety, phi: TestForm, z, cfg):
    """Batch integrand of omega ^ kappa ^ phi: K's density for a (0,q) input,
    q >= 1, with C(N, q - 1) output columns, and P's for q = 0, with one.

    The density sees only the live rows, away from the cone point and z with
    x < x_end, in blocks of at most _BLOCK rows; every other row reads
    exactly 0.
    """
    q = phi.q
    width = math.comb(v.ambient_dim, q - 1) if q else 1
    x_end = _x_end(cfg, phi)

    def integrand(batch: PointBatch):
        out = np.zeros((len(batch), width), dtype=complex)
        ok = (batch.norms() > _TINY) & (batch.dist(z) > _TINY)
        rows, x, pts, m, msq = _rows_where(ok, np.arange(len(batch)), batch.x,
                                           batch.positions, batch.minors, batch.msq)
        # structure_norm_sq's regularity guard sees dead rows too
        msq = kernels.structure_norm_sq(v, x, m, msq)
        rows, pts, x, m, msq = _rows_where(x < x_end, rows, pts, x, m, msq)
        for lo in range(0, len(rows), _BLOCK):
            b = slice(lo, lo + _BLOCK)
            args = (v, pts[b], x[b], z, cfg, m[b], msq[b], phi.eval(pts[b], x[b]))
            out[rows[b]] = kernels.density_K(*args, q) if q else kernels.density_P(*args)
        return out

    return integrand


def _integrate_kernel(v: ConeVariety, region: Region, phi: TestForm, z, cfg,
                      plan: SamplingPlan, poles=()):
    """integrate the kernel integrand over region; its support is the part of
    region within |zeta|^2 < x_end, empty when x_end <= region.r_inner^2."""
    support = Region(region.center, region.r_inner, math.sqrt(_x_end(cfg, phi)))
    return integrate(v, region, _kernel_integrand(v, phi, z, cfg), plan,
                     poles=poles, support=support)


def apply_K(v: ConeVariety, phi: TestForm, z, cfg: WeightConfig,
            plan: SamplingPlan):
    """Estimate (K phi)(z) for a (0,q) input, 1 <= q <= n.

    Returns (coefficient vector over dz-bar multi-indices of size q-1,
    QuadratureResult).  Integration runs over X cap B_Omega'(0) with
    importance shells at z and at the cone point.
    """
    z = np.asarray(z, dtype=complex)
    n = v.dim
    if not 1 <= phi.q <= n:
        raise ValueError(f"apply_K requires 1 <= q <= {n}, got q = {phi.q}")
    if row_norm(z) < 10 * plan.r_min:
        warnings.warn("evaluation point is within 10 r_min of the cone point",
                      RuntimeWarning)
    region = Region.domain(cfg.omega_prime_radius, v.ambient_dim)
    poles = [(z, 2 * n - 1), (np.zeros(v.ambient_dim), v.total_degree - v.nu)]
    qr = _integrate_kernel(v, region, phi, z, cfg, plan, poles)
    coeffs = np.atleast_1d(np.asarray(qr.value))
    return coeffs, qr


def apply_P(v: ConeVariety, phi: TestForm, z, cfg: WeightConfig,
            plan: SamplingPlan):
    """Estimate (P phi)(z) for a (0,0) input; reproduces holomorphic values.

    The kernel vanishes off the cut-off annulus, so the integral runs there
    only; the integrand is smooth and needs no pole shells.
    """
    z = np.asarray(z, dtype=complex)
    if phi.q != 0:
        raise ValueError("apply_P expects a (0,0) input")
    region = Region.annulus(np.zeros(v.ambient_dim), cfg.rho1, cfg.rho2)
    qr = _integrate_kernel(v, region, phi, z, cfg, plan)
    value = complex(np.atleast_1d(np.asarray(qr.value))[0])
    return value, qr


def apply_T_m(v: ConeVariety, f, z, gamma: float, m: int,
              plan: SamplingPlan) -> QuadratureResult:
    """Cut-off model operator on the m-th double-exponential annulus."""
    n = v.dim
    if not 0 <= gamma < 2 * n - 1:
        raise ExponentRangeError(f"gamma must lie in [0, {2 * n - 1}) for T_m")
    lo, hi = kernels.annulus_bounds(m)
    z = np.asarray(z, dtype=complex)

    def integrand(batch: PointBatch):
        zeta = batch.positions
        vals = kernels.t_k_kernel(zeta, z, gamma, m, n)
        return vals * np.asarray(f(batch))

    region = Region.annulus(np.zeros(v.ambient_dim), lo, hi)
    poles = [(z, 2 * n - 1)]
    return integrate(v, region, integrand, plan, poles=poles)
