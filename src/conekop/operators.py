"""Application of the integral kernels to test inputs by stratified quadrature.

The operators are linear in the input form and deterministic given the
sampling plan; pole locations of each kernel are declared to the sampler so
that importance shells keep the variance of the singular integrands finite.
K and P share one batch integrand, _kernel_integrand, which evaluates a
density on the live rows only, in blocks.  On a surface, K on a (0,1) input
and P take their densities in closed form (kernels.surface_density_K, _P);
every other case assembles the kernel in the FormValue algebra.

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
from .varieties import ConeVariety, row_norm, row_norm_sq

__all__ = [
    "ExponentRangeError",
    "apply_K",
    "apply_P",
    "apply_model_T",
    "apply_T_m",
    "lp_norm",
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


def _kernel_integrand(v: ConeVariety, phi: TestForm, z, cfg, width: int, density):
    """Batch integrand of omega ^ kappa ^ phi with width output columns.

    density(pts, x, m, msq) gives the (L, width) densities at L points of X
    with squared norms x, minors m and squared minors norms msq.  It sees only
    the live rows, away from the cone point and z with x < x_end, in blocks
    of at most _BLOCK rows; every other row reads exactly 0.
    """
    x_end = _x_end(cfg, phi)

    def integrand(batch: PointBatch):
        out = np.zeros((len(batch), width), dtype=complex)
        x = row_norm_sq(batch.positions)
        rows = np.flatnonzero((np.sqrt(x) > _TINY) & (batch.dist(z) > _TINY))
        x, pts, m = x[rows], batch.positions[rows], batch.minors[rows]
        # structure_norm_sq's regularity guard sees dead rows too
        msq = kernels.structure_norm_sq(v, x, m)
        live = x < x_end
        rows, pts, x, m, msq = rows[live], pts[live], x[live], m[live], msq[live]
        for lo in range(0, len(rows), _BLOCK):
            b = slice(lo, lo + _BLOCK)
            out[rows[b]] = density(pts[b], x[b], m[b], msq[b])
        return out

    return integrand


def _integrate_kernel(v: ConeVariety, region: Region, phi: TestForm, z, cfg,
                      width: int, density, plan: SamplingPlan, poles=()):
    """integrate the kernel integrand over region; its support is the part of
    region within |zeta|^2 < x_end, empty when x_end <= region.r_inner^2."""
    support = Region(region.center, region.r_inner, math.sqrt(_x_end(cfg, phi)))
    return integrate(v, region, _kernel_integrand(v, phi, z, cfg, width, density),
                     plan, poles=poles, support=support)


def _closed_form(density, v: ConeVariety, phi: TestForm, z, cfg):
    """kernels.surface_density_K or _P as a one-column density."""
    return lambda pts, x, m, msq: density(v, pts, x, z, cfg, m, msq,
                                          phi.eval(pts, x))[:, None]


def _form_density(v: ConeVariety, phi: TestForm, subsets, kernel):
    """Density of omega ^ kernel(zeta) ^ phi in the FormValue algebra, one
    column per dz-bar subset, kernel being kernel_K or kernel_P bound to v,
    z and cfg."""
    # surface densities are keyed by the dz-bar mask alone (low bits)
    masks = [sum(1 << j for j in s) for s in subsets]

    def density(pts, x, m, msq):
        total = kernel(pts).wedge(phi.form_value(pts)).restricted_to_dim(v.dim)
        dens = total.surface_density(kernels._omega_form(v, m, msq))
        out = np.zeros((len(pts), len(masks)), dtype=complex)
        for i, mask in enumerate(masks):
            if mask in dens:
                out[:, i] = dens[mask]
        return out

    return density


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
    subsets = output_subsets(v.ambient_dim, phi.q - 1)
    region = Region.domain(cfg.omega_prime_radius, v.ambient_dim)
    poles = [(z, 2 * n - 1), (np.zeros(v.ambient_dim), v.total_degree - v.nu)]
    if n == 2 and phi.q == 1:
        density = _closed_form(kernels.surface_density_K, v, phi, z, cfg)
    else:
        density = _form_density(
            v, phi, subsets, lambda zeta: kernels.kernel_K(v, zeta, z, cfg, phi.q - 1))
    qr = _integrate_kernel(v, region, phi, z, cfg, len(subsets), density, plan, poles)
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
    if v.dim == 2:
        density = _closed_form(kernels.surface_density_P, v, phi, z, cfg)
    else:
        density = _form_density(v, phi, [()],
                                lambda zeta: kernels.kernel_P(v, zeta, z, cfg))
    qr = _integrate_kernel(v, region, phi, z, cfg, 1, density, plan)
    value = complex(np.atleast_1d(np.asarray(qr.value))[0])
    return value, qr


def apply_model_T(v: ConeVariety, f, z, gamma: float,
                  plan: SamplingPlan) -> QuadratureResult:
    """T f(z) = integral over X cap B_1 of f * k_gamma."""
    n = v.dim
    if not 0 <= gamma < 2 * n:
        raise ExponentRangeError(f"gamma must lie in [0, {2 * n}) for T")
    z = np.asarray(z, dtype=complex)

    def integrand(batch: PointBatch):
        ok = (batch.norms() > _TINY) & (batch.dist(z) > _TINY)
        out = np.zeros(len(batch), dtype=complex)
        if np.any(ok):
            base = kernels.model_k_gamma(batch.positions[ok], z, gamma, n)
            out[ok] = base * np.asarray(f(batch))[ok]
        return out

    region = Region.domain(1.0, v.ambient_dim)
    poles = [(z, 2 * n - 1), (np.zeros(v.ambient_dim), gamma)]
    return integrate(v, region, integrand, plan, poles=poles)


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


def lp_norm(v: ConeVariety, obj, region: Region, p: float, plan: SamplingPlan,
            poles=()) -> QuadratureResult:
    """L^p norm over a region of X for a scalar map or a (0,q) TestForm.

    Scalar inputs follow the batch integrand protocol.  For p = infinity the
    largest magnitude over the points integrate draws is returned, with
    stderr 0 and the drawn sample count for context.
    """
    if isinstance(obj, TestForm):

        def magnitude(batch: PointBatch):
            return obj.form_value(batch.positions).tangent_norm(batch.projector)

    else:

        def magnitude(batch: PointBatch):
            return np.abs(np.asarray(obj(batch)))

    if p == np.inf:
        best = 0.0

        def running_max(batch: PointBatch):
            nonlocal best
            best = max(best, float(np.max(magnitude(batch))))
            return np.zeros(len(batch), dtype=complex)

        qr = integrate(v, region, running_max, plan, poles=poles)
        return QuadratureResult(value=best, stderr=0.0, samples=qr.samples)

    if p < 1:
        raise ValueError("p must be at least 1")

    def integrand(batch: PointBatch):
        return magnitude(batch) ** p + 0j

    qr = integrate(v, region, integrand, plan, poles=poles)
    val = max(np.real(qr.value), 0.0)
    norm = val ** (1.0 / p)
    se = qr.stderr / (p * val ** (1.0 - 1.0 / p)) if val > 0 else qr.stderr
    return QuadratureResult(value=norm, stderr=se, samples=qr.samples,
                            strata=qr.strata, discarded=qr.discarded)
