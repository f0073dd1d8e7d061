"""Layer-cake oracle for radial integrals on X, used by the tests.

The integral of a nonincreasing radial profile g(|zeta - z|) over X cap
B_r_max(z) equals the integral over levels t of the volume of the set where
g > t.  Estimating that volume function from independent shell masses gives
an estimate that shares no integrand evaluation with integrate's direct one,
so the two can be checked against each other.
"""

from __future__ import annotations

import math

import numpy as np

from conekop.sampling import (MIN_PER_STRATUM, QuadratureResult, Region,
                              SamplingPlan, StratumStat, integrate)
from conekop.varieties import ConeVariety


class ProfileError(ValueError):
    pass


def layer_cake_integral(v: ConeVariety, g, z, r_max: float,
                        plan: SamplingPlan) -> QuadratureResult:
    """Integral of a nonincreasing radial profile via its distribution function.

    Estimates the volume function V(r) = Vol(X cap B_r(z)) on a geometric
    radius grid with independent per-shell mass estimates, then evaluates the
    layer-cake identity by a trapezoid rule in the level variable plus a
    power-law core extrapolation.  Serves as an independent oracle for the
    direct estimator on radial integrands.
    """
    n = v.dim
    z = np.asarray(z, dtype=complex)
    ratio = min(plan.shell_ratio, math.sqrt(2.0))
    r_lo = max(plan.r_min * r_max, 1e-12)
    m = max(int(math.ceil(math.log(r_max / r_lo) / math.log(ratio))), 4)
    radii = r_max * (r_lo / r_max) ** (np.arange(m, -1, -1) / m)

    t = np.asarray([float(g(r)) for r in radii])
    if np.any(t < 0):
        raise ProfileError("profile must be nonnegative")
    if np.any(np.diff(t) > 1e-12 * np.maximum(np.abs(t[:-1]), 1.0)):
        raise ProfileError("layer-cake evaluation requires a nonincreasing profile")

    per = max(plan.samples // (m + 1), MIN_PER_STRATUM)
    masses = np.zeros(m + 1)
    errs = np.zeros(m + 1)
    one = lambda b: np.ones(len(b), dtype=complex)
    core = integrate(v, Region.ball(z, radii[0]), one,
                     plan.sub("lc0", samples=per, allocation="equal"))
    masses[0], errs[0] = np.real(core.value), core.stderr
    for i in range(m):
        sh = integrate(v, Region.annulus(z, radii[i], radii[i + 1]), one,
                       plan.sub(f"lc{i + 1}", samples=per, allocation="equal"))
        masses[i + 1], errs[i + 1] = np.real(sh.value), sh.stderr

    def _interval(ta, la, tb, lb, trapezoid):
        # integral of the level function between levels tb < ta
        if ta <= tb or (la <= 0 and lb <= 0):
            return 0.0
        if trapezoid or la <= 0 or lb <= 0:
            return (ta - tb) * 0.5 * (la + lb)
        # log-log linear interpolation: exact for power-law volume growth
        s = math.log(la / lb) / math.log(ta / tb)
        if abs(1.0 + s) < 1e-9:
            return la * ta * math.log(ta / tb)
        return (ta * la - tb * lb) / (1.0 + s)

    def assemble(mass_vec, trapezoid=False):
        V = np.cumsum(mass_vec)
        total = t[-1] * V[-1]
        for i in range(m):
            # level t decreases with the radius index
            total += _interval(t[i], V[i], t[i + 1], V[i + 1], trapezoid)
        # power-law core below the smallest resolved radius
        if t[0] > t[1] and V[0] > 0 and V[1] > 0:
            s = math.log(V[0] / V[1]) / math.log(t[0] / t[1])
            if s >= -1.0 - 1e-9:
                raise ProfileError("core of the profile is not integrable on X")
            total += V[0] * t[0] / (-1.0 - s)
        return total

    value = assemble(masses)
    se_sq = 0.0
    for j in range(m + 1):
        bump = masses.copy()
        bump[j] += errs[j]
        se_sq += (assemble(bump) - value) ** 2
    # count the interpolation-model spread as discretization uncertainty
    se_sq += (assemble(masses, trapezoid=True) - value) ** 2 / 9.0
    return QuadratureResult(value=complex(value), stderr=math.sqrt(se_sq),
                            samples=(m + 1) * per,
                            strata=[StratumStat(complex(mv), ev, per)
                                    for mv, ev in zip(masses, errs)])

