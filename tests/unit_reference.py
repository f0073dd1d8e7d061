"""The work unit computed step by step, one temporary per formula: the reference.

sampling.integrate computes each per-point quantity once per work unit and
writes its temporaries in place.  The functions here keep the plain
formulas: a base draw built from a complex direction times a radius,
monomials from a constant array and every power of a column, the Jacobian
stacked row by row, the mixture density summed one stratum at a time, the
indicator, Gram factors and norms each computed from the points, and the
statistics combined in a running loop.  The tests compare integrate with
them bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np

from conekop import sampling
from conekop.sampling import PointBatch, QuadratureResult, StratumStat
from conekop.varieties import row_norm_sq


def sample_stratum(st, n: int, count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, 2 * n))
    g /= np.sqrt(np.sum(np.abs(g) ** 2, axis=-1))[:, None]
    dirs = g[:, :n] + 1j * g[:, n:]
    beta = 2 * n - st.power
    u = rng.random(count)
    lo_b = st.r_lo**beta
    hi_b = st.r_hi**beta
    r = (lo_b + u * (hi_b - lo_b)) ** (1.0 / beta)
    return st.center + dirs * r[:, None]


def eval_monomials(exps, coeffs, cols) -> np.ndarray:
    vals = np.zeros(np.shape(cols[0]), dtype=complex)
    for e, c in zip(exps.tolist(), coeffs):
        term = np.full(vals.shape, c)
        for j, k in enumerate(e):
            if k:
                term = term * cols[j] ** k
        vals += term
    return vals


def jacobian(v, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=complex)
    zero = np.zeros(pts.shape[:-1], dtype=complex)
    return np.stack([np.stack([zero if dp is None else dp(pts) for dp in row],
                              axis=-1)
                     for row in v._partials], axis=-2)


def radial_norm(st, n: int) -> float:
    beta = 2 * n - st.power
    if st.r_lo > 0:
        return beta / (st.r_hi**beta - st.r_lo**beta)
    return beta / st.r_hi**beta


def mixture_density(strata, fracs, bases, n: int) -> np.ndarray:
    """Sum over strata of f_k times stratum k's density, one at a time."""
    p = np.zeros(len(bases))
    for st, f in zip(strata, fracs):
        r = np.sqrt(np.sum(np.abs(bases - st.center) ** 2, axis=-1))
        inside = (r >= st.r_lo) & (r <= st.r_hi)
        rr = np.where(inside, np.maximum(r, 1e-300), 1.0)
        p += f * np.where(inside, radial_norm(st, n) * rr ** (-st.power)
                          / sampling._sphere_area(n), 0.0)
    return p


def gram_factors(v, chart, m) -> np.ndarray:
    m2 = np.abs(m) ** 2
    base = sum(1 << j for j in chart.base)
    k = [mask for mask, _ in sampling.minor_complements(v.ambient_dim, v.nu)].index(base)
    return np.sum(m2, axis=-1) / np.maximum(m2[..., k], 1e-300)


def integrate(v, region, integrand, plan, poles=(), chart=None, support=None):
    """sampling.integrate from the formulas above."""
    chart = chart or sampling.default_chart(v)
    n = v.dim
    strata = sampling._build_strata(v, region, chart, poles, plan)
    counts = sampling._allocate(strata, plan, n)
    total = int(counts.sum())
    fracs = counts / total
    s_sum = [np.zeros(1, dtype=complex)] * len(strata)
    s_sq = [np.zeros(1)] * len(strata)
    got_valid = np.zeros(len(strata), dtype=bool)
    K, discarded = 1, 0
    rngs = [sampling._stream(plan.seed, plan.experiment_id, si)
            for si in range(len(strata))]
    for unit in sampling._units(counts):
        bases = np.concatenate([sample_stratum(strata[si], n, bs, rngs[si])
                                for si, bs in unit])
        B = len(bases)
        rows = np.flatnonzero(sampling._may_reach(v, chart, support or region, bases))
        admissible = np.ones(B, dtype=bool)
        Y = np.zeros((B, K), dtype=complex)
        if rows.size:
            kept = bases[rows]
            pts, valid = sampling.solve_fiber(v, chart, kept)[:2]
            discarded += int(valid.size - valid.sum())
            admissible[rows] = np.any(valid, axis=1)
            d = np.sqrt(np.sum(np.abs(pts - region.center) ** 2, axis=-1))
            inside = valid & (d >= region.r_inner) & (d <= region.r_outer)
            S = inside.shape[1]
            flat = inside.reshape(-1)
            if np.any(flat):
                sel = pts.reshape(-1, pts.shape[-1])[flat]
                m = v.minors(sel)
                gsel = gram_factors(v, chart, m)
                fv = np.asarray(integrand(PointBatch(sel, gsel, m, row_norm_sq(m),
                                                     row_norm_sq(sel))))
                if fv.ndim == 1:
                    fv = fv[:, None]
                K = fv.shape[1]
                vals = np.zeros((flat.size, K), dtype=complex)
                vals[flat] = fv * gsel[:, None]
                Y = np.zeros((B, K), dtype=complex)
                Y[rows] = (vals.reshape(-1, S, K).sum(axis=1)
                           / mixture_density(strata, fracs, kept, n)[:, None])
        a = 0
        for si, bs in unit:
            e = a + bs
            got_valid[si] |= bool(np.any(admissible[a:e]))
            s_sum[si] = s_sum[si] + Y[a:e].sum(axis=0)
            s_sq[si] = s_sq[si] + np.sum(np.abs(Y[a:e]) ** 2, axis=0)
            a = e

    sums = np.zeros(K, dtype=complex)
    sqsums = np.zeros(K)
    stats = []
    for si, cnt in enumerate(counts):
        if not got_valid[si]:
            warnings.warn(f"stratum {si} received no admissible fiber points",
                          RuntimeWarning)
        mean = np.broadcast_to(s_sum[si], (K,)) / cnt
        var = np.maximum(s_sq[si] / cnt - np.abs(mean) ** 2, 0.0)
        var = var * cnt / max(cnt - 1, 1)
        se = np.sqrt(var / cnt)
        stats.append((mean, se, int(cnt)))
        sums += fracs[si] * mean
        sqsums += (fracs[si] * se) ** 2
    stderr = np.sqrt(sqsums)
    if K == 1:
        return QuadratureResult(
            complex(sums[0]), float(stderr[0]), total,
            [StratumStat(complex(m[0]), float(s[0]), c) for m, s, c in stats],
            discarded)
    return QuadratureResult(sums, stderr, total,
                            [StratumStat(m, s, c) for m, s, c in stats], discarded)
