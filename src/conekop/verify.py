"""Experiment harness: scaling laws, moduli, decay laws, homotopy identities.

Every experiment produces an ExperimentReport with fitted exponents and
confidence intervals next to their predicted values, a residual table, and a
pass/fail verdict at its tolerance (scaled by tolerance_scale).  Experiments
are deterministic given the sampling plan seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, operators
from .forms import TestForm
from .kernels import WeightConfig, annulus_bounds
from .sampling import (
    MIN_PER_STRATUM,
    Region,
    SamplingPlan,
    _complex_normal,
    _sphere_area,
    _stream,
    integrate,
    estimate_v,
    project_to_surface,
    surface_point_with_norm,
    tangent_frame,
)
from .varieties import ConeVariety, row_norm

__all__ = [
    "CSV_COLUMNS",
    "ExperimentReport",
    "FitResult",
    "InsufficientDecadesError",
    "fit_loglog",
    "fit_linear",
    "EXPERIMENTS",
    "run_experiment",
]


CSV_COLUMNS = ["experiment", "variety", "param", "predicted", "fitted",
               "ci_lo", "ci_hi", "verdict"]


class InsufficientDecadesError(ValueError):
    pass


@dataclass
class FitResult:
    slope: float
    intercept: float
    stderr: float
    ci_lo: float
    ci_hi: float
    r2: float
    npoints: int


def _ols(x: np.ndarray, y: np.ndarray) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = x.size
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - slope * x - intercept
    dof = max(m - 2, 1)
    se = float(math.sqrt(np.sum(resid**2) / dof / sxx))
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sst if sst > 0 else 1.0
    return FitResult(slope, intercept, se, slope - 1.96 * se, slope + 1.96 * se,
                     r2, m)


def fit_loglog(x, y) -> FitResult:
    """Power-law exponent by least squares on log-log data."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 3:
        raise ValueError("not enough positive data for a log-log fit")
    return _ols(np.log(x[keep]), np.log(y[keep]))


def fit_linear(x, y) -> FitResult:
    return _ols(np.asarray(x, float), np.asarray(y, float))


@dataclass
class ExperimentReport:
    name: str
    variety: str
    parameters: dict
    fitted: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    verdict: bool = True
    seed: int = 0

    def record_fit(self, key: str, fit: FitResult, predicted, tol=None):
        """Store a fitted quantity and fold its check into the verdict."""
        self.fitted[key] = {
            "value": fit.slope,
            "ci_lo": fit.ci_lo,
            "ci_hi": fit.ci_hi,
            "stderr": fit.stderr,
            "r2": fit.r2,
        }
        self.predicted[key] = predicted
        if tol is not None:
            ok = abs(fit.slope - predicted) <= tol
            self.checks[key] = bool(ok)
            self.verdict = self.verdict and ok

    def record_value(self, key: str, value, predicted, r2=1.0):
        """Store a scalar quantity as a degenerate fit: zero-width CI, no check."""
        self.fitted[key] = {"value": value, "ci_lo": value, "ci_hi": value,
                            "stderr": 0.0, "r2": r2}
        self.predicted[key] = predicted

    def record_check(self, key: str, ok: bool):
        self.checks[key] = bool(ok)
        self.verdict = self.verdict and bool(ok)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "variety": self.variety,
            "parameters": _plain(self.parameters),
            "fitted": _plain(self.fitted),
            "predicted": _plain(self.predicted),
            "rows": _plain(self.rows),
            "checks": _plain(self.checks),
            "verdict": bool(self.verdict),
            "seed": int(self.seed),
        }

    def csv_rows(self) -> list[dict]:
        """One row per fitted quantity, then one per check without a fit."""
        def row(key, predicted, fitted, ci_lo, ci_hi, ok):
            return dict(zip(CSV_COLUMNS, (self.name, self.variety, key, predicted,
                                          fitted, ci_lo, ci_hi,
                                          "pass" if ok else "fail")))

        out = [row(key, self.predicted.get(key, ""), f["value"], f["ci_lo"],
                   f["ci_hi"], self.checks.get(key, self.verdict))
               for key, f in self.fitted.items()]
        out += [row(key, "", "", "", "", ok) for key, ok in self.checks.items()
                if key not in self.fitted]
        return out


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)  # before int: bool is an int subclass
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def _origin(v: ConeVariety) -> np.ndarray:
    return np.zeros(v.ambient_dim, dtype=complex)


def _z_grid(v: ConeVariety, norms, seed: int) -> list[np.ndarray]:
    return [surface_point_with_norm(v, r, seed=seed + 17 * i)
            for i, r in enumerate(norms)]


def _pair_along(v: ConeVariety, p: np.ndarray, e: np.ndarray, delta: float):
    """Two points of X about p, separated by approximately delta along e."""
    z = project_to_surface(v, p + 0.5 * delta * e)
    w = project_to_surface(v, p - 0.5 * delta * e)
    return z, w, float(row_norm(z - w))


# ---------------------------------------------------------------------------
# radial scaling
# ---------------------------------------------------------------------------


def run_radial_scaling(v: ConeVariety, plan: SamplingPlan,
                       cfg: WeightConfig | None = None,
                       tolerance_scale: float = 1.0,
                       alphas=(1.0, 2.0, 3.0), r_lo: float = 0.01,
                       r_hi: float = 1.0) -> ExperimentReport:
    """Radial integrals around the cone point: power laws below 2n, log law at 2n."""
    n = v.dim
    if r_hi / r_lo < 99.0:
        raise InsufficientDecadesError("radial grid must span at least 2 decades")
    z = _origin(v)
    alpha_log = 2.0 * n
    all_alphas = list(alphas) + [alpha_log]
    radii = np.geomspace(r_lo, r_hi, 9)

    def shell_integrand(batch):
        d = batch.dist(z)
        return np.stack([d**-a for a in all_alphas], axis=-1) + 0j

    def core_integrand(batch):
        # the alpha = 2n component is not integrable over the core ball and
        # is never needed there, so the core estimates only the true alphas
        d = batch.dist(z)
        return np.stack([d**-a for a in alphas], axis=-1) + 0j

    parts = len(radii) + 1
    masses = np.zeros((len(radii), len(all_alphas)))
    errs = np.zeros_like(masses)
    core = integrate(v, Region.ball(z, radii[0]), core_integrand,
                     plan.part("rs_core", parts, allocation="equal"),
                     poles=[(z, max(alphas))])
    masses[0, : len(alphas)] = np.real(np.atleast_1d(core.value))
    errs[0, : len(alphas)] = np.atleast_1d(core.stderr)
    for i in range(len(radii) - 1):
        qr = integrate(v, Region.annulus(z, radii[i], radii[i + 1]), shell_integrand,
                       plan.part(f"rs{i}", parts, allocation="equal"))
        masses[i + 1] = np.real(np.atleast_1d(qr.value))
        errs[i + 1] = np.atleast_1d(qr.stderr)

    report = ExperimentReport("radial_scaling", v.name,
                              {"alphas": list(alphas), "alpha_log": alpha_log,
                               "r_lo": r_lo, "r_hi": r_hi,
                               "z_norm": 0.0},
                              seed=plan.seed)
    inner = np.cumsum(masses, axis=0)  # I(0, r_k)
    suffix = np.cumsum(masses[::-1], axis=0)[::-1]  # sums of shells above index
    for ai, a in enumerate(alphas):
        fit = fit_loglog(radii, inner[:, ai])
        report.record_fit(f"slope_alpha_{a:g}", fit, 2 * n - a,
                          tol=0.05 * tolerance_scale)
        for k, r in enumerate(radii):
            report.rows.append({"alpha": a, "r": float(r),
                                "integral": float(inner[k, ai]),
                                "stderr": float(np.sqrt(np.sum(errs[: k + 1, ai] ** 2)))})
    # log case: I(r_k, R) = mass strictly above r_k, linear in |log r_k|
    li = len(all_alphas) - 1
    ys = suffix[1:, li]
    xs = np.abs(np.log(radii[:-1]))
    fit_log = fit_linear(xs, ys)
    report.record_value("log_case_r2", fit_log.r2, 1.0, r2=fit_log.r2)
    report.record_check("log_case_linear", fit_log.r2 > 0.99 and fit_log.slope > 0)
    for k in range(len(radii) - 1):
        report.rows.append({"alpha": alpha_log, "r": float(radii[k]),
                            "outer_integral": float(ys[k])})
    return report


# ---------------------------------------------------------------------------
# two-pole products
# ---------------------------------------------------------------------------


def run_two_pole(v: ConeVariety, plan: SamplingPlan,
                 cfg: WeightConfig | None = None, tolerance_scale: float = 1.0,
                 alpha: float = 1.0, beta: float = 1.0) -> ExperimentReport:
    """Product of two radial poles: bounded, log, or power regime in |z - w|."""
    n = v.dim
    deltas = np.geomspace(5e-3, 0.64, 9)
    region = Region.domain(1.0, v.ambient_dim)
    # one base point and one direction for every separation, as in the Hölder
    # experiments, so the fitted slope sees only the separation
    p = surface_point_with_norm(v, 0.45, seed=plan.seed)
    e = tangent_frame(v, p)[0]
    vals, errv, seps = [], [], []
    for i, d in enumerate(deltas):
        z, w, sep = _pair_along(v, p, e, d)

        def integrand(batch, z=z, w=w):
            return batch.dist(z) ** -alpha * batch.dist(w) ** -beta + 0j

        qr = integrate(v, region, integrand, plan.part(f"tp{i}", len(deltas)),
                       poles=[(z, alpha), (w, beta)])
        vals.append(np.real(qr.value))
        errv.append(qr.stderr)
        seps.append(sep)

    report = ExperimentReport("two_pole", v.name,
                              {"alpha": alpha, "beta": beta,
                               "regime": "bounded" if alpha + beta < 2 * n
                               else ("log" if alpha + beta == 2 * n else "power")},
                              seed=plan.seed)
    fit = fit_loglog(seps, vals)
    s = alpha + beta
    if s < 2 * n:
        report.record_fit("separation_slope", fit, 0.0, tol=0.05 * tolerance_scale)
    elif s > 2 * n:
        report.record_fit("separation_slope", fit, 2 * n - s,
                          tol=0.10 * tolerance_scale)
    else:
        lf = fit_linear(np.abs(np.log(seps)), vals)
        report.record_fit("separation_slope", fit, 0.0, tol=None)
        report.record_value("log_fit_r2", lf.r2, 1.0, r2=lf.r2)
        report.record_check("log_regime_linear", lf.r2 > 0.95)
    for d, val, e in zip(seps, vals, errv):
        report.rows.append({"separation": float(d), "integral": float(val),
                            "stderr": float(e)})
    return report


# ---------------------------------------------------------------------------
# double-exponential annuli with a log weight
# ---------------------------------------------------------------------------


def run_log_annulus(v: ConeVariety, plan: SamplingPlan,
                    cfg: WeightConfig | None = None,
                    tolerance_scale: float = 1.0) -> ExperimentReport:
    """Uniformity in m of the log-weighted annulus integrals."""
    n = v.dim
    alpha, m_list = 4.0, range(3)
    report = ExperimentReport("log_annulus", v.name,
                              {"alpha": alpha, "beta": 0.0, "m_list": list(m_list)},
                              seed=plan.seed)

    def integrand(batch):
        nz = np.maximum(batch.norms(), 1e-300)
        return nz**-alpha / np.abs(np.log(nz)) + 0j

    vals = []
    for m in m_list:
        lo, hi = annulus_bounds(m)
        qr = integrate(v, Region.annulus(_origin(v), lo, hi), integrand,
                       plan.part(f"la{m}", len(m_list)))
        vals.append(np.real(qr.value))
        report.rows.append({"m": m, "integral": float(np.real(qr.value)),
                            "stderr": float(qr.stderr)})
    spread = max(vals) / max(min(vals), 1e-300)
    report.record_value("m_uniformity_ratio", spread, 1.0)
    report.record_check("m_uniform_bounded", spread < 3.0 * tolerance_scale)

    # single-log annulus integrals around a surface point are m-uniform
    zc = surface_point_with_norm(v, 0.5, seed=plan.seed + 7)

    def loglog_integrand(batch):
        d = batch.dist(zc)
        return d ** -(2 * n) / np.abs(np.log(d)) + 0j

    ll_vals = []
    for m in m_list:
        lo, hi = annulus_bounds(m)
        qr = integrate(v, Region.annulus(zc, lo, hi), loglog_integrand,
                       plan.part(f"ll{m}", len(m_list), r_min=0.3 * lo))
        ll_vals.append(np.real(qr.value))
        report.rows.append({"m": m, "loglog_integral": float(np.real(qr.value)),
                            "stderr": float(qr.stderr)})
    spread = max(ll_vals) / max(min(ll_vals), 1e-300)
    report.record_check("loglog_uniform", spread < 3.0 * tolerance_scale)
    return report


# ---------------------------------------------------------------------------
# off-center balls
# ---------------------------------------------------------------------------


def run_offcenter_ball(v: ConeVariety, plan: SamplingPlan,
                       cfg: WeightConfig | None = None,
                       tolerance_scale: float = 1.0) -> ExperimentReport:
    """Ball integrals of an off-center pole: bound r^(2n - alpha) uniform in w."""
    n = v.dim
    alpha, z_norm = 1.0, 0.5
    r_list = (0.025, 0.05, 0.1, 0.2, 0.4)
    z = surface_point_with_norm(v, z_norm, seed=plan.seed)
    fr = tangent_frame(v, z)
    report = ExperimentReport("offcenter_ball", v.name,
                              {"alpha": alpha, "z_norm": z_norm,
                               "r_list": list(r_list)}, seed=plan.seed)
    ratios = {}
    for mode in ("concentric", "disjoint", "interior"):
        vals = []
        for i, r in enumerate(r_list):
            if mode == "concentric":
                w = z
            elif mode == "disjoint":
                w = project_to_surface(v, z + 2.5 * r * fr[0])
            else:
                w = project_to_surface(v, z + 0.5 * r * fr[0])

            def integrand(batch, w=w):
                return batch.dist(w) ** -alpha + 0j

            qr = integrate(v, Region.ball(z, r), integrand,
                           plan.part(f"oc{mode}{i}", 3 * len(r_list)),
                           poles=[(w, alpha)])
            vals.append(np.real(qr.value))
            report.rows.append({"mode": mode, "r": float(r),
                                "integral": float(np.real(qr.value)),
                                "stderr": float(qr.stderr),
                                "normalized": float(np.real(qr.value) / r ** (2 * n - alpha))})
        normalized = np.array(vals) / np.asarray(r_list) ** (2 * n - alpha)
        ratios[mode] = float(normalized.max() / max(normalized.min(), 1e-300))
        if mode == "concentric":
            fit = fit_loglog(r_list, vals)
            report.record_fit("concentric_slope", fit, 2 * n - alpha,
                              tol=0.1 * tolerance_scale)
    worst = max(ratios.values())
    report.record_value("normalized_spread", worst, 1.0)
    report.record_check("uniform_bound", worst < 5.0 * tolerance_scale)
    return report


# ---------------------------------------------------------------------------
# Hölder modulus of the component kernels
# ---------------------------------------------------------------------------


def kernel_direction_derivative(theta: np.ndarray, e: np.ndarray, i: int,
                                n: int) -> np.ndarray:
    """Derivative along e of u -> conj(u_i)/|u|^(2n) at unit vectors theta.

    Equals conj(e_i) - 2n conj(theta_i) Re<theta, e>; at |u| = r it scales as
    r^(-2n).
    """
    re_dot = np.real(theta @ np.conj(e))
    return np.conj(e[i]) - 2 * n * np.conj(theta[..., i]) * re_dot


def hoelder_log_coefficient(v: ConeVariety, p: np.ndarray, e: np.ndarray,
                            seed: int) -> float:
    """Sharp constant b of the modulus law delta * (a + b |log delta|).

    b is the integral over the unit sphere of T_pX of |d_e K~_0|, where e
    is the unit direction of the separation.  Estimated as the sphere area
    times a Monte Carlo mean; 2e6 points give a relative error below 1e-3.
    """
    n = v.dim
    samples, batch = 2_000_000, 250_000
    fr = tangent_frame(v, p)
    rng = _stream(seed, f"hoelder_b|{v.name}", 0)
    total = 0.0
    for start in range(0, samples, batch):
        c = _complex_normal(rng, min(batch, samples - start), n)
        c /= row_norm(c)[:, None]
        total += float(np.sum(np.abs(kernel_direction_derivative(c @ fr, e, 0, n))))
    return _sphere_area(n) * total / samples


def run_hoelder_modulus(v: ConeVariety, plan: SamplingPlan,
                        cfg: WeightConfig | None = None,
                        tolerance_scale: float = 1.0,
                        gamma: float = 0.0) -> ExperimentReport:
    """First-difference mass of the component kernel K~_0 against the separation.

    The modulus omega(delta) = int_X |K~_0(., z) - K~_0(., w)| over the unit ball,
    with z - w = delta e at one base point p (|p| = 0.5) and one tangent
    direction e, follows the sharp law delta * (a + b |log delta|) up to
    O(delta^2 |log delta|): the kernels are C^alpha for every alpha < 1 but
    not Lipschitz.  The radial weight is smooth near p, so b is the same for
    every gamma.  Gated: the slope of omega / delta against |log delta| lies
    within 10% of the predicted b (`hoelder_log_coefficient`).  Reported
    only: the log-log power-law slope, whose local value 1 - 1/(a/b + |log
    delta|) stays below 0.9 on [1e-3, 1e-1] for the measured a/b of 1.1-1.4.
    """
    n = v.dim
    if not 0 <= gamma <= v.total_degree - v.nu:
        raise operators.ExponentRangeError("gamma outside [0, d - nu]")
    comp, delta_lo, delta_hi = 0, 1e-3, 1e-1
    deltas = np.geomspace(delta_lo, delta_hi, 9)
    region = Region.domain(1.0, v.ambient_dim)
    p = surface_point_with_norm(v, 0.5, seed=plan.seed)
    e = tangent_frame(v, p)[0]
    vals, seps, errs = [], [], []
    for i, d in enumerate(deltas):
        z, w, sep = _pair_along(v, p, e, d)

        def integrand(batch, z=z, w=w):
            zeta = batch.positions
            nz = batch.norms()
            ok = nz > 1e-300
            kz = kernels.model_k_tilde(zeta, z, gamma, comp, n)
            kw = kernels.model_k_tilde(zeta, w, gamma, comp, n)
            return np.where(ok, np.abs(kz - kw), 0.0) + 0j

        qr = integrate(v, region, integrand, plan.part(f"hm{i}", len(deltas)),
                       poles=[(z, 2 * n - 1), (w, 2 * n - 1), (_origin(v), gamma)])
        vals.append(np.real(qr.value))
        seps.append(sep)
        errs.append(qr.stderr)

    report = ExperimentReport("hoelder", v.name,
                              {"gamma": gamma, "component": comp,
                               "delta_range": [delta_lo, delta_hi]},
                              seed=plan.seed)
    report.record_fit("modulus_slope", fit_loglog(seps, vals), 0.9)
    # log-corrected model: modulus / separation against |log separation|
    lc = fit_linear(np.abs(np.log(seps)), np.asarray(vals) / np.asarray(seps))
    b = hoelder_log_coefficient(v, p, e, plan.seed)
    # The two-term fit leaves out the O(delta) term of omega / delta, which
    # moves the fitted b by up to ~5% on this grid; the stderr adds ~2%.  A
    # 10% band covers both and still rejects a Lipschitz modulus (b = 0).
    report.record_fit("modulus_log_coefficient", lc, b,
                      tol=0.10 * b * tolerance_scale)
    report.record_value("log_corrected_r2", lc.r2, 1.0, r2=lc.r2)
    for d, val, e in zip(seps, vals, errs):
        report.rows.append({"separation": float(d), "modulus": float(val),
                            "stderr": float(e)})
    return report


# ---------------------------------------------------------------------------
# cut-off decay
# ---------------------------------------------------------------------------


def run_cutoff_decay(v: ConeVariety, plan: SamplingPlan,
                     cfg: WeightConfig | None = None,
                     tolerance_scale: float = 1.0) -> ExperimentReport:
    """Decay of the dbar mass of the double-exponential cut-offs."""
    n = v.dim
    k_list = (1, 2, 3, 4)
    p = 4.0
    per = max(plan.samples // len(k_list), MIN_PER_STRATUM)
    report = ExperimentReport("cutoff_decay", v.name,
                              {"k_list": list(k_list), "p": p}, seed=plan.seed)

    def dbar_mu_norm(batch, k):
        # dbar mu_k is radial and P zeta = zeta (Euler), so its intrinsic
        # (0,1) norm is the ambient one times 2^(1/4); no projector needed
        coeffs = kernels.dbar_mu_coeffs(batch.positions, k)
        return 2.0 ** 0.25 * np.linalg.norm(coeffs, axis=-1)

    norms = []
    for k in k_list:
        lo, hi = annulus_bounds(k)
        qr = integrate(v, Region.annulus(_origin(v), lo, hi),
                       lambda batch, k=k: dbar_mu_norm(batch, k) ** (2 * n) + 0j,
                       plan.part(f"cd{k}", len(k_list)))
        val = max(np.real(qr.value), 0.0) ** (1.0 / (2 * n))
        norms.append(val)
        report.rows.append({"k": k, "dbar_mu_l2n_norm": float(val),
                            "stderr": float(qr.stderr)})

    decreasing = all(norms[i + 1] < norms[i] for i in range(len(norms) - 1))
    report.record_check("strictly_decreasing", decreasing)
    v1, v3 = norms[0], norms[2]
    report.record_check("halving", v3 < 0.5 * v1 * tolerance_scale)
    report.record_value("decay_ratio_3_1", v3 / v1, 0.5)

    # support confinement: dbar mu_k vanishes off the stated annulus
    k = k_list[0]
    lo, hi = annulus_bounds(k)
    probes = np.concatenate([
        surface_point_with_norm(v, hi * 3.0, seed=plan.seed + 5)[None, :],
        surface_point_with_norm(v, lo / 3.0, seed=plan.seed + 6)[None, :],
        surface_point_with_norm(v, 0.5, seed=plan.seed + 7)[None, :],
    ])
    off_mass = float(np.max(np.abs(kernels.dbar_mu_coeffs(probes, k))))
    report.record_check("support_confined", off_mass == 0.0)
    inside_probe = surface_point_with_norm(v, math.sqrt(lo * hi), seed=plan.seed + 8)
    on_mass = float(np.max(np.abs(kernels.dbar_mu_coeffs(inside_probe[None, :], k))))
    report.record_check("support_nonempty", on_mass > 0.0)
    report.record_check("mu_is_one_at_moderate_radii",
                        float(kernels.mu_value(probes[2:3], k)[0]) == 1.0)

    # lambda relation: for bounded inputs the wedge mass vanishes in L^lambda
    lam = 1.0 / (1.0 / p + 1.0 / (2 * n))
    lam_norms = []
    for k in k_list:
        lo, hi = annulus_bounds(k)
        qr = integrate(v, Region.annulus(_origin(v), lo, hi),
                       lambda batch, k=k: dbar_mu_norm(batch, k) ** lam + 0j,
                       plan.sub(f"cdl{k}", samples=per // 2))
        lam_norms.append(max(np.real(qr.value), 0.0) ** (1.0 / lam))
        report.rows.append({"k": k, "lambda": lam,
                            "dbar_mu_wedge_llambda": float(lam_norms[-1])})
    report.record_check("lambda_norm_decreasing",
                        all(lam_norms[i + 1] < lam_norms[i]
                            for i in range(len(lam_norms) - 1)))
    return report


# ---------------------------------------------------------------------------
# homotopy identities
# ---------------------------------------------------------------------------


def flat_bm_residuals(plan: SamplingPlan, z_norms=(0.1, 0.2, 0.3, 0.38, 0.44)):
    """Reproduction of a compactly supported function from its dbar via B alone.

    Runs on the hyperplane model, where chi = 1 on supp phi: there the
    density of B ^ dbar phi is K's closed form kernels.density_K on
    the (0,1) input dbar phi.  The region, the pole at z and the streams are
    criterion 2's own, not apply_K's.  Returns rows of (phi(z), estimate,
    residual, stderr).
    """
    from .varieties import get_variety

    v = get_variety("hyperplane")
    cfg = WeightConfig()
    phi = TestForm.radial_bump(v.ambient_dim, 0.5, 0.8)
    dphi = phi.dbar()
    rows = []
    for i, znorm in enumerate(z_norms):
        z = surface_point_with_norm(v, znorm, seed=plan.seed + i)
        phi_z = complex(phi.eval_scalar(z[None, :])[0])
        qr = operators._integrate_kernel(
            v, Region.domain(0.8 * 1.05, v.ambient_dim), dphi, z, cfg,
            plan.sub(f"bm{i}"), poles=[(z, 2 * v.dim - 1)])
        est = complex(np.atleast_1d(qr.value)[0])
        rows.append({"z_norm": znorm, "phi_z": phi_z, "estimate": est,
                     "residual": abs(phi_z - est), "stderr": float(qr.stderr)})
    return rows


def run_koppelman_q0(v: ConeVariety, plan: SamplingPlan,
                     cfg: WeightConfig | None = None,
                     tolerance_scale: float = 1.0, rel_tol: float = 0.05,
                     scale_mode: str = "grid") -> ExperimentReport:
    """Residual of the q = 0 homotopy identity for the test form catalog.

    scale_mode picks the reference for the relative tolerance: the test
    function's scale over the whole grid ("grid") or |phi(z)| pointwise
    ("pointwise"); the statistical floor 3 * stderr applies either way.
    """
    cfg = cfg or WeightConfig()
    N = v.ambient_dim
    z_norms = (0.25, 0.4, 0.55, 0.7, 0.85)
    report = ExperimentReport("koppelman_q0", v.name,
                              {"z_norms": list(z_norms), "rel_tol": rel_tol,
                               "scale_mode": scale_mode,
                               "rho1": cfg.rho1, "rho2": cfg.rho2},
                              seed=plan.seed)
    zs = _z_grid(v, z_norms, plan.seed)

    phis = [TestForm.holomorphic_monomial(N, [1, 1] + [0] * (N - 2)),
            TestForm.zbar_bump(N, 0, 0.6 * cfg.rho2, 0.95 * cfg.rho2)]

    for phi in phis:
        dphi = phi.dbar() if phi.window is not None else None
        scale = max(float(np.max(np.abs(phi.eval_scalar(np.stack(zs))))), 1e-12)
        worst = 0.0
        all_ok = True
        for i, z in enumerate(zs):
            phi_z = complex(phi.eval_scalar(z[None, :])[0])
            pv, pqr = operators.apply_P(
                v, phi, z, cfg,
                plan.sub(f"kopP{phi.label}{i}", samples=max(plan.samples // 4, 4096)))
            se = pqr.stderr
            kv = 0.0 + 0j
            if dphi is not None:
                kc, kqr = operators.apply_K(
                    v, dphi, z, cfg, plan.sub(f"kopK{phi.label}{i}"))
                kv = complex(kc[0])
                se = math.hypot(se, float(np.max(np.atleast_1d(kqr.stderr))))
            resid = abs(phi_z - pv - kv)
            ref = abs(phi_z) if scale_mode == "pointwise" else scale
            tol = max(3.0 * se, rel_tol * ref) * tolerance_scale
            ok = resid <= tol
            all_ok = all_ok and ok
            worst = max(worst, resid / max(tol, 1e-300))
            report.rows.append({"phi": phi.label, "z_norm": float(z_norms[i]),
                                "phi_z": _plain(phi_z), "P_phi": _plain(complex(pv)),
                                "K_dbar_phi": _plain(kv), "residual": float(resid),
                                "stderr": float(se), "tolerance": float(tol),
                                "pass": bool(ok)})
        report.record_check(f"identity_{phi.label}", all_ok)
        report.record_value(f"worst_ratio_{phi.label}", worst, 1.0)
    return report


def run_koppelman_q1_loose(v: ConeVariety, plan: SamplingPlan,
                           cfg: WeightConfig | None = None,
                           tolerance_scale: float = 1.0,
                           fd_step: float = 0.02) -> ExperimentReport:
    """Loose finite-difference probe of the q = 1 identity (not a gate).

    All shifted evaluations reuse one random stream (common random numbers),
    otherwise the finite differences are noise-dominated.
    """
    cfg = cfg or WeightConfig()
    N, n = v.ambient_dim, v.dim
    phi = TestForm.one_form_bump(N, comp=0, j_bar=1, r_lo=0.6 * cfg.rho2,
                                 r_hi=0.95 * cfg.rho2)
    z_norm, rel_tol = 0.45, 0.10
    z = surface_point_with_norm(v, z_norm, seed=plan.seed)
    fr = tangent_frame(v, z)

    def kphi(zz):
        c, _ = operators.apply_K(v, phi, zz, cfg, plan.sub("q1crn"))
        return complex(c[0])

    h = fd_step
    fd = []
    for kdir in range(n):
        tau = fr[kdir]
        zp = project_to_surface(v, z + h * tau)
        zm = project_to_surface(v, z - h * tau)
        zip_ = project_to_surface(v, z + 1j * h * tau)
        zim = project_to_surface(v, z - 1j * h * tau)
        dx = (kphi(zp) - kphi(zm)) / (2 * h)
        dy = (kphi(zip_) - kphi(zim)) / (2 * h)
        fd.append(0.5 * (dx + 1j * dy))
    fd = np.array(fd)

    kc, _ = operators.apply_K(v, phi.dbar(), z, cfg, plan.sub("q1kd"))
    amb = np.zeros(N, dtype=complex)
    for s, c in zip(operators.output_subsets(N, 1), kc):
        amb[s[0]] = c
    phi_amb = np.zeros(N, dtype=complex)
    for I, val in phi.eval(z[None, :]).items():
        phi_amb[I[0]] = val[0]
    rhs = np.array([np.sum((phi_amb - amb) * np.conj(fr[k])) for k in range(n)])

    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(fd))), 1e-12)
    resid = float(np.max(np.abs(fd - rhs)))
    report = ExperimentReport("koppelman_q1_loose", v.name,
                              {"z_norm": z_norm, "fd_step": fd_step,
                               "rel_tol": rel_tol}, seed=plan.seed)
    report.rows.append({"fd": _plain(fd.tolist()), "rhs": _plain(rhs.tolist()),
                        "residual": resid, "scale": scale})
    report.record_value("q1_residual_over_scale", resid / scale, 0.0)
    # informational: recorded but never gates the run
    report.checks["q1_loose_within_tol"] = bool(resid <= rel_tol * scale
                                                * tolerance_scale * 3)
    return report


# ---------------------------------------------------------------------------
# threshold probe, decay of the model operators
# ---------------------------------------------------------------------------


def run_lp_threshold(v: ConeVariety, plan: SamplingPlan,
                     cfg: WeightConfig | None = None,
                     tolerance_scale: float = 1.0,
                     r_min_list=(4e-2, 2e-2, 1e-2, 5e-3)) -> ExperimentReport:
    """Kernel-mass stability above the exponent threshold p_min, growth below it.

    p_stable = 2 where p_min < 1.6, else 2 p_min, and the p = 2 masses are
    reported ungated with the growth p* gamma - 2n that p* = 2 predicts."""
    n = v.dim
    th = v.thresholds()
    gamma = float(th.gamma)
    p_stable, p_divergent = (2.0 if th.p_min < 1.6 else 2.0 * th.p_min), 1.2
    z = surface_point_with_norm(v, 0.5, seed=plan.seed)
    nz_z = float(row_norm(z))
    report = ExperimentReport("lp_threshold", v.name,
                              {"gamma": gamma, "p_stable": p_stable,
                               "p_divergent": p_divergent, "threshold": th.p_min},
                              seed=plan.seed)
    parts = len(r_min_list) * (2 if p_stable == 2.0 else 3)

    def mass(p, r_min, tag):
        pstar = p / (p - 1.0)

        def integrand(batch):
            nz = np.maximum(batch.norms(), 1e-300)
            return (nz_z / nz) ** (pstar * gamma) * batch.dist(z) ** -(2 * n - 1) + 0j

        qr = integrate(v, Region.annulus(_origin(v), r_min, 1.0), integrand,
                       plan.part(f"lp{tag}", parts),
                       poles=[(z, 2 * n - 1)])
        return float(np.real(qr.value)), float(qr.stderr)

    stable_vals = []
    for i, rm in enumerate(r_min_list):
        val, se = mass(p_stable, rm, f"s{i}")
        stable_vals.append((val, se))
        report.rows.append({"p": p_stable, "r_min": rm, "mass": val, "stderr": se})
    diffs_ok = all(
        abs(stable_vals[i + 1][0] - stable_vals[i][0])
        <= 3.0 * math.hypot(stable_vals[i + 1][1], stable_vals[i][1])
        + 0.02 * abs(stable_vals[i][0]) * tolerance_scale
        for i in range(len(stable_vals) - 1)
    )
    report.record_check("stable_above_threshold", diffs_ok)

    if p_stable != 2.0:
        growth = 2.0 * gamma - 2 * n
        for i, rm in enumerate(r_min_list):
            val, se = mass(2.0, rm, f"o{i}")
            report.rows.append({
                "p": 2.0, "r_min": rm, "mass": val, "stderr": se, "gated": False,
                "predicted_growth": ("bounded" if growth < 0 else "log(1/r_min)"
                                     if growth == 0 else f"r_min^-{growth:g}")})

    div_vals = []
    for i, rm in enumerate(r_min_list):
        val, se = mass(p_divergent, rm, f"d{i}")
        div_vals.append(val)
        report.rows.append({"p": p_divergent, "r_min": rm, "mass": val, "stderr": se})
    fit = fit_loglog(1.0 / np.asarray(r_min_list), div_vals)
    pstar = p_divergent / (p_divergent - 1.0)
    predicted = max(pstar * gamma - 2 * n, 0.0)
    report.record_fit("divergence_exponent", fit, predicted, tol=None)
    return report


def run_tm_decay(v: ConeVariety, plan: SamplingPlan,
                 cfg: WeightConfig | None = None,
                 tolerance_scale: float = 1.0) -> ExperimentReport:
    """Decay of the cut-off model operators on the double-exponential annuli."""
    gamma = 1.0
    m_list = range(5)
    zs = _z_grid(v, (0.3, 0.5, 0.7), plan.seed)
    one = lambda b: np.ones(len(b), dtype=complex)
    report = ExperimentReport("tm_decay", v.name,
                              {"gamma": gamma, "m_list": list(m_list)},
                              seed=plan.seed)
    rms = []
    for m in m_list:
        vals = []
        for i, z in enumerate(zs):
            qr = operators.apply_T_m(v, one, z, gamma, m,
                                     plan.part(f"tm{m}z{i}", len(m_list) * len(zs)))
            vals.append(np.real(qr.value))
        rms.append(float(np.sqrt(np.mean(np.square(vals)))))
        report.rows.append({"m": m, "rms_over_grid": rms[-1]})
    report.record_check("tm_decreasing",
                        all(rms[i + 1] < rms[i] for i in range(len(rms) - 1)))
    return report


def run_truncation(v: ConeVariety, plan: SamplingPlan,
                   cfg: WeightConfig | None = None,
                   tolerance_scale: float = 1.0) -> ExperimentReport:
    """Convergence of the level-truncated model operators to the full one."""
    n = v.dim
    gamma = 1.0
    j_list = (10.0, 100.0, 1000.0)
    zs = _z_grid(v, (0.3, 0.5, 0.7), plan.seed)
    report = ExperimentReport("truncation", v.name,
                              {"gamma": gamma, "j_list": list(j_list)},
                              seed=plan.seed)
    norms = []
    for j in j_list:
        vals = []
        for i, z in enumerate(zs):

            def integrand(batch, z=z):
                k = kernels.model_k_gamma(batch.positions, z, gamma, n)
                return np.where(k > j, k, 0.0) + 0j

            qr = integrate(v, Region.domain(1.0, v.ambient_dim), integrand,
                           plan.part(f"tr{j}z{i}", len(j_list) * len(zs)),
                           poles=[(z, 2 * n - 1), (_origin(v), gamma)])
            vals.append(np.real(qr.value))
        norms.append(float(np.sqrt(np.mean(np.square(vals)))))
        report.rows.append({"j": float(j), "tail_rms": norms[-1]})
    report.record_check("truncation_tail_decreasing",
                        all(norms[i + 1] < norms[i] for i in range(len(norms) - 1)))
    return report


# ---------------------------------------------------------------------------
# volume ratio bounds
# ---------------------------------------------------------------------------


def run_v_bounds(v: ConeVariety, plan: SamplingPlan,
                 cfg: WeightConfig | None = None,
                 tolerance_scale: float = 1.0) -> ExperimentReport:
    """Monotonicity and positivity of the volume ratio, cone scale invariance."""
    z_norms = (0.0, 0.35, 0.5, 0.65, 0.8)
    r_grid = (0.05, 0.1, 0.2, 0.4, 0.8)
    parts = len(z_norms) * len(r_grid)
    report = ExperimentReport("v_bounds", v.name,
                              {"z_norms": list(z_norms), "r_grid": list(r_grid)},
                              seed=plan.seed)
    v_min, v_max = math.inf, 0.0
    mono_ok = True
    for i, znorm in enumerate(z_norms):
        z = _origin(v) if znorm == 0 else surface_point_with_norm(v, znorm,
                                                                  seed=plan.seed + i)
        vals, errs = [], []
        for k, r in enumerate(r_grid):
            qr = estimate_v(v, r, z, plan.part(f"v{i}r{k}", parts))
            vals.append(np.real(qr.value))
            errs.append(qr.stderr)
            report.rows.append({"z_norm": znorm, "r": float(r),
                                "v": float(np.real(qr.value)),
                                "stderr": float(qr.stderr)})
        v_min = min(v_min, min(vals))
        v_max = max(v_max, max(vals))
        for k in range(len(vals) - 1):
            if vals[k + 1] < vals[k] - 3.0 * math.hypot(errs[k], errs[k + 1]) \
               * tolerance_scale:
                mono_ok = False
    report.record_check("v_monotone_nondecreasing", mono_ok)
    report.record_check("v_min_positive", v_min > 0)
    report.record_value("v_min", v_min, 0.0)
    report.record_value("v_max", v_max, 0.0)

    # scale invariance at the cone point
    scale_vals, scale_errs = [], []
    for k, r in enumerate((0.25, 0.5, 1.0)):
        qr = estimate_v(v, r, _origin(v), plan.part(f"vs{k}", parts))
        scale_vals.append(np.real(qr.value))
        scale_errs.append(qr.stderr)
        report.rows.append({"z_norm": 0.0, "r": float(r), "v": float(np.real(qr.value)),
                            "stderr": float(qr.stderr), "scale_check": True})
    ok = all(
        abs(scale_vals[a] - scale_vals[b])
        <= 3.0 * math.hypot(scale_errs[a], scale_errs[b]) * tolerance_scale + 1e-12
        for a in range(3) for b in range(a + 1, 3)
    )
    report.record_check("cone_scale_invariance", ok)
    return report


EXPERIMENTS = {
    "radial_scaling": run_radial_scaling,
    "two_pole": run_two_pole,
    "log_annulus": run_log_annulus,
    "offcenter_ball": run_offcenter_ball,
    "hoelder": run_hoelder_modulus,
    "cutoff_decay": run_cutoff_decay,
    "koppelman_q0": run_koppelman_q0,
    "koppelman_q1_loose": run_koppelman_q1_loose,
    "lp_threshold": run_lp_threshold,
    "tm_decay": run_tm_decay,
    "truncation": run_truncation,
    "v_bounds": run_v_bounds,
}


def run_experiment(name: str, v: ConeVariety, plan: SamplingPlan,
                   cfg: WeightConfig | None = None,
                   tolerance_scale: float = 1.0) -> ExperimentReport:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"registered: {', '.join(sorted(EXPERIMENTS))}")
    fn = EXPERIMENTS[name]
    return fn(v, plan.with_(experiment_id=f"{name}:{v.name}"), cfg=cfg,
              tolerance_scale=tolerance_scale)
