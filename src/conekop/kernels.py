"""Kernel ingredients and assembly for the integral operators K and P.

Everything here evaluates pointwise on batches of points; nothing is ever
differentiated numerically.  The closed forms of every antiholomorphic
differential are built in:

    b        singular support form of Bochner-Martinelli type, normalized so
             that contraction with eta gives exactly 1,
    sigma    support form of the ball weight, again contraction-normalized,
    B        b + b dbar b + ... + b (dbar b)^(n-1),
    chi      radial cut-off (quintic smoothstep in |zeta|^2),
    g        compactly supported weight chi - dbar(chi) ^ (sigma + sigma dbar
             sigma + ... + sigma (dbar sigma)^(n-1)),
    omega    structure form of the cone, conjugate Jacobian minors over the
             squared minors norm,
    h        Hefer form from divided differences.

B and g come from one series builder, _support_series, which stops at the
last power it returns.  The kernels are K = omega ^ k and P = omega ^ p, and
kernel_K, kernel_P return the z-dependent factors
    k = c_K * top_extract(h ^ sum_{j<n} g_j ^ B_(n-j))
    p = c_P * top_extract(h ^ g_n)
where the subscript is the e-degree, so only the e-degree n part of g ^ B
is ever formed (FormValue.surface_density contracts omega in).  Nothing
else that no output reads is formed either: weight_g builds g_0 ... g_(n-1)
for k and g_n alone for p, and B keeps the dz-bar degrees up to the one K's
output reads (none for a (0,1) input).  Every row takes the same path;
within rho1 the terms of g past g_0 = 1 are exactly +-0.  One factor
1/(2 pi i) enters per Hefer factor, so c_K = c_P = (2 pi i)^nu in every
ambient dimension: the top extraction reads kappa off u = e_top ^ kappa with
no reordering sign, and the flat kernel then coincides with the
Bochner-Martinelli kernel.  The calibrate experiment (verify.run_calibrate)
refits both constants on the flat model as the check.

On a surface (n = 2) with an output of dz-bar degree 0 (K on a (0,1) input,
P on a (0,0) input) surface_density_K and surface_density_P give the
density of omega ^ k ^ phi and omega ^ p ^ phi in closed form, with no
FormValue.  Each dbar of a support form carries exactly one dzeta-bar;
contracting it with the input leaves a vector, and top(h_1 ^ ... ^ h_nu ^ x
^ y) is the determinant with rows h_1, ..., h_nu, x, y.  With Omega_B =
omega_B / c_vol, extended antisymmetrically to Omega~, chi = chi(|zeta|^2),
gamma = chi'(|zeta|^2) zeta and D(s, eta, Q) x = (s (eta . x) / Q^2 - x / Q)
/ (2 pi i):
    K:  (2 pi i)^nu det[h, beta, chi D(s, eta, Q) Psi + (gamma . Psi) tau],
        Psi = Omega~ phi,
    P:  (2 pi i)^nu f det[h, tau, D(s_s, eta_s, Q_s) Omega~ gamma],
for b's terms s = conj(eta), eta = zeta - z, Q = |eta|^2, beta = s / (2 pi
i Q), and sigma's terms s_s = conj(zeta_s), eta_s = zeta_s - z, Q_s = s_s .
eta_s, tau = s_s / (2 pi i Q_s) at weight_g's safe zeta_s.  The (2 pi i)^nu
cancels the 1/(2 pi i) of each Hefer row h_i = H_i / (2 pi i), so the rows
are the H_i of hefer_coeffs.  Within rho1 chi = 1 and gamma = +-0 exactly,
so no row needs a branch.  Other dimensions and degrees take the FormValue
kernels, which the tests also hold the closed form to.  Either way
operators._kernel_integrand hands the density the same rows: the live ones,
in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import (FormValue, TWO_PI_I, Window, _volume_constant, smoothstep,
                    smoothstep_deriv)
from .varieties import (ConeVariety, _require_regular, minor_complements, row_norm,
                        row_norm_sq)

__all__ = [
    "WeightConfig",
    "PoleError",
    "bm_B",
    "sigma_form",
    "weight_g",
    "hefer_form",
    "structure_form",
    "structure_norm_sq",
    "kernel_K",
    "kernel_P",
    "surface_density_K",
    "surface_density_P",
    "model_k_gamma",
    "model_k_tilde",
    "k_gamma_truncated",
    "t_k_kernel",
    "annulus_bounds",
    "mu_value",
    "dbar_mu_coeffs",
    "rho_transition",
    "radial_transfer",
]


class PoleError(ValueError):
    pass


@dataclass(frozen=True)
class WeightConfig:
    """Cut-off geometry: chi is 1 inside rho1, 0 outside rho2 < Omega'."""

    rho1: float = 1.0
    rho2: float = 1.8
    omega_prime_radius: float = 2.0

    def __post_init__(self):
        if not 0 < self.rho1 < self.rho2 <= self.omega_prime_radius:
            raise ValueError("need 0 < rho1 < rho2 <= omega_prime_radius")

    @property
    def chi(self) -> Window:
        """The cut-off chi as a window in |zeta|^2: 1 up to x0, 0 from x1."""
        return Window(self.rho1, self.rho2)


# ---------------------------------------------------------------------------
# support forms: Bochner-Martinelli b and the ball weight sigma
# ---------------------------------------------------------------------------


def _support_series(s, Q, eta, n: int, N: int, zbar_degree: int) -> list[FormValue]:
    """The series [u, u ^ dbar u, ..., u ^ (dbar u)^(n-1)] of a support form.

    u = sum_j s_j e_j / (2 pi i Q) with Q = s . eta, so contraction with eta
    gives exactly 1.  dbar u has coefficients (delta_jk / Q - s_j eta_k / Q^2)
    / (2 pi i) on a_k - b_k for b (s = conj(eta), Q = |eta|^2) and on a_k
    alone for sigma (s = conj(zeta), Q = conj(zeta) . eta, holomorphic in z:
    zbar_degree 0).  Terms of dz-bar degree above zbar_degree are never
    formed.  Makes exactly n - 1 wedges; pole checks are the caller's.
    """
    tq = TWO_PI_I * Q
    series = [FormValue(N, {1 << j: s[..., j] / tq for j in range(N)})]
    if n > 1:
        q2 = Q**2
        # delta_jk / Q, indexed by j == k
        delta_q = (0.0 / Q, 1.0 / Q)
        terms = {}
        for j in range(N):
            for k in range(N):
                m = (delta_q[j == k] - s[..., j] * eta[..., k] / q2) / TWO_PI_I
                # (a_k - b_k) ^ e_j reordered to canonical e-first storage
                terms[(1 << j) | (1 << (N + k))] = -m
                if zbar_degree > 0:
                    terms[(1 << j) | (1 << (2 * N + k))] = m
        du = FormValue(N, terms)
        bmask = ((1 << N) - 1) << (2 * N)
        for k in range(1, n):
            term = series[-1].wedge(du)
            if 0 < zbar_degree < k:
                term = FormValue(N, {m: c for m, c in term.terms.items()
                                     if (m & bmask).bit_count() <= zbar_degree})
            series.append(term)
    return series


def bm_B(eta: np.ndarray, N: int, n: int,
         zbar_degree: int | None = None) -> FormValue:
    """Full form B = b + b dbar(b) + ... + b (dbar b)^(n-1).

    Only its terms of dz-bar degree <= zbar_degree are formed; the default
    n - 1 keeps them all.
    """
    eta = np.asarray(eta, dtype=complex)
    r2 = row_norm_sq(eta)
    if np.any(r2 == 0):
        raise PoleError("b evaluated at eta = 0")
    zbar_degree = n - 1 if zbar_degree is None else zbar_degree
    out = FormValue.zero(N)
    for term in _support_series(np.conj(eta), r2, eta, n, N, zbar_degree):
        out = out + term
    return out


def _sigma_denominator(zeta, z):
    # Q = |zeta|^2 - conj(zeta) . z = conj(zeta) . eta
    return np.sum(np.conj(zeta) * (zeta - z), axis=-1)


def sigma_form(zeta: np.ndarray, z: np.ndarray, N: int) -> FormValue:
    """Contraction-normalized ball-weight form: coefficients zeta_bar / (2 pi i Q)."""
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    Q = _sigma_denominator(zeta, z)
    if np.any(Q == 0):
        raise PoleError("sigma denominator vanished (z outside the inner ball)")
    return _support_series(np.conj(zeta), Q, zeta - z, 1, N, 0)[0]


def weight_g(zeta: np.ndarray, z: np.ndarray, cfg: WeightConfig, n: int,
             N: int, degrees=None) -> FormValue:
    """Compactly supported weight chi - dbar chi ^ sum_{k<n} sigma (dbar sigma)^k.

    Scalar 1 inside rho1, zero outside rho2.  Only the parts of e-degree in
    degrees are formed (default all, 0..n): g_0 = chi and g_k = -dbar chi ^
    sigma (dbar sigma)^(k-1), so the sigma series stops at the highest
    degree asked for.  The sigma factors only matter on the support of
    dbar chi, so zeta is replaced by (1, ..., 1) elsewhere to avoid spurious
    pole evaluations at zeta near z.
    """
    degrees = range(n + 1) if degrees is None else degrees
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    chi = cfg.chi
    x = row_norm_sq(zeta)
    g = FormValue.scalar(N, chi.value(x, 0) + 0j) if 0 in degrees else FormValue.zero(N)
    cd = chi.value(x, 1)
    zeta_safe = np.where((cd != 0.0)[..., None], zeta, np.ones_like(zeta))
    Q = _sigma_denominator(zeta_safe, z)
    if np.any(Q == 0):
        raise PoleError("sigma denominator vanished on supp dbar chi")
    dchi = FormValue(N, {1 << (N + j): cd * zeta[..., j] for j in range(N)})
    series = _support_series(np.conj(zeta_safe), Q, zeta_safe - z, max(degrees), N, 0)
    for k, term in enumerate(series, 1):
        if k in degrees:
            g = g - dchi.wedge(term)
    return g


# ---------------------------------------------------------------------------
# variety-bound factors
# ---------------------------------------------------------------------------


def hefer_form(v: ConeVariety, zeta: np.ndarray, z: np.ndarray) -> FormValue:
    """Product h_1 ^ ... ^ h_nu with contract_eta(h_i) = f_i(zeta) - f_i(z)."""
    H = v.hefer_coeffs(zeta, z)
    N = v.ambient_dim
    out = FormValue.scalar(N, 1.0 + 0j)
    for i in range(v.nu):
        terms = {1 << j: H[..., i, j] / TWO_PI_I for j in range(N)}
        out = out.wedge(FormValue(N, terms))
    return out


def structure_norm_sq(v: ConeVariety, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """|m|^2 for the minors m = v.minors(zeta) at x = |zeta|^2, omega's denominator.

    Raises PoleError where m = 0 and NearSingularError near the branch locus.
    """
    msq = row_norm_sq(m)
    if np.any(msq == 0):
        raise PoleError("structure form evaluated at a singular point")
    _require_regular(v, x, np.sqrt(msq))
    return msq


def structure_form(v: ConeVariety, zeta: np.ndarray, m: np.ndarray) -> FormValue:
    """(n,0) form of conjugated Jacobian minors over the squared minors norm.

    m = v.minors(zeta); m_I sits on e_{I^c} with the sign of the permutation
    (I, I^c).  Coefficient norms scale like |zeta|^(nu - d); the origin is a
    genuine singularity whenever d > nu.  Near-singular points raise
    NearSingularError.
    """
    return _omega_form(v, m, structure_norm_sq(v, row_norm_sq(zeta), m))


def _omega_form(v: ConeVariety, m: np.ndarray, msq: np.ndarray) -> FormValue:
    """omega from the minors m and their squared norms msq = structure_norm_sq."""
    return FormValue(v.ambient_dim, {
        mask: sgn * np.conj(m[..., k]) / msq
        for k, (mask, sgn) in enumerate(minor_complements(v.ambient_dim, v.nu))})


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------


def _top_with_hefer(v: ConeVariety, zeta, z, part: FormValue) -> FormValue:
    """(2 pi i)^nu * top_extract(h ^ part), the tail shared by k and p."""
    return TWO_PI_I ** v.nu * hefer_form(v, zeta, z).wedge(part).extract_top_eta()


def kernel_K(v: ConeVariety, zeta: np.ndarray, z: np.ndarray,
             cfg: WeightConfig, zbar_degree: int | None = None) -> FormValue:
    """Anti-generator factor k of the solution kernel K = omega ^ k at (zeta, z).

    A batched FormValue over dzeta-bar and dz-bar generators only; the pole
    at zeta = z has order 2n - 1.  The structure form omega, which
    contributes |zeta|^(nu - d) growth at the origin, is left to the caller.
    Only terms of dz-bar degree <= zbar_degree are formed (default all);
    K applied to a (0, q) form reads degree q - 1.
    """
    N, n = v.ambient_dim, v.dim
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    Bf = bm_B(zeta - z, N, n, zbar_degree)
    # (g ^ B)_n graded: B has no e-degree 0 part, so g_k for k < n suffices
    g = weight_g(zeta, z, cfg, n, N, range(n))
    part = FormValue.zero(N)
    for k in range(n):
        part = part + g.bidegree_part(k).wedge(Bf.bidegree_part(n - k))
    return _top_with_hefer(v, zeta, z, part)


def kernel_P(v: ConeVariety, zeta: np.ndarray, z: np.ndarray,
             cfg: WeightConfig) -> FormValue:
    """Factor p of P = omega ^ p; zero off the cut-off annulus, holomorphic in z."""
    N, n = v.ambient_dim, v.dim
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    g = weight_g(zeta, z, cfg, n, N, (n,))
    return _top_with_hefer(v, zeta, z, g)


# ---------------------------------------------------------------------------
# K and P on surfaces in closed form
# ---------------------------------------------------------------------------
# Arrays here are per column: a vector field over L points is an (N, L)
# array, so every entry of a determinant is one contiguous array.


def _det(rows):
    """Determinant of a square matrix of per-point arrays, by cofactors."""
    if len(rows) == 1:
        return rows[0][0]
    out = None
    for j, a in enumerate(rows[0]):
        t = a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        out = t if out is None else out - t if j % 2 else out + t
    return out


def _dbar_support(s, eta, Q, x):
    """D(s, eta, Q) x = (s (eta . x) / Q^2 - x / Q) / (2 pi i).

    D's entries are the e_j ^ a_k coefficients of dbar of the support form
    s / (2 pi i Q), the negative of _support_series's m.
    """
    return (s * (np.sum(eta * x, axis=0) / Q**2) - x / Q) / TWO_PI_I


def _omega_apply(v: ConeVariety, m, msq, x):
    """Omega~ x for the antisymmetric extension Omega~ of Omega_B = omega_B / c_vol.

    m = v.minors(zeta), shape (L, C(N, nu)), and msq = |m|^2.
    """
    out = np.zeros_like(x)
    scale = 1.0 / (_volume_constant(2) * msq)
    for k, (mask, sgn) in enumerate(minor_complements(v.ambient_dim, v.nu)):
        a, b = (j for j in range(v.ambient_dim) if mask >> j & 1)
        om = sgn * np.conj(m[:, k]) * scale
        out[a] += om * x[b]
        out[b] -= om * x[a]
    return out


def _surface_parts(v: ConeVariety, zeta, x, z, cfg: WeightConfig):
    """Per-column pieces shared by k and p at the rows zeta (L, N), x = |zeta|^2.

    Returns zeta by columns, chi'(x), the (s, eta, Q) of sigma on the safe
    zeta_s of weight_g, and the Hefer rows H_i as lists of arrays.
    """
    zc = np.ascontiguousarray(zeta.T)
    cd = cfg.chi.value(x, 1)
    zs = np.where(cd != 0.0, zc, 1.0)
    s, eta = np.conj(zs), zs - z[:, None]
    Q = np.sum(s * eta, axis=0)
    if np.any(Q == 0):
        raise PoleError("sigma denominator vanished on supp dbar chi")
    H = np.ascontiguousarray(np.moveaxis(v.hefer_coeffs(zeta, z), 0, -1))
    return zc, cd, (s, eta, Q), [list(h) for h in H]


def surface_density_K(v: ConeVariety, zeta, x, z, cfg: WeightConfig, m, msq,
                      phi: dict) -> np.ndarray:
    """Density of omega ^ k ^ phi on a surface X for a (0,1) input.

    zeta (L, N) are points of X with squared norms x, m (L, C(N, nu)) their
    minors with squared norms msq, phi the input's coefficients by 1-index
    (TestForm.eval).
    """
    N = v.ambient_dim
    zc, cd, (ss, es, Qs), H = _surface_parts(v, zeta, x, z, cfg)
    eta = zc - z[:, None]
    s = np.conj(eta)
    Q = np.sum(eta.real**2 + eta.imag**2, axis=0)
    zero = np.zeros(len(zeta), dtype=complex)
    psi = _omega_apply(v, m, msq, np.stack([phi.get((j,), zero) for j in range(N)]))
    w = (cfg.chi.value(x, 0) * _dbar_support(s, eta, Q, psi)
         + np.sum(cd * zc * psi, axis=0) * ss / (TWO_PI_I * Qs))
    return _det(H + [list(s / (TWO_PI_I * Q)), list(w)])


def surface_density_P(v: ConeVariety, zeta, x, z, cfg: WeightConfig, m, msq,
                      phi: dict) -> np.ndarray:
    """Density of omega ^ p ^ phi on a surface X for a (0,0) input.

    Arguments as for surface_density_K; phi holds the one coefficient at ().
    """
    zc, cd, (ss, es, Qs), H = _surface_parts(v, zeta, x, z, cfg)
    rho = _omega_apply(v, m, msq, cd * zc)
    tau = ss / (TWO_PI_I * Qs)
    return phi[()] * _det(H + [list(tau), list(_dbar_support(ss, es, Qs, rho))])


# ---------------------------------------------------------------------------
# model kernels
# ---------------------------------------------------------------------------


def _radial_weight(zeta, z, gamma: float):
    """(|z| / |zeta|)^gamma; zeta = 0 is a pole."""
    nz = row_norm(zeta)
    if np.any(nz == 0):
        raise PoleError("model kernel at zeta = 0 with gamma > 0")
    return (row_norm(z) / nz) ** gamma


def model_k_gamma(zeta, z, gamma: float, n: int):
    """|z|^gamma / (|zeta|^gamma |zeta - z|^(2n-1)), the model pole kernel."""
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    dz = row_norm(zeta - z)
    if np.any(dz == 0):
        raise PoleError("model kernel at zeta = z")
    out = dz ** -(2 * n - 1)
    if gamma != 0:
        out = out * _radial_weight(zeta, z, gamma)
    return out


def model_k_tilde(zeta, z, gamma: float, i: int, n: int):
    """Component kernel conj(zeta_i - z_i)/|zeta-z|^(2n) with the radial ratio weight."""
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    diff = zeta - z
    dz2 = row_norm_sq(diff)
    if np.any(dz2 == 0):
        raise PoleError("model kernel at zeta = z")
    out = np.conj(diff[..., i]) / dz2**n
    if gamma != 0:
        out = out * _radial_weight(zeta, z, gamma)
    return out


def k_gamma_truncated(zeta, z, gamma: float, j: float, n: int):
    k = model_k_gamma(zeta, z, gamma, n)
    return np.where(k > j, 0.0, k)


def annulus_bounds(m: int) -> tuple[float, float]:
    """Double-exponential annulus radii (e^-e^(m+1), e^-e^m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > 5:
        raise ValueError("radii underflow double precision beyond m = 5")
    return math.exp(-math.exp(m + 1)), math.exp(-math.exp(m))


def t_k_kernel(zeta, z, gamma: float, k: int, n: int):
    """Model cut-off kernel supported on the k-th double-exponential annulus."""
    lo, hi = annulus_bounds(k)
    zeta = np.asarray(zeta, dtype=complex)
    nz = row_norm(zeta)
    inside = (nz >= lo) & (nz <= hi)
    base = model_k_gamma(zeta, z, gamma, n)
    nz_safe = np.where(inside, nz, 0.5)
    return np.where(inside, base / (nz_safe * np.abs(np.log(nz_safe))), 0.0)


# ---------------------------------------------------------------------------
# double-exponential cut-off functions
# ---------------------------------------------------------------------------


def rho_transition(x, k: int):
    """Smooth 1 -> 0 transition on [k, k+1]; slope bounded by 1.875 < 2."""
    return 1.0 - smoothstep(np.asarray(x, dtype=float) - k)


def _rho_deriv(x, k: int):
    return -smoothstep_deriv(np.asarray(x, dtype=float) - k)


def radial_transfer(x):
    """Smooth increasing map: identity below 1/4, constant 1/2 above 3/4, |r'| <= 1."""
    x = np.asarray(x, dtype=float)
    u = np.clip(2.0 * (x - 0.25), 0.0, 1.0)
    # integral of (1 - smoothstep) from 0 to u
    anti = u - (u**6 - 3.0 * u**5 + 2.5 * u**4)
    mid = 0.25 + 0.5 * anti
    return np.where(x <= 0.25, x, np.where(x >= 0.75, 0.5, mid))


def _radial_transfer_deriv(x):
    x = np.asarray(x, dtype=float)
    u = np.clip(2.0 * (x - 0.25), 0.0, 1.0)
    mid = 1.0 - smoothstep(u)
    return np.where(x <= 0.25, 1.0, np.where(x >= 0.75, 0.0, mid))


def mu_value(zeta, k: int):
    """Cut-off mu_k = rho_k(log(-log r(|zeta|))): 1 away from 0, 0 near 0."""
    nz = row_norm(np.asarray(zeta, dtype=complex))
    r = np.maximum(radial_transfer(nz), 1e-300)  # underflow guard
    return rho_transition(np.log(-np.log(r)), k)


def dbar_mu_coeffs(zeta, k: int) -> np.ndarray:
    """Ambient dzeta-bar coefficient vector of dbar mu_k (closed form)."""
    zeta = np.asarray(zeta, dtype=complex)
    nz = row_norm(zeta)
    nz_safe = np.maximum(nz, 1e-300)
    r = np.maximum(radial_transfer(nz), 1e-300)
    logr = np.log(r)
    y = np.log(-logr)
    pref = _rho_deriv(y, k) * _radial_transfer_deriv(nz) / (r * logr)
    pref = pref / (2.0 * nz_safe)
    return pref[..., None] * zeta
