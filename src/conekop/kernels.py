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
is ever formed.  One factor 1/(2 pi i)
enters per Hefer factor, so c_K = c_P = (2 pi i)^nu in every ambient
dimension: the top extraction reads kappa off u = e_top ^ kappa with no
reordering sign, and the flat kernel then coincides with the
Bochner-Martinelli kernel.  The calibrate experiment (verify.run_calibrate)
refits both constants on the flat model as the check.  These FormValue
kernels are the tests' reference; no operator calls them.

density_K and density_P give the densities of omega ^ k ^ phi and omega ^
p ^ phi on X in closed form, for every N, nu, n and q.  Two reductions make
that possible.  Next to its own support vector, dbar b == Theta / (2 pi i
Q) with Theta = sum_k e_k ^ (b_k - a_k): the s_j eta_k / Q^2 part of dbar b
is a multiple of b.  Likewise dbar sigma == -Theta_a / (2 pi i Q_s) with
Theta_a = sum_k e_k ^ a_k.  With Theta_b = Theta + Theta_a,
    Theta^p = sum_r C(p, r) Theta_b^r (-Theta_a)^(p-r),
and only r = q - 1 reaches the output, of dz-bar degree q - 1.  So K is two
terms and P one, each a per-point scalar times
    T(V, psi)_I = sum_{|S|=p, S n I = 0} det[V; e_S; e_I]
                  * sum_K sgn(S ++ K) psi_K Omega_(S u K)
for a stack of rows V and an a-form psi of degree n - p.  Omega_B = omega_B
/ c_vol is the surface density of a_B: the tangent plane's Plücker
coordinates satisfy conj(p_B) = |m| omega_B and sum_A omega_A p_A = 1/|m|.
det[V; e_S; e_I] = sgn(C ++ S ++ I) det V[:, C] with C = (S u I)^c, and the
minors of V come from Laplace expansion along each added row (_wedge_row).
Sorting Theta_a^p Theta_b^r psi to the order e, a, b gives the factor
p! r! (-1)^(p(p-1)/2 + r(r-1)/2 + rp + |psi| r) (_t_table).  With s =
conj(eta), eta = zeta - z, Q = |eta|^2 for b; s_s = conj(zeta_s), Q_s = s_s
. (zeta_s - z) for sigma at weight_g's safe zeta_s; gamma = chi'(|zeta|^2)
zeta, so that dbar chi = gamma . a; r = q - 1 and p = n - q:
    K, from chi B_n:          V = [H; s],      psi = phi,
        chi C(n-1, r) (-1)^p / (2 pi i Q)^n;
    K, from g_k ^ B_(n-k):    V = [H; s_s; s], psi = -gamma ^ phi,
        (-1)^p' sum_{k=1}^{n-1-r} C(n-k-1, r) / ((2 pi i Q_s)^k (2 pi i Q)^(n-k)),
        p' = p - 1;
    P, from g_n:              V = [H; s_s],    psi = gamma phi,
        (-1)^(n-1) / (2 pi i Q_s)^n.
The (2 pi i)^nu cancels the 1/(2 pi i) of each Hefer row h_i = H_i / (2 pi
i), so V's first rows are the H_i of hefer_coeffs.  Within rho1 chi = 1 and
gamma = +-0 exactly, so no row needs a branch, and for q = n the second K
term is an empty sum.  operators._kernel_integrand calls the densities on
the live rows, in blocks; verify.flat_bm_residuals integrates density_K
through it on the hyperplane, where chi = 1 on the input's support.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .forms import (FormValue, TWO_PI_I, Window, _volume_constant, _wedge_sign,
                    smoothstep, smoothstep_deriv)
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
    "density_K",
    "density_P",
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


def _support_series(s, Q, eta, n: int, N: int, dbar_b: bool) -> list[FormValue]:
    """The series [u, u ^ dbar u, ..., u ^ (dbar u)^(n-1)] of a support form.

    u = sum_j s_j e_j / (2 pi i Q) with Q = s . eta, so contraction with eta
    gives exactly 1.  dbar u has coefficients (delta_jk / Q - s_j eta_k / Q^2)
    / (2 pi i) on a_k - b_k for b (s = conj(eta), Q = |eta|^2, dbar_b) and
    on a_k alone for sigma (s = conj(zeta), Q = conj(zeta) . eta, holomorphic
    in z).  Makes exactly n - 1 wedges; pole checks are the caller's.
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
                if dbar_b:
                    terms[(1 << j) | (1 << (2 * N + k))] = m
        du = FormValue(N, terms)
        for _ in range(1, n):
            series.append(series[-1].wedge(du))
    return series


def bm_B(eta: np.ndarray, N: int, n: int) -> FormValue:
    """Full form B = b + b dbar(b) + ... + b (dbar b)^(n-1)."""
    eta = np.asarray(eta, dtype=complex)
    r2 = row_norm_sq(eta)
    if np.any(r2 == 0):
        raise PoleError("b evaluated at eta = 0")
    out = FormValue.zero(N)
    for term in _support_series(np.conj(eta), r2, eta, n, N, True):
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
    return _support_series(np.conj(zeta), Q, zeta - z, 1, N, False)[0]


def weight_g(zeta: np.ndarray, z: np.ndarray, cfg: WeightConfig, n: int,
             N: int) -> FormValue:
    """Compactly supported weight chi - dbar chi ^ sum_{k<n} sigma (dbar sigma)^k.

    Scalar 1 inside rho1, zero outside rho2.  Its part of e-degree k is g_0 =
    chi and g_k = -dbar chi ^ sigma (dbar sigma)^(k-1) for 1 <= k <= n.  The
    sigma factors only matter on the support of dbar chi, so zeta is
    replaced by (1, ..., 1) elsewhere to avoid spurious pole evaluations at
    zeta near z.
    """
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    chi = cfg.chi
    x = row_norm_sq(zeta)
    g = FormValue.scalar(N, chi.value(x, 0) + 0j)
    cd = chi.value(x, 1)
    zeta_safe = np.where((cd != 0.0)[..., None], zeta, np.ones_like(zeta))
    Q = _sigma_denominator(zeta_safe, z)
    if np.any(Q == 0):
        raise PoleError("sigma denominator vanished on supp dbar chi")
    dchi = FormValue(N, {1 << (N + j): cd * zeta[..., j] for j in range(N)})
    for term in _support_series(np.conj(zeta_safe), Q, zeta_safe - z, n, N, False):
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


def structure_norm_sq(v: ConeVariety, x: np.ndarray, m: np.ndarray,
                      msq: np.ndarray) -> np.ndarray:
    """msq = |m|^2 for the minors m = v.minors(zeta) at x = |zeta|^2, omega's
    denominator, once it passes the guards: PoleError where m = 0 and
    NearSingularError near the branch locus.
    """
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
    msq = structure_norm_sq(v, row_norm_sq(zeta), m, row_norm_sq(m))
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
             cfg: WeightConfig) -> FormValue:
    """Anti-generator factor k of the solution kernel K = omega ^ k at (zeta, z).

    A batched FormValue over dzeta-bar and dz-bar generators only; the pole
    at zeta = z has order 2n - 1.  The structure form omega, which
    contributes |zeta|^(nu - d) growth at the origin, is left to the caller.
    K applied to a (0, q) form reads the terms of dz-bar degree q - 1.
    """
    N, n = v.ambient_dim, v.dim
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    Bf = bm_B(zeta - z, N, n)
    # (g ^ B)_n graded: B has no e-degree 0 part, so g_k for k < n suffices
    g = weight_g(zeta, z, cfg, n, N)
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
    g = weight_g(zeta, z, cfg, n, N)
    return _top_with_hefer(v, zeta, z, g.bidegree_part(n))


# ---------------------------------------------------------------------------
# K and P densities in closed form
# ---------------------------------------------------------------------------
# Arrays here are per column: a vector over L points is N arrays of length L.
# A form is a dict from sorted index tuples to coefficients, with every tuple
# of its degree.


def _wedge_row(form: dict, v) -> dict:
    """form ^ v for a vector v: the minors of [A; v] if form holds A's."""
    k = len(next(iter(form)))
    out = {}
    for C in itertools.combinations(range(len(v)), k + 1):
        acc = v[C[k]] * form[C[:k]]
        for t in range(k):
            term = v[C[t]] * form[C[:t] + C[t + 1:]]
            acc = acc - term if (k - t) & 1 else acc + term
        out[C] = acc
    return out


@functools.lru_cache(maxsize=None)
def _t_table(N: int, nu: int, deg: int, r: int):
    """T(V, psi) for psi of degree deg and outputs of degree r.

    Returns p! r! (-1)^(p(p-1)/2 + r(r-1)/2 + rp + deg r) / c_vol and per
    output I the terms (C, K, k, sign) of det V[:, C] psi_K conj(m_k) / |m|^2,
    S u K being the complement of minor k.  Empty when p = n - deg < 0.
    """
    p = N - nu - deg
    comp = {mask: (k, sgn) for k, (mask, sgn) in enumerate(minor_complements(N, nu))}
    table = []
    for I in itertools.combinations(range(N), r):
        rest = [j for j in range(N) if j not in I]
        terms = []
        for S in itertools.combinations(rest, p) if p >= 0 else ():
            C = tuple(j for j in rest if j not in S)
            mc, ms, mi = (sum(1 << j for j in t) for t in (C, S, I))
            # sgn(C ++ S ++ I) and sgn(S ++ K), each from sorted runs
            sign = _wedge_sign(mc, ms) * _wedge_sign(mc | ms, mi)
            for K in itertools.combinations([j for j in range(N) if j not in S], deg):
                mk = sum(1 << j for j in K)
                k, sgn = comp[ms | mk]
                terms.append((C, K, k, sign * sgn * _wedge_sign(ms, mk)))
        table.append(tuple(terms))
    sign = (-1) ** (p * (p - 1) // 2 + r * (r - 1) // 2 + r * p + deg * r)
    scale = sign * math.factorial(max(p, 0)) * math.factorial(r)
    return scale / _volume_constant(N - nu), tuple(table)


def _t(v: ConeVariety, r: int, minors: dict, psi: dict, omega) -> list:
    """T(V, psi)_I per output I of degree r, from V's minors and omega's
    conj(m_k) / |m|^2 (_parts); V has N - p - r rows, p = n - deg(psi)."""
    scale, table = _t_table(v.ambient_dim, v.nu, len(next(iter(psi))), r)
    out = []
    for terms in table:
        acc = 0
        for C, K, k, sgn in terms:
            t = minors[C] * psi[K] * omega[k]
            acc = acc + t if sgn > 0 else acc - t
        out.append(scale * acc)
    return out


def _parts(v: ConeVariety, zeta, x, z, cfg: WeightConfig, m, msq, phi: dict, q: int):
    """Per-column pieces shared by K and P at the rows zeta (L, N) of X.

    Returns zeta, gamma = chi'(x) zeta, the s_s = conj(zeta_s) and 1 / (2 pi
    i Q_s) of sigma at weight_g's safe zeta_s, the minors of the Hefer rows
    H, omega for _t and the (0,q) input phi with its zero coefficients.
    """
    zc = np.ascontiguousarray(zeta.T)
    cd = cfg.chi.value(x, 1)
    # Q_s = |zeta_s|^2 - s_s . z, with |zeta_s|^2 = x or N
    ss = np.where(cd != 0.0, np.conj(zc), 1.0)
    Qs = np.where(cd != 0.0, x, float(len(z))) - z @ ss
    if np.any(Qs == 0):
        raise PoleError("sigma denominator vanished on supp dbar chi")
    H = np.ascontiguousarray(np.moveaxis(v.hefer_coeffs(zeta, z), 0, -1))
    hm = {(j,): h for j, h in enumerate(H[0])}
    for row in H[1:]:
        hm = _wedge_row(hm, row)
    omega = np.conjugate(m.T, order="C") * (1.0 / msq)
    zero = np.zeros(len(zeta), dtype=complex)
    phi = {I: phi.get(I, zero) for I in itertools.combinations(range(v.ambient_dim), q)}
    return zc, cd * zc, ss, 1.0 / (TWO_PI_I * Qs), hm, omega, phi


def density_K(v: ConeVariety, zeta, x, z, cfg: WeightConfig, m, msq, phi: dict,
              q: int) -> np.ndarray:
    """Density of omega ^ k ^ phi on X for a (0,q) input, (L, C(N, q - 1)).

    zeta (L, N) are points of X with squared norms x, m (L, C(N, nu)) their
    minors with squared norms msq, phi the input's coefficients by q-index
    (TestForm.eval).  Columns follow operators.output_subsets.
    """
    n, r, p = v.dim, q - 1, v.dim - q
    zc, gamma, ss, w, hm, omega, phi = _parts(v, zeta, x, z, cfg, m, msq, phi, q)
    eta = zc - z[:, None]
    s = np.conj(eta)
    u = (1.0 / np.sum(eta.real**2 + eta.imag**2, axis=0)) * (1.0 / TWO_PI_I)
    c1 = cfg.chi.value(x, 0) * (math.comb(n - 1, r) * (-1) ** p) * u**n
    # (-1)^(p - 1) of the expansion, and -gamma ^ phi = (-1)^(q + 1) phi ^ gamma
    c2 = (-1) ** (p + q) * sum(math.comb(n - k - 1, r) * w**k * u ** (n - k)
                               for k in range(1, n - r))
    t1 = _t(v, r, _wedge_row(hm, s), phi, omega)
    t2 = _t(v, r, _wedge_row(_wedge_row(hm, ss), s), _wedge_row(phi, gamma), omega)
    return np.stack([c1 * a + c2 * b for a, b in zip(t1, t2)], axis=1)


def density_P(v: ConeVariety, zeta, x, z, cfg: WeightConfig, m, msq,
              phi: dict) -> np.ndarray:
    """Density of omega ^ p ^ phi on X for a (0,0) input, (L, 1).

    Arguments as for density_K; phi holds the one coefficient at ().
    """
    _, gamma, ss, w, hm, omega, phi = _parts(v, zeta, x, z, cfg, m, msq, phi, 0)
    t, = _t(v, 0, _wedge_row(hm, ss), _wedge_row(phi, gamma), omega)
    return ((-1) ** (v.dim - 1) * w**v.dim * t)[:, None]


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
