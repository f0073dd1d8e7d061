"""Exterior algebra engine over ambient complex generators.

The generator universe for ambient dimension N consists of 3N anticommuting
generators, indexed by bit position in a mask:

    bits 0..N-1      e_j  : holomorphic generators (d eta_j, alias d zeta_j)
    bits N..2N-1     a_j  : antiholomorphic generators in the integration
                            variable (d zeta_bar_j)
    bits 2N..3N-1    b_j  : antiholomorphic generators in the output
                            variable (d z_bar_j)

A form value is a sparse map from canonically ordered generator subsets
(ascending bit order) to complex coefficients.  Coefficients may be scalars
or numpy arrays, so a single FormValue can hold a whole batch of pointwise
evaluations; all operations broadcast over the batch axis.

The antiholomorphic differential of eta = zeta - z is expanded eagerly as
a_j - b_j by the kernel constructors, so no eta-bar generator exists here.
"""

from __future__ import annotations

import numpy as np

from .varieties import MultiIndexPoly, eval_monomials, row_norm_sq

__all__ = [
    "FormValue",
    "TestForm",
    "UniverseMismatchError",
    "Window",
    "WrongDegreeError",
    "DegreeOverflowError",
    "smoothstep",
    "smoothstep_deriv",
]

TWO_PI_I = 2j * np.pi


class UniverseMismatchError(ValueError):
    """Operands live over different generator universes."""


class WrongDegreeError(ValueError):
    """Top extraction applied to a form that is not of full e-degree."""


class DegreeOverflowError(ValueError):
    """Surface pullback of a form whose zeta-bar degree exceeds dim X."""


# Signs of wedge reorderings recur for a handful of mask pairs, so memoize.
_SIGN_CACHE: dict[tuple[int, int], int] = {}


def _wedge_sign(ma: int, mb: int) -> int:
    """Sign of reordering (sorted ma) wedge (sorted mb) into canonical order."""
    key = (ma, mb)
    s = _SIGN_CACHE.get(key)
    if s is None:
        inv = 0
        b = mb
        while b:
            low = b & -b
            i = low.bit_length() - 1
            inv += (ma >> (i + 1)).bit_count()
            b ^= low
        s = -1 if inv & 1 else 1
        _SIGN_CACHE[key] = s
    return s


def _volume_constant(n: int) -> complex:
    """c_vol in dV = c_vol dw_1..dw_n ^ dwbar_1..dwbar_n, w unitary coordinates."""
    return (0.5j) ** n * (-1.0 if (n * (n - 1) // 2) & 1 else 1.0)


def _is_zero(c) -> bool:
    if isinstance(c, np.ndarray):
        return False  # batch coefficients are kept even if momentarily zero
    return c == 0


class FormValue:
    """Sparse element of the exterior algebra over 3N generators."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms: dict | None = None):
        self.N = N
        self.terms = {} if terms is None else terms

    # ----- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, N: int, value) -> "FormValue":
        return cls(N, {0: value})

    @classmethod
    def zero(cls, N: int) -> "FormValue":
        return cls(N, {})

    @classmethod
    def generator(cls, N: int, kind: str, j: int, coeff=1.0) -> "FormValue":
        """Single generator term; kind is one of 'e', 'a', 'b'."""
        offset = {"e": 0, "a": N, "b": 2 * N}[kind]
        return cls(N, {1 << (offset + j): coeff})

    # ----- mask helpers -------------------------------------------------

    def e_mask(self) -> int:
        return (1 << self.N) - 1

    def _check(self, other: "FormValue"):
        if self.N != other.N:
            raise UniverseMismatchError(
                f"generator universes differ: N={self.N} vs N={other.N}"
            )

    # ----- linear structure ----------------------------------------------

    def __add__(self, other: "FormValue") -> "FormValue":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if _is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return FormValue(self.N, out)

    def __sub__(self, other: "FormValue") -> "FormValue":
        return self + (-1.0) * other

    def __neg__(self) -> "FormValue":
        return (-1.0) * self

    def __rmul__(self, c) -> "FormValue":
        if _is_zero(c):
            return FormValue.zero(self.N)
        return FormValue(self.N, {m: c * v for m, v in self.terms.items()})

    # ----- graded multiplication ------------------------------------------

    def wedge(self, other: "FormValue") -> "FormValue":
        self._check(other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                s = _wedge_sign(ma, mb)
                m = ma | mb
                c = ca * cb if s == 1 else -(ca * cb)
                if m in out:
                    acc = out[m] + c
                    if _is_zero(acc):
                        del out[m]
                    else:
                        out[m] = acc
                else:
                    out[m] = c
        return FormValue(self.N, out)

    # ----- interior multiplication -----------------------------------------

    def contract_eta(self, eta: np.ndarray) -> "FormValue":
        """Interior product with the field 2 pi i * sum eta_j d/d(eta_j).

        Acts on e-generators only, as an antiderivation of degree -1.
        eta has shape (N,) or (batch, N); coefficients broadcast.
        """
        eta = np.asarray(eta)
        out: dict = {}
        emask = self.e_mask()
        for m, c in self.terms.items():
            eb = m & emask
            while eb:
                low = eb & -eb
                j = low.bit_length() - 1
                below = (m & (low - 1)).bit_count()
                sgn = -1.0 if below & 1 else 1.0
                coeff = (sgn * TWO_PI_I) * eta[..., j] * c
                mm = m ^ low
                if mm in out:
                    out[mm] = out[mm] + coeff
                else:
                    out[mm] = coeff
                eb ^= low
        return FormValue(self.N, out)

    # ----- degree bookkeeping ------------------------------------------------

    def bidegree_part(self, e_degree: int) -> "FormValue":
        """Terms carrying exactly e_degree holomorphic generators."""
        emask = self.e_mask()
        return FormValue(
            self.N,
            {m: c for m, c in self.terms.items() if (m & emask).bit_count() == e_degree},
        )

    def restricted_to_dim(self, n: int) -> "FormValue":
        """Drop terms whose zeta-bar degree exceeds n.

        Such terms vanish identically on any n-dimensional complex
        submanifold, so this is the restriction a surface pullback implies.
        """
        amask = self.e_mask() << self.N
        return FormValue(
            self.N,
            {m: c for m, c in self.terms.items() if (m & amask).bit_count() <= n},
        )

    def extract_top_eta(self) -> "FormValue":
        """Solve u = (e_1 ^ ... ^ e_N) ^ kappa for the anti-generator form kappa.

        Storage is e-first, so kappa_S is the coefficient of the mask
        e_top | S as it stands: no reordering sign.
        """
        emask = self.e_mask()
        out: dict = {}
        for m, c in self.terms.items():
            if m & emask != emask:
                raise WrongDegreeError("term without full e-degree in top extraction")
            out[m ^ emask] = c
        return FormValue(self.N, out)

    # ----- restriction to the surface ----------------------------------------

    def pullback_surface(self, plucker: dict) -> dict[int, np.ndarray]:
        """Densities of the (n,n) top part against dV_X, per dz-bar subset.

        plucker maps the bit mask of each n-subset A of the ambient
        coordinates to the batched Plücker coordinate p_A of the tangent
        plane, det F[:, A] for an orthonormal tangent frame F up to a unit
        phase per point.  A term c e_A ^ a_B ^ (dz-bar) has density
        c p_A conj(p_B) / c_vol; z-bar generators survive as output indices.
        The normalization is fixed so that the pullback of the induced volume
        form of X has density exactly 1 at the empty dz-bar subset.
        """
        n = next(iter(plucker)).bit_count()
        emask = self.e_mask()
        amask = emask << self.N
        c_vol = _volume_constant(n)
        out: dict[int, np.ndarray] = {}
        for m, c in self.terms.items():
            ae = m & emask
            aa = (m & amask) >> self.N
            if aa.bit_count() > n:
                raise DegreeOverflowError("zeta-bar degree exceeds dim X")
            if ae.bit_count() != n or aa.bit_count() != n:
                continue  # only the (n,n) part in zeta survives integration
            dens = c * plucker[ae] * np.conj(plucker[aa]) / c_vol
            bkey = m >> (2 * self.N)
            out[bkey] = out[bkey] + dens if bkey in out else dens
        return out

    def surface_density(self, omega: "FormValue") -> dict[int, np.ndarray]:
        """pullback_surface of omega ^ self, for the structure form omega of X.

        self carries no dzeta generators.  By Hodge duality the tangent plane's
        Plücker coordinates satisfy sum_A omega_A p_A = 1/|m| and conj(p_B) =
        |m| omega_B, so a term c a_B ^ (dz-bar) has density c omega_B / c_vol.
        """
        self._check(omega)
        n = next(iter(omega.terms)).bit_count()
        emask = self.e_mask()
        amask = emask << self.N
        c_vol = _volume_constant(n)
        out: dict[int, np.ndarray] = {}
        for m, c in self.terms.items():
            if m & emask:
                raise WrongDegreeError("surface density of a form with dzeta generators")
            aa = (m & amask) >> self.N
            if aa.bit_count() > n:
                raise DegreeOverflowError("zeta-bar degree exceeds dim X")
            if aa.bit_count() != n:
                continue  # only the (n,n) part in zeta survives integration
            dens = c * omega.terms[aa] / c_vol
            bkey = m >> (2 * self.N)
            out[bkey] = out[bkey] + dens if bkey in out else dens
        return out

    def tangent_norm(self, proj: np.ndarray) -> np.ndarray:
        """Intrinsic pointwise norm of a pure (0,q) form on the tangent planes.

        proj holds the batched orthogonal projectors P onto the holomorphic
        tangent planes (see sampling.PointBatch.projector).  By Cauchy-Binet
        the coefficients c_L of the form in any orthonormal coframe satisfy
        sum_L |c_L|^2 = sum_{I,K} c_I conj(c_K) det P[K, I], so no frame is
        needed.  A single antiholomorphic coframe differential has norm
        2^(1/4) per degree: the value is (sqrt(2)^q sum_L |c_L|^2)^(1/2).
        """
        emask = self.e_mask()
        cols = []
        for m, c in self.terms.items():
            if m & emask or m >> (2 * self.N):
                raise WrongDegreeError("tangent norms require a pure (0,q) form")
            cols.append(([j for j in range(self.N) if m >> (self.N + j) & 1], c))
        tot = 0.0
        for I, cI in cols:
            for K, cK in cols:
                if len(I) == len(K):
                    minor = np.linalg.det(proj[..., K, :][..., I])
                    tot = tot + np.sqrt(2.0) ** len(I) * cI * np.conj(cK) * minor
        return np.sqrt(np.maximum(np.real(tot), 0.0))


# ---------------------------------------------------------------------------
# polynomial smoothstep window
# ---------------------------------------------------------------------------


def smoothstep(t):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 transition."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smoothstep_deriv(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    d = 30.0 * tc * tc * (tc - 1.0) * (tc - 1.0)
    return np.where(inside, d, 0.0)


class Window:
    """Radial window w(|zeta|^2): 1 inside r_lo, 0 outside r_hi, quintic between."""

    __slots__ = ("x0", "x1")

    def __init__(self, r_lo: float, r_hi: float):
        if not 0.0 < r_lo < r_hi:
            raise ValueError("window radii must satisfy 0 < r_lo < r_hi")
        self.x0 = r_lo * r_lo
        self.x1 = r_hi * r_hi

    def value(self, x, order: int):
        if order == 0:
            return 1.0 - smoothstep((x - self.x0) / (self.x1 - self.x0))
        if order == 1:
            return -smoothstep_deriv((x - self.x0) / (self.x1 - self.x0)) / (
                self.x1 - self.x0
            )
        raise ValueError("window derivatives beyond first order are not stored")


def _monomial(N: int, zeta=None, zbar_j: int | None = None) -> MultiIndexPoly:
    """Monomial zeta^zeta (times zeta_bar_j if given) in (zeta_0, zeta_bar_0, ...).

    Exponent columns interleave in the order in which the factors multiply.
    """
    e = np.zeros(2 * N, dtype=np.int64)
    if zeta is not None:
        e[0::2] = zeta
    if zbar_j is not None:
        e[2 * zbar_j + 1] = 1
    return MultiIndexPoly(2 * N, e, [1.0])


class TestForm:
    """Smooth ambient (0,q) test input with a closed-form dbar.

    Coefficients are sums of terms  poly(zeta, zeta_bar) * w^(k)(|zeta|^2)
    where poly is a MultiIndexPoly in (zeta_0, zeta_bar_0, zeta_1, ...) and
    w is a polynomial smoothstep window (or identically 1).  The dbar
    of such a form is again of the same shape, so differentials never have
    to be taken numerically.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, N: int, q: int, coeffs: dict, window: Window | None,
                 label: str = ""):
        # coeffs: multi-index tuple (sorted, len q) -> list[(poly, window order)]
        self.N = N
        self.q = q
        self.coeffs = coeffs
        self.window = window
        self.label = label

    # ----- catalog constructors -----------------------------------------

    @classmethod
    def constant(cls, N: int) -> "TestForm":
        return cls(N, 0, {(): [(_monomial(N), 0)]}, None, label="const")

    @classmethod
    def holomorphic_monomial(cls, N: int, exponents) -> "TestForm":
        return cls(N, 0, {(): [(_monomial(N, exponents), 0)]}, None,
                   label="holo" + "".join(str(e) for e in exponents))

    @classmethod
    def zbar_bump(cls, N: int, j: int, r_lo: float, r_hi: float) -> "TestForm":
        """zeta_bar_j times a radial window; the standard non-holomorphic probe."""
        return cls(N, 0, {(): [(_monomial(N, zbar_j=j), 0)]}, Window(r_lo, r_hi),
                   label=f"zbar{j}_bump")

    @classmethod
    def radial_bump(cls, N: int, r_lo: float, r_hi: float) -> "TestForm":
        return cls(N, 0, {(): [(_monomial(N), 0)]}, Window(r_lo, r_hi),
                   label="radial_bump")

    @classmethod
    def one_form_bump(cls, N: int, comp: int, j_bar: int,
                      r_lo: float, r_hi: float) -> "TestForm":
        """(0,1) probe: zeta_bar_{j_bar} * window on the d zeta_bar_comp slot."""
        return cls(N, 1, {(comp,): [(_monomial(N, zbar_j=j_bar), 0)]},
                   Window(r_lo, r_hi), label=f"oneform{comp}")

    # ----- evaluation ----------------------------------------------------

    def _coeff_value(self, terms, cols, windows, x):
        val = 0.0
        for poly, order in terms:
            pv = eval_monomials(poly.exps, poly.coeffs, cols)
            if self.window is None:
                if order == 0:
                    val = val + pv
            else:
                val = val + pv * windows[order]
        return val + np.zeros(x.shape, dtype=complex)

    def eval(self, pts: np.ndarray, x=None) -> dict:
        """Coefficients per ambient dzeta-bar multi-index at pts (batch, N).

        x, if given, holds |pts|^2.  Each window order the terms use is
        evaluated once per call.
        """
        pts = np.asarray(pts, dtype=complex)
        x = row_norm_sq(pts) if x is None else x
        zb = np.conj(pts)
        cols = [c for j in range(self.N) for c in (pts[..., j], zb[..., j])]
        windows = {}
        if self.window is not None:
            orders = {order for terms in self.coeffs.values() for _, order in terms}
            windows = {k: self.window.value(x, k) for k in orders}
        return {I: self._coeff_value(terms, cols, windows, x)
                for I, terms in self.coeffs.items()}

    def form_value(self, pts: np.ndarray) -> FormValue:
        """The same data as a FormValue over a-generators."""
        vals = self.eval(pts)
        terms = {}
        for I, v in vals.items():
            mask = 0
            for idx in I:
                mask |= 1 << (self.N + idx)
            terms[mask] = v
        return FormValue(self.N, terms)

    def dbar(self) -> "TestForm":
        """Closed-form dbar, a (0,q+1) TestForm over the same window.

        d/d(zeta_bar_j) acts on the polynomial; the window's derivative
        w'(|zeta|^2) * zeta_j raises the window order and the zeta_j exponent.
        """
        out: dict = {}
        for I, terms in self.coeffs.items():
            for poly, order in terms:
                for j in range(self.N):
                    if j in I:
                        continue
                    sgn = -1.0 if sum(1 for i in I if i < j) & 1 else 1.0
                    newI = tuple(sorted(I + (j,)))
                    dp = poly.partial(2 * j + 1)
                    if dp is not None:
                        dp = MultiIndexPoly(dp.num_vars, dp.exps, sgn * dp.coeffs)
                        out.setdefault(newI, []).append((dp, order))
                    if self.window is not None:
                        exps = poly.exps.copy()
                        exps[:, 2 * j] += 1
                        wp = MultiIndexPoly(poly.num_vars, exps, sgn * poly.coeffs)
                        out.setdefault(newI, []).append((wp, order + 1))
        return TestForm(self.N, self.q + 1, out, self.window,
                        label=self.label + "_dbar")

    def eval_scalar(self, pts: np.ndarray):
        """Value of a (0,0) form as a plain array."""
        if self.q != 0:
            raise ValueError("eval_scalar requires a (0,0) form")
        return self.eval(pts)[()]
