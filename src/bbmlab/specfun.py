"""The explicit slowly-decaying correction profile g and its building blocks.

g solves (M - 1/2) g = F with forcing F(y) = alpha e^{-y^2/8} [(3/4) y^2
- (cbar/2) y - 3/2].  Two independent constructions are provided:

1. g_profile: the closed combination in the variable z = y^2/4,

       G(z) = alpha [ 2 cbar sqrt(z) + 3 z - (3/2) F2(z) - 6 sqrt(pi) H(z) ],
       g(y) = e^{-z/2} G(z),

   where F2 and H are the power series below.  Both grow like z^{-3/2} e^z
   with leading coefficients sqrt(pi) and -1/4, so the combination cancels
   the exponential growth exactly: -(3/2) sqrt(pi) - 6 sqrt(pi) (-1/4) = 0.
   In floating point that cancellation is catastrophic for large z, so the
   tail (z > _Z_SWITCH) is evaluated in adaptive-precision arithmetic on a
   coarse z-subgrid and splined (G is smooth and slowly varying there).

2. solve_g_spectral: project the equation on the Hermite eigenbasis.  The
   kernel coefficient is forced by projecting on e_0 (g1 = -2 <F, e_0>); all
   other coefficients follow from the diagonal inverse 1/(n - 1/2).

The slope at the origin is alpha (cbar - 3 sqrt(pi)), read off the sqrt(z)
coefficient of G; it vanishes exactly at the critical cbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from .drift import CBAR_CRITICAL, SQRT_PI
from .oscillator import SpectralBasis

#: above this z the series pair is evaluated in scaled / high-precision form
_Z_SWITCH = 30.0


@dataclass(frozen=True)
class SeriesAccuracy:
    """Truncation control for the power series (terms decay factorially)."""

    rel_tol: float = 1e-14
    max_terms: int = 500

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError("rel_tol must lie in (0, 1e-6]")
        if self.max_terms < 10:
            raise ValueError("max_terms too small")


DEFAULT_ACCURACY = SeriesAccuracy()


class SeriesDiverged(RuntimeError):
    """max_terms hit before the truncation criterion (diagnostic, not expected)."""


class ScaledValue(NamedTuple):
    """Pair (value * e^{-z}, z) representing an exponentially large value."""

    mantissa: float
    z: float

    @property
    def value(self) -> float:
        return self.mantissa * math.exp(self.z)


# ---------------------------------------------------------------------------
# the two series

def _f2_terms(z, one, sqrt_pi, gamma52):
    """Generator of the F2 terms starting at n=2, in the arithmetic of `one`.

    sqrt_pi must carry the working precision: the exponential parts of F2 and
    H cancel only as exactly as this constant matches the sqrt(pi) used in
    the combination.
    """
    term = sqrt_pi * one * z * z / (2 * gamma52)
    n = 2
    while True:
        yield term
        term = term * z * (n * (n - 1)) / ((n + 1) * n * (n + one / 2))
        n += 1


def _h_terms(z, one):
    """Generator of the bracket terms of H starting at n=0."""
    term = -4 * one  # Gamma(-1/2)/Gamma(3/2)
    n = 0
    while True:
        yield term
        term = term * z * (n - one / 2) / ((n + 1) * (n + one * 3 / 2))
        n += 1


def _sum_series(gen, rel_tol, max_terms, what):
    s = 0.0
    for i, term in enumerate(gen):
        s += term
        if abs(term) <= rel_tol * abs(s) and i >= 1:
            return s
        if i + 1 >= max_terms:
            raise SeriesDiverged(f"{what}: truncation criterion not met within {max_terms} terms")


def F2(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """sqrt(pi) sum_{n>=2} z^n / (n (n-1) Gamma(n+1/2)), z >= 0."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0.0:
        return 0.0
    if z > _Z_SWITCH:
        sv = F2_scaled(z, acc)
        return sv.value
    return _sum_series(_f2_terms(z, 1.0, SQRT_PI, math.gamma(2.5)), acc.rel_tol, acc.max_terms, "F2")


def F2_scaled(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> ScaledValue:
    """F2(z) e^{-z} as a ScaledValue; safe for large z."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0.0:
        return ScaledValue(0.0, 0.0)
    # sum in log space relative to e^z: term_n e^{-z}
    s = 0.0
    n = 2
    lt = 0.5 * math.log(math.pi) + n * math.log(z) - z - math.log(n * (n - 1)) - math.lgamma(n + 0.5)
    term = math.exp(lt)
    for i in range(acc.max_terms):
        s += term
        term = term * z * (n * (n - 1)) / ((n + 1) * n * (n + 0.5))
        n += 1
        if term <= acc.rel_tol * s and i >= 1:
            return ScaledValue(s + term, z)
    raise SeriesDiverged(f"F2_scaled: not converged within {acc.max_terms} terms")


def H(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """-(sqrt(z)/4) sum_{n>=0} z^n Gamma(n-1/2) / (n! Gamma(n+3/2)), z >= 0."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0.0:
        return 0.0
    if z > _Z_SWITCH:
        return H_scaled(z, acc).value
    s = _sum_series(_h_terms(z, 1.0), acc.rel_tol, acc.max_terms, "H")
    return -0.25 * math.sqrt(z) * s


def H_scaled(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> ScaledValue:
    """H(z) e^{-z} as a ScaledValue; safe for large z."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0.0:
        return ScaledValue(0.0, 0.0)
    emz = math.exp(-z)
    s = 0.0
    term = -4.0 * emz
    n = 0
    for i in range(acc.max_terms):
        s += term
        term = term * z * (n - 0.5) / ((n + 1) * (n + 1.5))
        n += 1
        if abs(term) <= acc.rel_tol * abs(s) and i >= 1:
            return ScaledValue(-0.25 * math.sqrt(z) * (s + term), z)
    raise SeriesDiverged(f"H_scaled: not converged within {acc.max_terms} terms")


# ---------------------------------------------------------------------------
# the combination G

def _G_exact_tail(z: float, cbar: float, dps_extra: int = 30) -> float:
    """G(z)/alpha for large z via adaptive-precision summation of both series.

    The e^z parts of (3/2) F2 + 6 sqrt(pi) H cancel exactly (they are the
    same multiple of the unique growing solution); float64 cannot see through
    e^z worth of cancellation, mpmath with ~z/ln(10) extra digits can.
    """
    import mpmath as mp

    dps = int(z * 0.4343) + dps_extra
    with mp.workdps(dps):
        zm = mp.mpf(z)
        eps = mp.mpf(10) ** (-dps + 3)
        one = mp.mpf(1)
        s = mp.mpf(0)
        for term in _f2_terms(zm, one, mp.sqrt(mp.pi), mp.gamma(one * 5 / 2)):
            s += term
            if abs(term) < eps * abs(s):
                break
        f2v = s
        s = mp.mpf(0)
        for term in _h_terms(zm, one):
            s += term
            if abs(term) < eps * abs(s):
                break
        hv = -mp.sqrt(zm) / 4 * s
        g = 2 * cbar * mp.sqrt(zm) + 3 * zm - mp.mpf(3) / 2 * f2v - 6 * mp.sqrt(mp.pi) * hv
        return float(g)


@lru_cache(maxsize=32)
def _G_tail_spline(cbar: float, z_hi: float):
    """Cubic spline of G(z)/alpha on (Z_SWITCH, z_hi]; G is smooth and slow there."""
    znodes = np.linspace(_Z_SWITCH - 0.5, z_hi + 0.5, 160)
    gn = np.array([_G_exact_tail(zv, cbar) for zv in znodes])
    return CubicSpline(znodes, gn)


def G_explicit(z: float, alpha: float, cbar: float,
               acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """G(z) = alpha [2 cbar sqrt(z) - (3/2) F2(z) + 3 z - 6 sqrt(pi) H(z)]."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z <= _Z_SWITCH:
        comb = -1.5 * F2(z, acc) - 6.0 * SQRT_PI * H(z, acc)
        return alpha * (2.0 * cbar * math.sqrt(z) + 3.0 * z + comb)
    return alpha * _G_exact_tail(z, cbar)


def g_slope0(alpha: float, cbar: float) -> float:
    """dg/dy at the origin: alpha (cbar - 3 sqrt(pi)), from the sqrt(z) term of G."""
    return alpha * (cbar - CBAR_CRITICAL)


@dataclass
class GProfile:
    """g on a y grid together with its parameters and origin slope."""

    alpha: float
    cbar: float
    y: np.ndarray
    values: np.ndarray
    slope0: float


def g_profile(alpha: float, cbar: float, y: np.ndarray,
              acc: SeriesAccuracy = DEFAULT_ACCURACY) -> GProfile:
    """g(y) = e^{-y^2/8} G(y^2/4) on the grid, slope at 0 taken analytically."""
    y = np.asarray(y, dtype=float)
    z = y * y / 4.0
    out = np.empty_like(y)
    small = z <= _Z_SWITCH
    for i in np.nonzero(small)[0]:
        out[i] = math.exp(-z[i] / 2.0) * G_explicit(z[i], alpha, cbar, acc)
    if np.any(~small):
        spline = _G_tail_spline(float(cbar), float(z.max()))
        zt = z[~small]
        out[~small] = alpha * np.exp(-zt / 2.0) * spline(zt)
    return GProfile(alpha, cbar, y, out, g_slope0(alpha, cbar))


# ---------------------------------------------------------------------------
# spectral construction

def forcing_F(alpha: float, cbar: float, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the g equation: alpha e^{-y^2/8} [(3/4) y^2 - (cbar/2) y - 3/2]."""
    y = np.asarray(y, dtype=float)
    return alpha * np.exp(-y * y / 8.0) * (0.75 * y * y - 0.5 * cbar * y - 1.5)


def kernel_projection_of_F(alpha: float, cbar: float) -> float:
    """<F, e_0> in closed form: alpha (3 - cbar sqrt(pi)) / sqrt(2 sqrt(pi)).

    From the half-line moments of e^{-y^2/4}: int y = 2, int y^2 = 2 sqrt(pi),
    int y^3 = 8.
    """
    return alpha * (3.0 - cbar * SQRT_PI) / math.sqrt(2.0 * SQRT_PI)


def g1_coefficient(alpha: float, cbar: float) -> float:
    """Kernel-mode coefficient g1 = -2 <F, e_0>, forced by projecting on e_0."""
    return -2.0 * kernel_projection_of_F(alpha, cbar)


def solve_g_spectral(alpha: float, cbar: float, basis: SpectralBasis,
                     n_modes: int = 1024) -> np.ndarray:
    """Galerkin solution of (M - 1/2) g = F, returned on the basis grid.

    Coefficients: c_0 = -2 <F, e_0> (kernel projection), c_n = <F, e_n>/(n - 1/2)
    for n >= 1 (the diagonal inverse; coercive since n - 1/2 >= 1/2).  The
    projections are taken on an internal quadrature grid wide enough to hold
    the highest mode's turning point, then the sum is evaluated on basis.y.
    The forcing has a nonzero value at the origin, so the odd-mode
    coefficients decay like n^{-7/4}; n_modes ~ 1000 gives ~1e-4 in L2.
    """
    if n_modes < 40:
        raise ValueError("need n_modes >= 40")

    dyq = 0.01
    y_big = 4.0 * math.sqrt(n_modes + 0.75) + 12.0
    nq = int(round(y_big / dyq))
    yq = np.linspace(0.0, nq * dyq, nq + 1)
    wq = np.full_like(yq, dyq)
    wq[0] = wq[-1] = dyq / 2.0
    Fq = forcing_F(alpha, cbar, yq) * wq

    uq = yq / 2.0
    uo = basis.y / 2.0
    # rolling two-term recurrence over full-line Hermite functions, odd k only
    hq_km1 = np.pi ** -0.25 * np.exp(-0.5 * uq * uq)
    hq_k = math.sqrt(2.0) * uq * hq_km1
    ho_km1 = np.pi ** -0.25 * np.exp(-0.5 * uo * uo)
    ho_k = math.sqrt(2.0) * uo * ho_km1
    g = np.zeros_like(basis.y)
    k = 1
    while (k - 1) // 2 < n_modes:
        if k % 2 == 1:
            n = (k - 1) // 2
            a_n = float(Fq @ hq_k)
            c_n = -2.0 * a_n if n == 0 else a_n / (n - 0.5)
            g += c_n * ho_k
        hq_km1, hq_k = hq_k, math.sqrt(2.0 / (k + 1)) * uq * hq_k - math.sqrt(k / (k + 1)) * hq_km1
        ho_km1, ho_k = ho_k, math.sqrt(2.0 / (k + 1)) * uo * ho_k - math.sqrt(k / (k + 1)) * ho_km1
        k += 1
    return g
