"""The explicit slowly-decaying correction profile g and its building blocks.

g solves (M - 1/2) g = F with forcing F(y) = alpha e^{-y^2/8} [(3/4) y^2
- (cbar/2) y - 3/2].  Two independent constructions are provided:

1. g_profile: the closed combination in the variable z = y^2/4,

       G(z) = alpha [ 2 cbar sqrt(z) + G0(z) ],
       G0(z) = 3 z - (3/2) F2(z) - 6 sqrt(pi) H(z),
       g(y) = e^{-z/2} G(z),

   where F2 and H are the power series below.  G satisfies
   z G'' - (z - 1/2) G' + G = -alpha (3 z - cbar sqrt(z) - 3/2); cbar enters
   only through the exact particular solution 2 cbar sqrt(z), so G0 does not
   depend on cbar.  F2 and H both grow like z^{-3/2} e^z, with leading
   coefficients sqrt(pi) and -1/4, and that growth cancels exactly in G0.  In
   floating point the cancellation is catastrophic for large z, so G0 is
   summed from the series only for z <= _Z0.  Above it G0 is continued in
   float64 by reduction of order about the homogeneous solution z - 1/2:

       G0(z) = 3 z + (z - 1/2) [ w0 + int_{z0}^{z} v(s) ds ],
       v(s) = 3 [s + 1 + (sqrt(pi)/2) erfcx(sqrt s)/sqrt s] / (s - 1/2)^2,

   with w0 = (G0(z0) - 3 z0)/(z0 - 1/2) from the series (derivation in
   docs/g_profile_tail.md).

2. solve_g_spectral: project the equation on the Hermite eigenbasis.  The
   kernel coefficient is forced by projecting on e_0 (g1 = -2 <F, e_0>); all
   other coefficients follow from the diagonal inverse 1/(n - 1/2).

The slope at the origin is alpha (cbar - 3 sqrt(pi)), read off the sqrt(z)
coefficient of G; it vanishes exactly at the critical cbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .drift import CBAR_CRITICAL, SQRT_PI
from .oscillator import SpectralBasis, trapezoid_weights

#: G0 is summed from the series for z <= _Z0 and continued in closed form above
_Z0 = 5.0
#: Gauss-Legendre rule for the closed-form tail's integral, one panel per node gap
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
#: largest ratio between the ends of a tail panel (keeps s = 0, 1/2 far away)
_PANEL_RATIO = 1.5


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


# ---------------------------------------------------------------------------
# the two series

def _f2_terms(z, scale):
    """Generator of the F2 terms starting at n=2, each multiplied by scale."""
    term = scale * SQRT_PI * z * z / (2 * math.gamma(2.5))
    n = 2
    while True:
        yield term
        term = term * z * (n * (n - 1)) / ((n + 1) * n * (n + 0.5))
        n += 1


def _h_terms(z, scale):
    """Generator of the bracket terms of H starting at n=0, each multiplied by scale."""
    term = -4.0 * scale  # Gamma(-1/2)/Gamma(3/2)
    n = 0
    while True:
        yield term
        term = term * z * (n - 0.5) / ((n + 1) * (n + 1.5))
        n += 1


def _sum_series(gen, acc, what):
    s = 0.0
    for i, term in enumerate(gen):
        s += term
        if abs(term) <= acc.rel_tol * abs(s) and i >= 1:
            return s
        if i + 1 >= acc.max_terms:
            raise SeriesDiverged(f"{what}: truncation criterion not met within {acc.max_terms} terms")


def _check_z(z):
    if not z >= 0:
        raise ValueError("z must be >= 0")


def _scale(z, what):
    """e^{-z}, the first-term scale of a scaled series; SeriesDiverged once it underflows."""
    scale = math.exp(-z)
    if scale == 0.0:
        raise SeriesDiverged(f"{what}: e^-z underflows float64 at z = {z!r}")
    return scale


def F2(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """sqrt(pi) sum_{n>=2} z^n / (n (n-1) Gamma(n+1/2)), z >= 0."""
    _check_z(z)
    return 0.0 if z == 0.0 else _sum_series(_f2_terms(z, 1.0), acc, "F2")


def F2_scaled(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """F2(z) e^{-z}, summed scaled; SeriesDiverged where the series fails (z >~ 351)."""
    _check_z(z)
    return _sum_series(_f2_terms(z, _scale(z, "F2_scaled")), acc, "F2_scaled")


def H(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """-(sqrt(z)/4) sum_{n>=0} z^n Gamma(n-1/2) / (n! Gamma(n+3/2)), z >= 0."""
    _check_z(z)
    return 0.0 if z == 0.0 else -0.25 * math.sqrt(z) * _sum_series(_h_terms(z, 1.0), acc, "H")


def H_scaled(z: float, acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """H(z) e^{-z}, summed scaled; SeriesDiverged where the series fails (z >~ 351)."""
    _check_z(z)
    terms = _h_terms(z, _scale(z, "H_scaled"))
    return -0.25 * math.sqrt(z) * _sum_series(terms, acc, "H_scaled")


# ---------------------------------------------------------------------------
# the combination G

def _series_part(z: float, acc: SeriesAccuracy) -> float:
    """G0(z) - 3 z = -(3/2) F2(z) - 6 sqrt(pi) H(z) from the series (small z only)."""
    return -1.5 * F2(z, acc) - 6.0 * SQRT_PI * H(z, acc)


def _tail_integrand(s):
    """v(s) = w'(s) for the non-growing G0 = 3 s + (s - 1/2) w(s)."""
    rs = np.sqrt(s)
    return 3.0 * (s + 1.0 + 0.5 * SQRT_PI * erfcx(rs) / rs) / (s - 0.5) ** 2


def _G0(z: np.ndarray, acc: SeriesAccuracy) -> np.ndarray:
    """The cbar-free part G0 of G/alpha on an array of z >= 0."""
    out = np.empty_like(z)
    small = z <= _Z0
    for i in np.flatnonzero(small):
        out[i] = 3.0 * z[i] + _series_part(float(z[i]), acc)
    zt = z[~small]
    if zt.size:
        # panels between consecutive tail nodes, refined by a geometric ladder from
        # _Z0 so that no panel spans more than a factor _PANEL_RATIO
        rungs = math.ceil(math.log(zt.max() / _Z0) / math.log(_PANEL_RATIO))
        edges = np.union1d(zt, _Z0 * _PANEL_RATIO ** np.arange(rungs + 1))
        half = np.diff(edges) / 2.0
        s = (edges[:-1] + half)[:, None] + half[:, None] * _GL_X
        integral = np.concatenate(([0.0], np.cumsum(half * (_tail_integrand(s) @ _GL_W))))
        w0 = _series_part(_Z0, acc) / (_Z0 - 0.5)
        out[~small] = 3.0 * zt + (zt - 0.5) * (w0 + integral[np.searchsorted(edges, zt)])
    return out


def G_explicit(z: float, alpha: float, cbar: float,
               acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """G(z) = alpha [2 cbar sqrt(z) + G0(z)], G0 = 3 z - (3/2) F2(z) - 6 sqrt(pi) H(z)."""
    _check_z(z)
    return alpha * (2.0 * cbar * math.sqrt(z) + float(_G0(np.array([float(z)]), acc)[0]))


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
    values = alpha * np.exp(-z / 2.0) * (2.0 * cbar * np.sqrt(z) + _G0(z, acc))
    return GProfile(alpha, cbar, y, values, g_slope0(alpha, cbar))


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
    Fq = forcing_F(alpha, cbar, yq) * trapezoid_weights(yq.size, dyq)

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
