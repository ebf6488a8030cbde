"""The explicit slowly-decaying correction profile g and its building blocks.

g solves (M - 1/2) g = F with forcing F(y) = alpha e^{-y^2/8} [(3/4) y^2
- (cbar/2) y - 3/2].  Two independent constructions are provided:

1. g_profile: the closed combination in the variable z = y^2/4,

       G(z) = alpha [ 2 cbar sqrt(z) + G0(z) ],
       G0(z) = 3 z - (3/2) F2(z) - 6 sqrt(pi) H(z),
       g(y) = e^{-z/2} G(z),

   where F2 and H are the power series below, each summed one way (their
   e^{-z}-scaled forms are F2(z) e^{-z} and H(z) e^{-z}) to a relative
   tolerance of 1e-14 within 500 terms; above z ~ 352 that budget runs out
   and they raise SeriesDiverged.  G satisfies
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
   docs/g_profile_tail.md).  G0 is computed once per grid (memoised); alpha
   and cbar then enter as g = alpha e^{-z/2} (2 cbar sqrt(z) + G0).

2. solve_g_spectral: project the equation on the Hermite eigenbasis, whose
   modes come from oscillator.hermite_rows, one odd-row recurrence step per
   mode (within 16 (2n+1) eps of e_n absolute).  The kernel coefficient is
   forced by projecting on e_0 (g1 = -2 <F, e_0>); all other coefficients
   follow from the diagonal inverse 1/(n - 1/2).  The cbar part of F is a
   multiple of e_0, so its solution is the closed form alpha cbar y e^{-y^2/8}
   and only the cbar-free sum g0 is projected, once per grid and mode count
   (memoised); alpha and cbar then enter as g = alpha (g0 + cbar y e^{-y^2/8}).
   F0 = e^{-y^2/8} ((3/4) y^2 - 3/2) is (3/4) sqrt(8 sqrt(pi)) h_2(y/2), so
   its projections are exact: <F0, e_n> = -(3/2) sqrt(4n+2) h_{2n}(0)/(2n - 1)
   (docs/g_forcing_projections.md).  The modes are evaluated on the output
   grid only.

The slope at the origin is alpha (cbar - 3 sqrt(pi)), read off the sqrt(z)
coefficient of G; it vanishes exactly at the critical cbar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .drift import CBAR_CRITICAL, SQRT_PI
from .oscillator import KERNEL_NORM, SpectralBasis, _check_half_line, hermite_rows
from .pde import NumericalFailure

#: G0 is summed from the series for z <= _Z0 and continued in closed form above
_Z0 = 5.0
#: Gauss-Legendre rule for the closed-form tail's integral, one panel per node gap
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
#: largest ratio between the ends of a tail panel (keeps s = 0, 1/2 far away)
_PANEL_RATIO = 1.5


#: truncation of the power series, whose terms decay factorially: stop once a
#: term is at most _REL_TOL of the partial sum, and give up after _MAX_TERMS
_REL_TOL = 1e-14
_MAX_TERMS = 500


class SeriesDiverged(NumericalFailure):
    """_MAX_TERMS hit before the truncation criterion: F2 and H above z of about 352."""


# ---------------------------------------------------------------------------
# the two series

def _f2_terms(z):
    """Generator of the F2 terms starting at n=2."""
    term = SQRT_PI * z * z / (2 * math.gamma(2.5))
    n = 2
    while True:
        yield term
        term = term * z * (n * (n - 1)) / ((n + 1) * n * (n + 0.5))
        n += 1


def _h_terms(z):
    """Generator of the bracket terms of H starting at n=0."""
    term = -4.0  # Gamma(-1/2)/Gamma(3/2)
    n = 0
    while True:
        yield term
        term = term * z * (n - 0.5) / ((n + 1) * (n + 1.5))
        n += 1


def _sum_series(terms, z, what):
    s = 0.0
    for i, term in enumerate(terms(z)):
        s += term
        if abs(term) <= _REL_TOL * abs(s) and i >= 1:
            return s
        if i + 1 >= _MAX_TERMS:
            raise SeriesDiverged(f"{what}: truncation criterion not met within {_MAX_TERMS} "
                                 f"terms at z = {z!r}")


def _check_z(z):
    if not (math.isfinite(z) and z >= 0):
        raise ValueError(f"z must be finite and >= 0, got {z!r}")


def _check_finite(**params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def F2(z: float) -> float:
    """sqrt(pi) sum_{n>=2} z^n / (n (n-1) Gamma(n+1/2)), z >= 0."""
    _check_z(z)
    return 0.0 if z == 0.0 else _sum_series(_f2_terms, z, "F2")


def H(z: float) -> float:
    """-(sqrt(z)/4) sum_{n>=0} z^n Gamma(n-1/2) / (n! Gamma(n+3/2)), z >= 0."""
    _check_z(z)
    return 0.0 if z == 0.0 else -0.25 * math.sqrt(z) * _sum_series(_h_terms, z, "H")


# ---------------------------------------------------------------------------
# the combination G

def _series_part(z: float) -> float:
    """G0(z) - 3 z = -(3/2) F2(z) - 6 sqrt(pi) H(z) from the series (small z only)."""
    return -1.5 * F2(z) - 6.0 * SQRT_PI * H(z)


def _tail_integrand(s):
    """v(s) = w'(s) for the non-growing G0 = 3 s + (s - 1/2) w(s)."""
    rs = np.sqrt(s)
    return 3.0 * (s + 1.0 + 0.5 * SQRT_PI * erfcx(rs) / rs) / (s - 0.5) ** 2


def _G0(z: np.ndarray) -> np.ndarray:
    """The cbar-free part G0 of G/alpha on an array of z >= 0."""
    out = np.empty_like(z)
    small = z <= _Z0
    for i in np.flatnonzero(small):
        out[i] = 3.0 * z[i] + _series_part(float(z[i]))
    zt = z[~small]
    if zt.size:
        # panels between consecutive tail nodes, refined by a geometric ladder from
        # _Z0 so that no panel spans more than a factor _PANEL_RATIO
        rungs = math.ceil(math.log(zt.max() / _Z0) / math.log(_PANEL_RATIO))
        edges = np.union1d(zt, _Z0 * _PANEL_RATIO ** np.arange(rungs + 1))
        half = np.diff(edges) / 2.0
        s = (edges[:-1] + half)[:, None] + half[:, None] * _GL_X
        w0 = _series_part(_Z0) / (_Z0 - 0.5)
        # near z = 1e308, (s - 1/2)^2 overflows (v = 0) and so does G0 (inf):
        # both are the right limits, and the CLI reports a non-finite G
        with np.errstate(over="ignore"):
            integral = np.concatenate(([0.0], np.cumsum(half * (_tail_integrand(s) @ _GL_W))))
            out[~small] = 3.0 * zt + (zt - 0.5) * (w0 + integral[np.searchsorted(edges, zt)])
    return out


def G_explicit(z: float, alpha: float, cbar: float) -> float:
    """G(z) = alpha [2 cbar sqrt(z) + G0(z)], G0 = 3 z - (3/2) F2(z) - 6 sqrt(pi) H(z)."""
    _check_z(z)
    _check_finite(alpha=alpha, cbar=cbar)
    return alpha * (2.0 * cbar * math.sqrt(z) + float(_G0(np.array([float(z)]))[0]))


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


@functools.lru_cache(maxsize=8)
def _g0_series(y_bytes: bytes) -> np.ndarray:
    """Read-only G0(y^2/4) on the float64 grid y_bytes (one-dimensional)."""
    y = np.frombuffer(y_bytes)
    G0 = _G0(y * y / 4.0)
    G0.flags.writeable = False
    return G0


def g_profile(alpha: float, cbar: float, y: np.ndarray) -> GProfile:
    """g(y) = e^{-y^2/8} G(y^2/4) on the grid, slope at 0 taken analytically.

    G0, the cbar-free part of G/alpha, depends only on the grid and is computed
    once per grid (_g0_series).
    """
    _check_finite(alpha=alpha, cbar=cbar)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be one-dimensional, got shape {y.shape}")
    with np.errstate(over="ignore"):
        z = y * y / 4.0
    if not np.all(np.isfinite(z)):
        raise ValueError("y must be finite at every node, and so must y^2/4")
    _check_half_line(y)
    values = alpha * np.exp(-z / 2.0) * (2.0 * cbar * np.sqrt(z) + _g0_series(y.tobytes()))
    return GProfile(alpha, cbar, y, values, g_slope0(alpha, cbar))


# ---------------------------------------------------------------------------
# spectral construction

def kernel_projection_of_F(alpha: float, cbar: float) -> float:
    """<F, e_0> in closed form: alpha (3 - cbar sqrt(pi)) / sqrt(2 sqrt(pi)).

    From the half-line moments of e^{-y^2/4}: int y = 2, int y^2 = 2 sqrt(pi),
    int y^3 = 8.
    """
    return alpha * (3.0 - cbar * SQRT_PI) / KERNEL_NORM


def g1_coefficient(alpha: float, cbar: float) -> float:
    """Kernel-mode coefficient g1 = -2 <F, e_0>, forced by projecting on e_0."""
    return -2.0 * kernel_projection_of_F(alpha, cbar)


def _f0_projections(n_modes: int) -> np.ndarray:
    """<F0, e_n> for n < n_modes in closed form, F0 = e^{-y^2/8} ((3/4) y^2 - 3/2).

    a_n = -(3/2) sqrt(4n+2) h_{2n}(0) / (2n - 1), with h_0(0) = pi^{-1/4} and
    h_{2j}(0) = -sqrt((2j-1)/(2j)) h_{2j-2}(0) (derivation in
    docs/g_forcing_projections.md).
    """
    n = np.arange(n_modes)
    h_even0 = np.pi ** -0.25 * np.cumprod(np.concatenate(
        ([1.0], -np.sqrt((2.0 * n[1:] - 1.0) / (2.0 * n[1:])))))
    return -1.5 * np.sqrt(4.0 * n + 2.0) * h_even0 / (2.0 * n - 1.0)


@functools.lru_cache(maxsize=8)
def _g0_spectral(y_bytes: bytes, n_modes: int) -> np.ndarray:
    """Read-only Galerkin sum g0 of the cbar-free forcing F0 on the float64 grid y_bytes.

    Coefficients: c_0 = -2 <F0, e_0> (kernel projection), c_n = <F0, e_n>/(n - 1/2)
    for n >= 1 (the diagonal inverse; coercive since n - 1/2 >= 1/2).  e_n is
    row n of oscillator.hermite_rows(y/2), so n_modes modes cost n_modes
    recurrence steps.  Row n is within 16 (2n+1) eps of e_n absolute; with
    1024 modes on the grids of dy = 0.01, 0.05 and 0.1, g0 lies within 6.3e-15
    of the sum over three-term rows, far inside its ~1e-4 truncation error.
    """
    y = np.frombuffer(y_bytes)
    g0 = np.zeros_like(y)
    for n, (a_n, h) in enumerate(zip(_f0_projections(n_modes), hermite_rows(y / 2.0))):
        g0 += (-2.0 * a_n if n == 0 else a_n / (n - 0.5)) * h
    g0.flags.writeable = False
    return g0


def solve_g_spectral(alpha: float, cbar: float, basis: SpectralBasis,
                     n_modes: int = 1024) -> np.ndarray:
    """Galerkin solution of (M - 1/2) g = F, returned on the basis grid.

    F splits as alpha F0 - (alpha cbar / 2) y e^{-y^2/8}, and y e^{-y^2/8} is
    sqrt(2 sqrt(pi)) e_0 exactly, so the cbar part projects on e_0 alone and its
    Galerkin solution is alpha cbar y e^{-y^2/8} (the series route's
    2 cbar sqrt(z) in y).  Hence g = alpha (g0 + cbar y e^{-y^2/8}), where g0,
    the sum for F0, depends only on basis.y and n_modes and is computed once
    per pair (_g0_spectral).  F0 is (3/4) sqrt(8 sqrt(pi)) h_2(y/2), a single
    even Hermite function, so its projections on the odd modes are exact in
    closed form (_f0_projections), and no quadrature grid is needed.
    The forcing has a nonzero value at the origin, so the odd-mode
    coefficients decay like n^{-7/4}; n_modes ~ 1000 gives ~1e-4 in L2.
    """
    _check_finite(alpha=alpha, cbar=cbar)
    if n_modes < 40:
        raise ValueError("need n_modes >= 40")
    y = basis.y
    return alpha * (_g0_spectral(y.tobytes(), n_modes) + cbar * y * np.exp(-y * y / 8.0))
