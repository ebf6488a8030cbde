"""Reference tools the tests check the package against; no pipeline runs them.

M_h is the operator oscillator.evolve_W steps with, as a sparse matrix; Q is
its quadratic form by an independent sixth-order derivative; from_selfsimilar
maps W back to a physical grid; fit_remainder_decay fits the decay exponent
of the remainder norm ||R(tau)||.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import dia_array

from bbmlab.oscillator import (SelfSimilarField, _operator_parts, _potential, slope_at_origin,
                               trapezoid_weights)
from bbmlab.pde import Field, SpatialGrid
from bbmlab.rates import _lstsq_line


def M_h(y: np.ndarray, dy: float) -> dia_array:
    """M_h = -L0 of oscillator._operator_parts: zero end rows, the Dirichlet condition.

    LAPACK band storage and the DIA format both keep entry (i, j) in column j,
    so rows 2: of the (2, 2)-band L0 are its diagonals 2, 1, 0, -1, -2.
    """
    L0, _ = _operator_parts(y, dy)
    return -dia_array((L0[2:], [2, 1, 0, -1, -2]), shape=(y.size, y.size))


def _derivative(phi: np.ndarray, dy: float) -> np.ndarray:
    """First derivative: 6th order inside, lower order near and at the ends."""
    phi = np.asarray(phi, dtype=float)
    d = np.empty_like(phi)
    d[3:-3] = (-phi[:-6] + 9 * phi[1:-5] - 45 * phi[2:-4]
               + 45 * phi[4:-2] - 9 * phi[5:-1] + phi[6:]) / (60 * dy)
    d[1] = (-3 * phi[0] - 10 * phi[1] + 18 * phi[2] - 6 * phi[3] + phi[4]) / (12 * dy)
    d[2] = (phi[0] - 8 * phi[1] + 8 * phi[3] - phi[4]) / (12 * dy)
    d[-3] = (phi[-5] - 8 * phi[-4] + 8 * phi[-2] - phi[-1]) / (12 * dy)
    d[-2] = (3 * phi[-1] + 10 * phi[-2] - 18 * phi[-3] + 6 * phi[-4] - phi[-5]) / (12 * dy)
    d[0] = slope_at_origin(phi, dy)
    d[-1] = -slope_at_origin(phi[::-1], dy)
    return d


def quadratic_form_Q(phi: np.ndarray, dy: float) -> float:
    """Q(phi) = int (phi')^2 + (y^2/16 - 3/4) phi^2 dy by trapezoid quadrature."""
    phi = np.asarray(phi, dtype=float)
    y = np.arange(phi.size) * dy
    integrand = _derivative(phi, dy) ** 2 + _potential(y) * phi * phi
    return float(np.sum(trapezoid_weights(phi.size, dy) * integrand))


def from_selfsimilar(W: SelfSimilarField, grid: SpatialGrid) -> Field:
    """Inverse map onto a physical grid at t = e^tau - 1."""
    t = math.expm1(W.tau)
    scale = math.exp(-W.tau / 2.0)
    x = grid.x
    ys = x * scale
    spline = CubicSpline(W.y, W.values)
    wvals = np.where(ys <= W.y[-1], spline(np.clip(ys, 0.0, W.y[-1])), 0.0)
    v = np.exp(W.tau / 2.0) * np.exp(-ys * ys / 8.0) * np.exp(-x) * wvals
    v[0] = v[-1] = 0.0
    return Field(grid, v, t)


def fit_remainder_decay(taus: np.ndarray, r_norms: np.ndarray,
                        window: tuple = (4.0, 9.0)):
    """Decay exponent of ||R(tau)|| in e-units, with an (a + b tau) prefactor.

    Fits log||R|| = c + log(1 + r tau) - lambda tau, which nests the
    pure-exponential (r = 0) and tau-linear-prefactor (r -> inf) shapes.
    For fixed r the model is linear in (c, lambda), so r is profiled over a
    log grid and solved exactly; returns (lambda, diagnostics).  Data
    consistent with the theory gives lambda = 1 up to the window resolution.
    """
    taus = np.asarray(taus, dtype=float)
    r_norms = np.asarray(r_norms, dtype=float)
    sel = (taus >= window[0]) & (taus <= window[1]) & (r_norms > 0)
    tau = taus[sel]
    logr = np.log(r_norms[sel])
    if len(tau) < 10:
        raise ValueError("too few samples in the remainder window")

    coef, r2, _ = _lstsq_line(tau, logr)
    lam0 = -float(coef[0])

    best = (np.inf, lam0, 0.0)
    for r in np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 91)]):
        y = logr - np.log1p(r * tau)
        c, _, _ = _lstsq_line(tau, y)
        ssr = float(np.sum((y - (c[0] * tau + c[1])) ** 2))
        if ssr < best[0]:
            best = (ssr, -float(c[0]), float(r))
    lam = best[1]
    return lam, {"loglinear_slope": -lam0, "r_squared_loglinear": r2,
                 "prefactor_ratio": best[2],
                 "window": (float(tau.min()), float(tau.max())), "n": len(tau)}
