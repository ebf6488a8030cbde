"""Decay-law fitting: alpha_0 estimation, rate exponents, prefactor checks.

The long-time behavior of both observables is

    obs(t) - alpha_0 ~ alpha_0 (cbar - 3 sqrt(pi)) (1+t)^{-1/2} + O(log t / t),

so the fitted power-law exponent of |obs - alpha_0| discriminates the generic
-1/2 regime from the critical cbar = 3 sqrt(pi) regime where the leading term
vanishes and log t / t remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drift import CBAR_CRITICAL
from .oscillator import KERNEL_NORM, WTrajectory, eigenfunction, trapezoid_weights
from .pde import ObservableSeries
from .specfun import g1_coefficient

_CRITICAL_MATCH_TOL = 1e-9


def _is_critical(cbar: float) -> bool:
    return abs(cbar - CBAR_CRITICAL) <= _CRITICAL_MATCH_TOL


@dataclass
class RateFit:
    model: str                  # 'power' or 'log_over_t'
    exponent: float             # slope in the model's log space
    prefactor: float
    r_squared: float
    window: tuple
    n_samples: int


@dataclass
class Alpha0Estimate:
    value: float
    method: str
    uncertainty: float


def _lstsq_line(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    # standard error of the two coefficients
    dof = max(len(x) - 2, 1)
    sigma2 = float(np.sum((y - pred) ** 2)) / dof
    cov = sigma2 * np.linalg.inv(A.T @ A)
    return coef, r2, np.sqrt(np.diag(cov))


def default_window(times: np.ndarray) -> tuple:
    """Last decade of available time."""
    t_max = float(times.max())
    return (t_max / 10.0, t_max)


def estimate_alpha0(data, method: str = "spectral_projection",
                    cbar: float | None = None, window: tuple | None = None) -> Alpha0Estimate:
    """Limit of the boundary slope / total mass.

    'slope_extrapolation' fits slope0(t) = alpha_0 + b * m(t) on the late
    window, with m = log(t)/t at the critical cbar and t^{-1/2} otherwise
    (data: ObservableSeries; cbar required).

    'spectral_projection' reads the kernel-mode projection at the final tau
    and removes the e^{-tau/2} contamination of the known g direction:
    alpha = <W, e_0> / (||y e^{-y^2/8}|| + e^{-tau/2} gamma_1) with
    gamma_1 = g_1/alpha from the closed-form kernel projection of the forcing
    (data: WTrajectory).
    """
    if method == "slope_extrapolation":
        if not isinstance(data, ObservableSeries):
            raise TypeError("slope_extrapolation needs an ObservableSeries")
        if cbar is None:
            raise ValueError("cbar is required to pick the extrapolation model")
        if data.times.max() < 10.0 * max(data.times.min(), 1e-300):
            raise ValueError("series must cover at least one decade of t")
        if window is None:
            window = default_window(data.times)

        def fit_on(lo, hi):
            s = data.restricted(lo, hi)
            if len(s) < 20:
                raise ValueError("too few samples in the fit window (need >= 20)")
            t = s.times
            basis_fn = np.log(t) / t if _is_critical(cbar) else t ** -0.5
            coef, _, err = _lstsq_line(basis_fn, s.slope0)
            return float(coef[1]), float(err[1])

        value, stderr = fit_on(*window)
        # systematic part: sensitivity to dropping the early half of the window
        # (in log time); doubled because the unmodeled corrections decay
        # roughly geometrically across the halves
        mid = math.sqrt(max(window[0], 1e-300) * window[1])
        try:
            late, _ = fit_on(mid, window[1])
            unc = stderr + 2.0 * abs(late - value)
        except ValueError:
            unc = stderr
        return Alpha0Estimate(value, method, unc)

    if method == "spectral_projection":
        if not isinstance(data, WTrajectory):
            raise TypeError("spectral_projection needs a WTrajectory")
        if data.cbar is None and cbar is None:
            raise ValueError("cbar unknown: pass it or use a forced trajectory")
        cb = data.cbar if data.cbar is not None else cbar
        tau_f = float(data.taus[-1])
        if tau_f < 6.0:
            raise ValueError("spectral projection wants tau >= 6")
        e0 = eigenfunction(0, data.y)
        w = trapezoid_weights(data.y.size, float(data.y[1] - data.y[0]))
        gamma1 = g1_coefficient(1.0, cb)

        def alpha_at(i):
            proj = float(np.sum(w * data.states[i] * e0))
            return proj / (KERNEL_NORM + math.exp(-float(data.taus[i]) / 2.0) * gamma1)

        alpha = alpha_at(len(data) - 1)
        # systematic part from the residual mode, gauged by the drift over the
        # last unit of tau (it decays like e^{-tau})
        i_prev = int(np.argmin(np.abs(data.taus - (tau_f - 1.0))))
        unc = abs(alpha - alpha_at(i_prev)) + abs(alpha) * math.exp(-tau_f) * (1.0 + tau_f)
        return Alpha0Estimate(alpha, method, unc)

    raise ValueError(f"unknown method: {method}")


def fit_rate(series: ObservableSeries, alpha0: float, model: str = "power",
             window: tuple | None = None, observable: str = "mass") -> RateFit:
    """Fit the decay of |observable - alpha0| over the window.

    'power': regress log|res| on log t (exponent = slope).
    'log_over_t': regress log|res| on log(log t / t); exponent ~ 1 and high
    r-squared indicate affinity to the critical rate.
    Samples where the residual underflows are dropped and the window reported
    reflects what was used.
    """
    if window is None:
        window = default_window(series.times)
    s = series.restricted(*window)
    obs = s.mass if observable == "mass" else s.slope0
    res = np.abs(obs - alpha0)
    scale = max(abs(alpha0), float(np.max(np.abs(obs))) if len(s) else 1.0)
    usable = res > 1e3 * np.finfo(float).eps * scale
    t = s.times[usable]
    res = res[usable]
    if len(t) < 20:
        raise ValueError("degenerate fit: fewer than 20 usable samples")
    if model == "power":
        x = np.log(t)
    elif model == "log_over_t":
        if np.any(t <= 1.0):
            raise ValueError("log_over_t model needs t > 1")
        x = np.log(np.log(t) / t)
    else:
        raise ValueError(f"unknown model: {model}")
    coef, r2, _ = _lstsq_line(x, np.log(res))
    return RateFit(model, float(coef[0]), float(math.exp(coef[1])), float(r2),
                   (float(t.min()), float(t.max())), len(t))


def prefactor_check(series: ObservableSeries, alpha0: float,
                    window: tuple | None = None) -> float:
    """Limit estimate of sqrt(1+t) (v_x(0,t) - alpha_0).

    The decomposition predicts the limit alpha_0 (cbar - 3 sqrt(pi)), the
    slope of g at the origin.  The remaining contamination decays like
    tau e^{-tau/2}, so we regress on that and keep the intercept.
    """
    if window is None:
        window = default_window(series.times)
    s = series.restricted(*window)
    if len(s) < 20:
        raise ValueError("too few samples for the prefactor estimate")
    t = s.times
    tau = np.log1p(t)
    m = np.sqrt(1.0 + t) * (s.slope0 - alpha0)
    coef, _, _ = _lstsq_line(tau * np.exp(-tau / 2.0), m)
    return float(coef[1])


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
