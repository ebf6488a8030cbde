"""Decay-law fitting: alpha_0 estimation, rate exponents, prefactor checks.

The long-time behavior of both observables is

    obs(t) - alpha_0 ~ alpha_0 (cbar - 3 sqrt(pi)) (1+t)^{-1/2} + O(log t / t),

so the fitted power-law exponent of |obs - alpha_0| discriminates the generic
-1/2 regime from the critical cbar = 3 sqrt(pi) regime where the leading term
vanishes and log t / t remains.  The caller names the decay model, 'power'
or 'log_over_t' (pipeline.rate_report decides the regime), and the
estimates return the plain records that summary.json stores.
"""

from __future__ import annotations

import math

import numpy as np

from .oscillator import (KERNEL_NORM, SPECTRAL_TAU_MIN, WTrajectory, eigenfunction,
                         trapezoid_weights)
from .pde import ObservableSeries
from .specfun import g1_coefficient


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


def estimate_alpha0(data, method: str, model: str | None = None,
                    window: tuple | None = None) -> dict:
    """Limit of the boundary slope / total mass as {"value", "uncertainty"}.

    'slope_extrapolation' fits slope0(t) = alpha_0 + b * m(t) on the window
    in t, with m = t^{-1/2} for model 'power' and log(t)/t for 'log_over_t'
    (data: ObservableSeries; model and window required).

    'spectral_projection' reads the kernel-mode projection at the final tau
    and removes the e^{-tau/2} contamination of the known g direction:
    alpha = <W, e_0> / (||y e^{-y^2/8}|| + e^{-tau/2} gamma_1) with
    gamma_1 = g_1/alpha from the closed-form kernel projection of the forcing
    at the trajectory's cbar (data: WTrajectory).
    """
    if method == "slope_extrapolation":
        if not isinstance(data, ObservableSeries):
            raise TypeError("slope_extrapolation needs an ObservableSeries")
        if model not in ("power", "log_over_t"):
            raise ValueError(f"unknown model: {model!r}")
        if data.times.max() < 10.0 * max(data.times.min(), 1e-300):
            raise ValueError("series must cover at least one decade of t")

        def fit_on(lo, hi):
            s = data.restricted(lo, hi)
            if len(s) < 20:
                raise ValueError("too few samples in the fit window (need >= 20)")
            t = s.times
            basis_fn = t ** -0.5 if model == "power" else np.log(t) / t
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
        return {"value": value, "uncertainty": unc}

    if method == "spectral_projection":
        if not isinstance(data, WTrajectory):
            raise TypeError("spectral_projection needs a WTrajectory")
        tau_f = float(data.taus[-1])
        if tau_f < SPECTRAL_TAU_MIN:
            raise ValueError(f"spectral projection wants tau >= {SPECTRAL_TAU_MIN:g}")
        e0 = eigenfunction(0, data.y)
        w = trapezoid_weights(data.y.size, float(data.y[1] - data.y[0]))
        gamma1 = g1_coefficient(1.0, data.cbar)

        def alpha_at(i):
            proj = float(np.sum(w * data.states[i] * e0))
            return proj / (KERNEL_NORM + math.exp(-float(data.taus[i]) / 2.0) * gamma1)

        alpha = alpha_at(len(data) - 1)
        # systematic part from the residual mode, gauged by the drift over the
        # last unit of tau (it decays like e^{-tau})
        i_prev = int(np.argmin(np.abs(data.taus - (tau_f - 1.0))))
        unc = abs(alpha - alpha_at(i_prev)) + abs(alpha) * math.exp(-tau_f) * (1.0 + tau_f)
        return {"value": alpha, "uncertainty": unc}

    raise ValueError(f"unknown method: {method}")


def fit_rate(series: ObservableSeries, alpha0: float, model: str, window: tuple,
             observable: str) -> dict:
    """Fit the decay of |observable - alpha0| over the window ('mass' or 'slope0').

    'power': regress log|res| on log t (exponent = slope).
    'log_over_t': regress log|res| on log(log t / t); exponent ~ 1 and high
    r-squared indicate affinity to the critical rate.
    Samples where the residual underflows are dropped, and for 'log_over_t'
    also those at t <= 1, where log t / t is not positive; the window reported
    reflects what was used.  Returns {"exponent", "prefactor", "r2", "window",
    "n_samples"}.
    """
    if observable not in ("mass", "slope0"):
        raise ValueError(f"unknown observable: {observable!r}")
    s = series.restricted(*window)
    obs = s.mass if observable == "mass" else s.slope0
    res = np.abs(obs - alpha0)
    scale = max(abs(alpha0), float(np.max(np.abs(obs))) if len(s) else 1.0)
    usable = res > 1e3 * np.finfo(float).eps * scale
    if model == "log_over_t":
        usable &= s.times > 1.0
    t = s.times[usable]
    res = res[usable]
    if len(t) < 20:
        raise ValueError("degenerate fit: fewer than 20 usable samples")
    if model == "power":
        x = np.log(t)
    elif model == "log_over_t":
        x = np.log(np.log(t) / t)
    else:
        raise ValueError(f"unknown model: {model!r}")
    coef, r2, _ = _lstsq_line(x, np.log(res))
    return {"exponent": float(coef[0]), "prefactor": float(math.exp(coef[1])), "r2": float(r2),
            "window": [float(t.min()), float(t.max())], "n_samples": len(t)}


def prefactor_check(series: ObservableSeries, alpha0: float, window: tuple) -> float:
    """Limit estimate of sqrt(1+t) (v_x(0,t) - alpha_0) over the window in t.

    The decomposition predicts the limit alpha_0 (cbar - 3 sqrt(pi)), the
    slope of g at the origin.  The remaining contamination decays like
    tau e^{-tau/2}, so we regress on that and keep the intercept.
    """
    s = series.restricted(*window)
    if len(s) < 20:
        raise ValueError("too few samples for the prefactor estimate")
    t = s.times
    tau = np.log1p(t)
    m = np.sqrt(1.0 + t) * (s.slope0 - alpha0)
    coef, _, _ = _lstsq_line(tau * np.exp(-tau / 2.0), m)
    return float(coef[1])

