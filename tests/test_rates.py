import numpy as np
import pytest

from bbmlab.drift import CBAR_CRITICAL
from bbmlab.pde import ObservableSeries
from bbmlab.rates import (estimate_alpha0, fit_rate, fit_remainder_decay,
                          prefactor_check)

CB = CBAR_CRITICAL


def synthetic_series(fn, t_min=1.0, t_max=1000.0, n=400):
    t = np.geomspace(t_min, t_max, n)
    vals = fn(t)
    return ObservableSeries(t, vals, vals.copy())


def test_alpha0_exact_recovery_sqrt_model():
    s = synthetic_series(lambda t: 0.7 + 0.3 * t**-0.5)
    est = estimate_alpha0(s, "slope_extrapolation", cbar=0.0)
    assert est.value == pytest.approx(0.7, abs=1e-6)


def test_alpha0_exact_recovery_log_model():
    s = synthetic_series(lambda t: 1.2 + 0.5 * np.log(t) / t, t_min=2.0)
    est = estimate_alpha0(s, "slope_extrapolation", cbar=CB)
    assert est.value == pytest.approx(1.2, abs=1e-6)


def test_alpha0_requires_decade():
    t = np.linspace(10.0, 50.0, 100)
    s = ObservableSeries(t, np.ones_like(t), np.ones_like(t))
    with pytest.raises(ValueError):
        estimate_alpha0(s, "slope_extrapolation", cbar=0.0)


def test_alpha0_window_stability(run_cbar0):
    # estimates from [T/4, T/2] and [T/2, T] differ by less than the model's
    # own correction term at T/2
    _, series, _ = run_cbar0
    T = series.times.max()
    late = estimate_alpha0(series, "slope_extrapolation", cbar=0.0, window=(T / 2, T))
    early = estimate_alpha0(series, "slope_extrapolation", cbar=0.0, window=(T / 4, T / 2))
    s = series.restricted(T / 2, T)
    # size of the fitted correction term b * t^{-1/2} at T/2
    A = np.vstack([s.times**-0.5, np.ones_like(s.times)]).T
    coef, *_ = np.linalg.lstsq(A, s.slope0, rcond=None)
    correction_at_half = abs(coef[0]) * (T / 2) ** -0.5
    assert abs(late.value - early.value) < correction_at_half


def test_alpha0_methods_agree_within_uncertainty(run_cbar0, run_critical, run_cbar10):
    for run in (run_cbar0, run_critical, run_cbar10):
        _, _, report = run
        m = report["alpha0_methods"]
        gap = abs(m["spectral_projection"]["value"] - m["slope_extrapolation"]["value"])
        combined = m["spectral_projection"]["uncertainty"] + m["slope_extrapolation"]["uncertainty"]
        assert gap <= combined


def test_fit_rate_exact_power():
    s = synthetic_series(lambda t: 5.0 + 2.0 * t**-0.5)
    f = fit_rate(s, 5.0, "power")
    assert f.exponent == pytest.approx(-0.5, abs=0.01)
    assert f.prefactor == pytest.approx(2.0, rel=0.02)
    assert f.r_squared > 0.999999


@pytest.mark.parametrize("p", [-0.4, -0.5, -0.6, -1.0])
def test_fit_rate_estimator_consistency(p):
    s = synthetic_series(lambda t: 1.0 + 3.0 * t**p)
    f = fit_rate(s, 1.0, "power")
    assert f.exponent == pytest.approx(p, abs=0.01)


def test_fit_rate_log_over_t_model():
    s = synthetic_series(lambda t: 2.0 + 0.8 * np.log(t) / t, t_min=5.0)
    f = fit_rate(s, 2.0, "log_over_t")
    assert f.exponent == pytest.approx(1.0, abs=0.01)
    assert f.r_squared > 0.9999


def test_fit_rate_reports_usable_window():
    # make the residual underflow in the late half; the window must shrink
    t = np.geomspace(1.0, 1000.0, 300)
    res = np.where(t < 30.0, 1e-2 * t**-0.5, 0.0)
    s = ObservableSeries(t, 5.0 + res, 5.0 + res)
    f = fit_rate(s, 5.0, "power", window=(1.0, 1000.0))
    assert f.window[1] < 30.0
    assert f.n_samples >= 20


def test_fit_rate_degenerate_raises():
    t = np.geomspace(1.0, 1000.0, 50)
    s = ObservableSeries(t, np.full_like(t, 5.0), np.full_like(t, 5.0))
    with pytest.raises(ValueError):
        fit_rate(s, 5.0, "power")


def test_prefactor_check_synthetic():
    P = -3.0
    t = np.geomspace(100.0, 20000.0, 300)
    tau = np.log1p(t)
    slope = 1.5 + P / np.sqrt(1 + t) + 0.4 * tau * np.exp(-tau)
    s = ObservableSeries(t, slope.copy(), slope)
    est = prefactor_check(s, 1.5)
    assert est == pytest.approx(P, rel=0.02)


def test_remainder_decay_pure_exponential():
    taus = np.linspace(3.0, 10.0, 100)
    lam, info = fit_remainder_decay(taus, 2.0 * np.exp(-taus))
    assert lam == pytest.approx(1.0, abs=0.02)


def test_remainder_decay_tau_prefactor():
    taus = np.linspace(3.0, 10.0, 100)
    lam, info = fit_remainder_decay(taus, 0.7 * taus * np.exp(-taus))
    assert lam == pytest.approx(1.0, abs=0.02)
