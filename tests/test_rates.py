import math

import numpy as np
import pytest

from bbmlab.drift import CBAR_CRITICAL
from bbmlab.oscillator import WTrajectory, default_y_grid
from bbmlab.pde import ObservableSeries
from bbmlab.pipeline import make_config, rate_report, selfsimilar_run
from bbmlab.rates import estimate_alpha0, fit_rate, prefactor_check
from oracles import fit_remainder_decay

CB = CBAR_CRITICAL
#: the last decade of the synthetic series' t
LATE = (100.0, 1000.0)


def synthetic_series(fn, t_min=1.0, t_max=1000.0, n=400):
    t = np.geomspace(t_min, t_max, n)
    vals = fn(t)
    return ObservableSeries(t, vals, vals.copy())


def test_alpha0_exact_recovery_sqrt_model():
    s = synthetic_series(lambda t: 0.7 + 0.3 * t**-0.5)
    est = estimate_alpha0(s, "slope_extrapolation", "power", LATE)
    assert est["value"] == pytest.approx(0.7, abs=1e-6)


def test_alpha0_exact_recovery_log_model():
    s = synthetic_series(lambda t: 1.2 + 0.5 * np.log(t) / t, t_min=2.0)
    est = estimate_alpha0(s, "slope_extrapolation", "log_over_t", LATE)
    assert est["value"] == pytest.approx(1.2, abs=1e-6)


def test_alpha0_requires_decade():
    t = np.linspace(10.0, 50.0, 100)
    s = ObservableSeries(t, np.ones_like(t), np.ones_like(t))
    with pytest.raises(ValueError):
        estimate_alpha0(s, "slope_extrapolation", "power", (10.0, 50.0))


def test_alpha0_window_stability(run_cbar0):
    # estimates from [T/4, T/2] and [T/2, T] differ by less than the model's
    # own correction term at T/2
    _, series, _ = run_cbar0
    T = series.times.max()
    late = estimate_alpha0(series, "slope_extrapolation", "power", (T / 2, T))
    early = estimate_alpha0(series, "slope_extrapolation", "power", (T / 4, T / 2))
    s = series.restricted(T / 2, T)
    # size of the fitted correction term b * t^{-1/2} at T/2
    A = np.vstack([s.times**-0.5, np.ones_like(s.times)]).T
    coef, *_ = np.linalg.lstsq(A, s.slope0, rcond=None)
    correction_at_half = abs(coef[0]) * (T / 2) ** -0.5
    assert abs(late["value"] - early["value"]) < correction_at_half


def test_alpha0_methods_agree_within_uncertainty(run_cbar0, run_critical, run_cbar10):
    for run in (run_cbar0, run_critical, run_cbar10):
        _, _, report = run
        m = report["alpha0_methods"]
        gap = abs(m["spectral_projection"]["value"] - m["slope_extrapolation"]["value"])
        combined = m["spectral_projection"]["uncertainty"] + m["slope_extrapolation"]["uncertainty"]
        assert gap <= combined


def test_fit_rate_exact_power():
    s = synthetic_series(lambda t: 5.0 + 2.0 * t**-0.5)
    f = fit_rate(s, 5.0, "power", LATE, "mass")
    assert f["exponent"] == pytest.approx(-0.5, abs=0.01)
    assert f["prefactor"] == pytest.approx(2.0, rel=0.02)
    assert f["r2"] > 0.999999


@pytest.mark.parametrize("p", [-0.4, -0.5, -0.6, -1.0])
def test_fit_rate_estimator_consistency(p):
    s = synthetic_series(lambda t: 1.0 + 3.0 * t**p)
    f = fit_rate(s, 1.0, "power", LATE, "mass")
    assert f["exponent"] == pytest.approx(p, abs=0.01)


def test_fit_rate_log_over_t_model():
    s = synthetic_series(lambda t: 2.0 + 0.8 * np.log(t) / t, t_min=5.0)
    f = fit_rate(s, 2.0, "log_over_t", LATE, "mass")
    assert f["exponent"] == pytest.approx(1.0, abs=0.01)
    assert f["r2"] > 0.9999


def test_fit_rate_reports_usable_window():
    # make the residual underflow in the late half; the window must shrink
    t = np.geomspace(1.0, 1000.0, 300)
    res = np.where(t < 30.0, 1e-2 * t**-0.5, 0.0)
    s = ObservableSeries(t, 5.0 + res, 5.0 + res)
    f = fit_rate(s, 5.0, "power", (1.0, 1000.0), "mass")
    assert f["window"][1] < 30.0
    assert f["n_samples"] >= 20


def test_fit_rate_degenerate_raises():
    t = np.geomspace(1.0, 1000.0, 50)
    s = ObservableSeries(t, np.full_like(t, 5.0), np.full_like(t, 5.0))
    with pytest.raises(ValueError):
        fit_rate(s, 5.0, "power", LATE, "mass")


@pytest.mark.parametrize("observable", ["Mass", "slope", ""])
def test_fit_rate_rejects_unknown_observable(observable):
    s = synthetic_series(lambda t: 5.0 + 2.0 * t**-0.5)
    with pytest.raises(ValueError, match="unknown observable"):
        fit_rate(s, 5.0, "power", LATE, observable)


@pytest.mark.parametrize("model", ["Power", "log", "", None])
def test_rates_reject_unknown_model(model):
    s = synthetic_series(lambda t: 5.0 + 2.0 * t**-0.5)
    with pytest.raises(ValueError, match="unknown model"):
        fit_rate(s, 5.0, model, LATE, "mass")
    with pytest.raises(ValueError, match="unknown model"):
        estimate_alpha0(s, "slope_extrapolation", model, LATE)


@pytest.mark.parametrize("offset, models, source",
                         [(0.0, ["power", "log_over_t"], "spectral_projection"),
                          (1e-6, ["power"], "slope_extrapolation")],
                         ids=["critical", "just_off_critical"])
def test_rate_report_decides_the_regime(offset, models, source):
    # rate_report is the one place that tells the critical run from the others:
    # within 1e-9 of 3 sqrt(pi) it fits both models against the spectral
    # alpha_0, and its slope extrapolation uses the log_over_t model
    cbar = CB + offset
    cfg = make_config({"cbar": cbar, "dy": 0.1, "dtau": 0.02})
    traj, series = selfsimilar_run(cfg)
    report = rate_report(traj, series, cfg["fit.window"])
    assert [(f["observable"], f["model"]) for f in report["fits"]] == [
        (observable, model) for observable in ("mass", "slope0") for model in models]
    assert {f["alpha0_source"] for f in report["fits"]} == {source}
    window = (math.expm1(6.0), math.expm1(10.0))
    assert report["alpha0_methods"]["slope_extrapolation"] == estimate_alpha0(
        series, "slope_extrapolation", models[-1], window)


def _short_trajectory():
    """A WTrajectory that ends at tau = 5, short of the spectral projection's floor."""
    y = default_y_grid(0.1)
    return WTrajectory(y, np.array([4.0, 5.0]), np.zeros((2, y.size)), CB)


@pytest.mark.parametrize("call, error, match", [
    (lambda s: estimate_alpha0(_short_trajectory(), "slope_extrapolation", "power", LATE),
     TypeError, "needs an ObservableSeries"),
    (lambda s: estimate_alpha0(s, "spectral_projection"), TypeError, "needs a WTrajectory"),
    (lambda s: estimate_alpha0(_short_trajectory(), "spectral_projection"), ValueError,
     "wants tau >= 6"),
    (lambda s: estimate_alpha0(s, "least_squares"), ValueError, "unknown method"),
    (lambda s: prefactor_check(s, 5.0, (1.0, 1.1)), ValueError, "too few samples"),
    (lambda s: fit_remainder_decay(np.arange(5.0, 14.0), np.ones(9), (5.0, 13.0)), ValueError,
     "too few samples"),
], ids=["slope_extrapolation_of_a_trajectory", "spectral_projection_of_a_series",
        "spectral_projection_before_tau_6", "unknown_method", "prefactor_window_too_short",
        "remainder_window_too_short"])
def test_rates_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call(synthetic_series(lambda t: 5.0 + 2.0 * t**-0.5))


def test_prefactor_check_synthetic():
    P = -3.0
    t = np.geomspace(100.0, 20000.0, 300)
    tau = np.log1p(t)
    slope = 1.5 + P / np.sqrt(1 + t) + 0.4 * tau * np.exp(-tau)
    s = ObservableSeries(t, slope.copy(), slope)
    est = prefactor_check(s, 1.5, (2000.0, 20000.0))
    assert est == pytest.approx(P, rel=0.02)


def test_remainder_decay_pure_exponential():
    taus = np.linspace(3.0, 10.0, 100)
    lam, info = fit_remainder_decay(taus, 2.0 * np.exp(-taus))
    assert lam == pytest.approx(1.0, abs=0.02)


def test_remainder_decay_tau_prefactor():
    taus = np.linspace(3.0, 10.0, 100)
    lam, info = fit_remainder_decay(taus, 0.7 * taus * np.exp(-taus))
    assert lam == pytest.approx(1.0, abs=0.02)
