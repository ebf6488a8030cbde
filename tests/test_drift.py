import math

import numpy as np
import pytest

from bbmlab.drift import (CBAR_CRITICAL, ConstantDrift, DriftExpansion, front_speed,
                          max_front_speed, selfsimilar_forcing)

CB = CBAR_CRITICAL


def _front_position(t, d):
    """The front schedule X(t) = 2(t+1) - (3/2) log(t+1) - cbar (t+1)^{-1/2}."""
    tp = t + 1.0
    return 2.0 * tp - 1.5 * math.log(tp) - d.cbar / math.sqrt(tp)


def test_critical_constant():
    assert CB == pytest.approx(3.0 * math.sqrt(math.pi), rel=0, abs=0)
    assert CB == pytest.approx(5.317361552716548, abs=1e-14)


def test_front_position_values():
    assert _front_position(0.0, DriftExpansion(CB)) == pytest.approx(2.0 - CB, abs=1e-14)
    assert _front_position(0.0, DriftExpansion(0.0)) == pytest.approx(2.0, abs=1e-14)
    # at t = e - 1 the log term is exactly 1
    t = math.e - 1.0
    assert _front_position(t, DriftExpansion(0.0)) == pytest.approx(2 * math.e - 1.5, abs=1e-12)


def test_front_speed_values():
    assert front_speed(0.0, DriftExpansion(CB)) == pytest.approx(0.5 + CB / 2.0, abs=1e-14)
    assert front_speed(0.0, DriftExpansion(0.0)) == pytest.approx(0.5, abs=1e-14)
    assert front_speed(1e12, DriftExpansion(7.0)) == pytest.approx(2.0, abs=1e-10)
    assert front_speed(1.5, ConstantDrift(-2.0)) == -2.0


def test_front_speed_is_symbolic_derivative():
    sp = pytest.importorskip("sympy")
    t, cbar = sp.symbols("t cbar", positive=True)
    X = 2 * (t + 1) - sp.Rational(3, 2) * sp.log(t + 1) - cbar / sp.sqrt(t + 1)
    Xdot = sp.diff(X, t)
    for tv in (0.0, 0.7, 3.0, 42.0):
        for cv in (0.0, 1.0, CB):
            expect = float(Xdot.subs({t: tv, cbar: cv}))
            assert front_speed(tv, DriftExpansion(cv)) == pytest.approx(expect, rel=1e-13)


def test_front_speed_matches_central_difference_second_order():
    d = DriftExpansion(CB)
    ts = np.linspace(0.5, 100.0, 200).tolist()
    errs = []
    for h in (1e-2, 5e-3):
        errs.append(max(abs((_front_position(t + h, d) - _front_position(t - h, d)) / (2 * h)
                            - front_speed(t, d)) for t in ts))
    # |X'''| <= 1.6 on this range, so the h^2/6 envelope gives ~2.6e-5
    assert errs[0] < 5e-5
    # halving h divides the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_speed_lower_bound_for_nonnegative_cbar():
    ts = np.linspace(0.0, 500.0, 20001).tolist()
    for cv in (0.0, 1.0, CB, 10.0):
        d = DriftExpansion(cv)
        assert min(front_speed(t, d) for t in ts) >= 0.5 - 1e-14


def test_forcing_values():
    a, b = selfsimilar_forcing(0.0, DriftExpansion(CB))
    assert a == pytest.approx(CB / 2.0 - 1.5, abs=1e-14)
    assert b == pytest.approx(-CB / 2.0, abs=1e-14)
    a0, b0 = selfsimilar_forcing(0.0, DriftExpansion(0.0))
    assert (a0, b0) == (pytest.approx(-1.5), pytest.approx(0.0))
    a_inf, b_inf = selfsimilar_forcing(80.0, DriftExpansion(CB))
    assert abs(a_inf) < 1e-15 and abs(b_inf) < 1e-15


def test_forcing_decays_monotonically_beyond_threshold():
    d = DriftExpansion(CB)
    taus = np.linspace(3.0, 30.0, 400).tolist()
    a, b = np.array([selfsimilar_forcing(tau, d) for tau in taus]).T
    assert np.all(np.diff(np.abs(a)) < 0)
    assert np.all(np.diff(np.abs(b)) < 0)


def test_max_front_speed_bounds_the_speed():
    ts = np.concatenate([[0.0], np.geomspace(1e-4, 1e8, 2001)])
    for cv in (-20.0, -3.0, -1.0, 0.0, 1.0, 3.0, CB, 10.0, 1000.0):
        d = DriftExpansion(cv)
        bound = max_front_speed(d)
        assert bound == max(2.0, abs(1.0 + cv) / 2.0)
        speeds = np.abs([front_speed(t, d) for t in ts.tolist()])
        assert speeds.max() <= bound * (1 + 1e-15)
        assert speeds.max() >= bound * (1 - 1e-4)     # attained at t = 0 or approached as t grows


def test_rejects_negative_time():
    d = DriftExpansion(1.0)
    with pytest.raises(ValueError):
        front_speed(-1e-9, d)
    with pytest.raises(ValueError):
        selfsimilar_forcing(-2.0, d)


def test_rejects_non_finite_cbar():
    with pytest.raises(ValueError):
        DriftExpansion(math.inf)


@pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf])
def test_constant_drift_rejects_non_finite_speed(speed):
    with pytest.raises(ValueError, match="speed must be finite"):
        ConstantDrift(speed)
