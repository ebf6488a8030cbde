import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import kstest

from bbmlab.mc import (McConfig, PopulationCapExceeded, PopulationState, estimate,
                       replica_stream, sample_interbranch_times, simulate_replica,
                       survival_probability)
from bbmlab.pde import NumericalFailure


def indicator_12(p):
    return ((p >= 1.0) & (p <= 2.0)).astype(float)


def test_simulate_replica_trivial():
    cfg = McConfig(drift=0.0)
    out = simulate_replica(1.0, 0.0, cfg, replica_stream(0, 0))
    np.testing.assert_array_equal(out, [1.0])
    with pytest.raises(ValueError):
        simulate_replica(-1.0, 1.0, cfg, replica_stream(0, 0))


def test_population_cap_is_a_numerical_failure():
    # a driftless Yule population from x0 = 5 doubles about every 0.7 time units
    cfg = McConfig(drift=0.0, dt=0.01, n_replicas=40, seed=1, population_cap=50)
    with pytest.raises(PopulationCapExceeded, match="population cap 50") as info:
        estimate(5.0, 2.0, indicator_12, cfg)
    assert isinstance(info.value, NumericalFailure)
    assert isinstance(info.value, RuntimeError)
    with pytest.raises(PopulationCapExceeded):
        simulate_replica(5.0, 20.0, McConfig(drift=0.0, dt=0.01, population_cap=3),
                         replica_stream(1, 0))


def test_simulate_replica_deterministic():
    cfg = McConfig(drift=1.0, dt=1e-3, seed=5)
    a = simulate_replica(2.0, 1.0, cfg, replica_stream(5, 3))
    b = simulate_replica(2.0, 1.0, cfg, replica_stream(5, 3))
    np.testing.assert_array_equal(a, b)
    c = simulate_replica(2.0, 1.0, cfg, replica_stream(5, 4))
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_population_state_invariant():
    with pytest.raises(ValueError):
        PopulationState(np.array([1.0, -0.5]), 0.0)


def test_yule_mean_count():
    # without absorption the expected population is e^t
    cfg = McConfig(drift=0.0, absorb=False, dt=1e-3, n_replicas=20_000, seed=101)
    mean, se = estimate(5.0, 2.0, lambda p: np.ones_like(p), cfg)
    assert abs(mean - math.e**2) <= 3.0 * se
    # and at t = 1 and 3 with fewer replicas
    for t_end, n in ((1.0, 20_000), (3.0, 10_000)):
        cfg = McConfig(drift=0.0, absorb=False, dt=1e-3, n_replicas=n, seed=int(7 * t_end))
        mean, se = estimate(5.0, t_end, lambda p: np.ones_like(p), cfg)
        assert abs(mean - math.exp(t_end)) <= 3.0 * se


def test_survival_against_reflection_oracle():
    # driftless variance-2 Brownian motion absorbed at 0: P(survive to t) = erf(x0/sqrt(4t))
    x0, t_end = 1.0, 1.0
    cfg = McConfig(drift=0.0, branch_rate=0.0, dt=1e-3, n_replicas=40_000, seed=11)
    p, se = survival_probability(x0, t_end, cfg)
    exact = erf(x0 / math.sqrt(4.0 * t_end))
    assert abs(p - exact) <= 3.0 * se


def test_bridge_correction_removes_bias():
    x0, t_end = 1.0, 1.0
    exact = erf(x0 / math.sqrt(4.0 * t_end))
    cfg = McConfig(drift=0.0, branch_rate=0.0, dt=1e-3, n_replicas=40_000, seed=12,
                   bridge_correction=False)
    p_nb, se = survival_probability(x0, t_end, cfg)
    # without the bridge correction the survival is overestimated by O(sqrt(dt))
    assert p_nb - exact > 3.0 * se


def test_supercritical_pull_orders_survival():
    kw = dict(branch_rate=1.0, dt=1e-3, n_replicas=4_000, seed=21)
    p3, se3 = survival_probability(1.0, 5.0, McConfig(drift=-3.0, **kw))
    p2, se2 = survival_probability(1.0, 5.0, McConfig(drift=-2.0, **kw))
    assert p3 < p2


def test_critical_drift_survival_decreasing():
    cfg = McConfig(drift=-2.0, dt=1e-3, n_replicas=10_000, seed=31)
    checkpoints = list(range(1, 9))
    p, _ = survival_probability(1.0, 8.0, cfg, checkpoints=checkpoints)
    # checkpoints are nested along one run, so the series is monotone pathwise
    assert np.all(np.diff(p) <= 0)
    # no plateau: deaths occur in every window
    assert np.all(np.diff(p) < 0)
    assert p[-1] < p[0]


def test_estimate_trivial_and_linearity():
    cfg = McConfig(drift=2.0, dt=1e-3, n_replicas=2_000, seed=41)
    mean, se = estimate(1.5, 0.0, indicator_12, cfg)
    assert mean == 1.0 and se == 0.0
    m1, _ = estimate(1.5, 1.0, indicator_12, cfg)
    m2, _ = estimate(1.5, 1.0, lambda p: 2.0 * indicator_12(p), cfg)
    assert m2 == pytest.approx(2.0 * m1, rel=1e-15)


def test_estimate_deterministic():
    cfg = McConfig(drift=2.0, dt=1e-3, n_replicas=2_000, seed=42)
    a = estimate(1.5, 1.0, indicator_12, cfg)
    b = estimate(1.5, 1.0, indicator_12, cfg)
    assert a == b


def test_dt_refinement_within_one_stderr():
    base = dict(drift=2.0, n_replicas=20_000, seed=55)
    m1, se1 = estimate(1.5, 2.0, indicator_12, McConfig(dt=1e-3, **base))
    m2, se2 = estimate(1.5, 2.0, indicator_12, McConfig(dt=5e-4, **base))
    assert abs(m1 - m2) <= math.hypot(se1, se2)


def test_interbranch_times_exponential():
    cfg = McConfig(drift=0.0, absorb=False, dt=1e-3, n_replicas=8_000, seed=61)
    samples, bound = sample_interbranch_times(cfg, 5.0)
    assert samples.size > 5_000
    # exponential conditioned on landing inside the observation window
    trunc = 1.0 - math.exp(-cfg.branch_rate * bound)
    cdf = lambda x: (1.0 - np.exp(-cfg.branch_rate * np.asarray(x))) / trunc
    res = kstest(samples, cdf)
    assert res.pvalue >= 0.01


def test_population_cap():
    cfg = McConfig(drift=0.0, absorb=False, dt=1e-2, n_replicas=64, seed=71,
                   population_cap=100)
    with pytest.raises(RuntimeError):
        estimate(5.0, 5.0, lambda p: np.ones_like(p), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(dt=0.0)
    with pytest.raises(ValueError):
        McConfig(n_replicas=0)
    with pytest.raises(ValueError):
        McConfig(branch_rate=-1.0)
