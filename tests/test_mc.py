import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import chisquare, norm

from bbmlab import mc
from bbmlab.mc import McConfig, PopulationCapExceeded, estimate, survival_probability
from bbmlab.pde import NumericalFailure


def indicator_12(p):
    return ((p >= 1.0) & (p <= 2.0)).astype(float)


def test_survival_trivial_and_bad_x0():
    cfg = McConfig(drift=0.0)
    p, se = survival_probability(1.0, 0.0, cfg, checkpoints=[0.0])
    np.testing.assert_array_equal(p, [1.0])
    np.testing.assert_array_equal(se, [0.0])
    with pytest.raises(ValueError, match="x0"):
        survival_probability(-1.0, 1.0, cfg, checkpoints=[1.0])
    with pytest.raises(ValueError, match="x0"):
        estimate(0.0, 1.0, indicator_12, cfg)
    with pytest.raises(ValueError, match="t_end"):
        estimate(1.0, -1.0, indicator_12, cfg)


@pytest.mark.parametrize("x0, t_end, name", [(math.nan, 1.0, "x0"), (math.inf, 1.0, "x0"),
                                             (1.0, math.nan, "t_end"), (1.0, math.inf, "t_end")],
                         ids=["x0_nan", "x0_inf", "t_end_nan", "t_end_inf"])
def test_rejects_non_finite_x0_and_t_end(monkeypatch, x0, t_end, name):
    # the cap keeps a sampler that ran on regardless small
    monkeypatch.setattr(mc, "POPULATION_CAP", 10_000)
    cfg = McConfig(n_replicas=100)
    with pytest.raises(ValueError, match=name):
        estimate(x0, t_end, indicator_12, cfg)
    with pytest.raises(ValueError, match=name):
        survival_probability(x0, t_end, cfg, checkpoints=[0.5])


@pytest.mark.parametrize("x0, t_end, name", [(-1.0, 0.0, "x0"), (0.0, 0.0, "x0"), (math.nan, 0.0, "x0"),
                                             (1.0, -0.5, "t_end")],
                         ids=["x0_negative", "x0_zero", "x0_nan", "t_end_negative"])
def test_horizon_at_or_below_zero_checks_x0_and_t_end(x0, t_end, name):
    # t_end = 0 runs the one sampler, so its start is checked like any other
    cfg = McConfig(n_replicas=100)
    with pytest.raises(ValueError, match=name):
        estimate(x0, t_end, indicator_12, cfg)
    with pytest.raises(ValueError, match=name):
        survival_probability(x0, t_end, cfg, checkpoints=[])


@pytest.mark.parametrize("checkpoints", [[0.5, 2.0], [0.8, 0.5], [-0.1, 0.5], [0.2, math.nan, 0.8]],
                         ids=["beyond_t_end", "unsorted", "negative", "nan_inside"])
def test_survival_rejects_bad_checkpoints(checkpoints):
    with pytest.raises(ValueError, match="checkpoints"):
        survival_probability(1.0, 1.0, McConfig(n_replicas=10), checkpoints=checkpoints)


def test_population_cap_is_a_numerical_failure(monkeypatch):
    # a driftless Yule population from x0 = 5 doubles about every 0.7 time units
    monkeypatch.setattr(mc, "POPULATION_CAP", 50)
    cfg = McConfig(drift=0.0, n_replicas=40, seed=1)
    with pytest.raises(PopulationCapExceeded, match="population cap 50") as info:
        estimate(5.0, 2.0, indicator_12, cfg)
    assert isinstance(info.value, NumericalFailure)
    assert isinstance(info.value, RuntimeError)


def test_survival_probability_deterministic(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK_SIZE", 1024)
    cfg = McConfig(drift=1.0, n_replicas=3_000, seed=5)
    a = survival_probability(2.0, 1.0, cfg, checkpoints=[0.25, 0.5, 1.0])
    b = survival_probability(2.0, 1.0, cfg, checkpoints=[0.25, 0.5, 1.0])
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = survival_probability(2.0, 1.0, McConfig(drift=1.0, n_replicas=3_000, seed=6),
                             checkpoints=[0.25, 0.5, 1.0])
    assert not np.array_equal(a[0], c[0])


def test_yule_mean_count():
    # without absorption the expected population is e^t
    cfg = McConfig(drift=0.0, absorb=False, n_replicas=20_000, seed=101)
    mean, se = estimate(5.0, 2.0, lambda p: np.ones_like(p), cfg)
    assert abs(mean - math.e**2) <= 3.0 * se
    # and at t = 1 and 3 with fewer replicas
    for t_end, n in ((1.0, 20_000), (3.0, 10_000)):
        cfg = McConfig(drift=0.0, absorb=False, n_replicas=n, seed=int(7 * t_end))
        mean, se = estimate(5.0, t_end, lambda p: np.ones_like(p), cfg)
        assert abs(mean - math.exp(t_end)) <= 3.0 * se


@pytest.mark.parametrize("rate, t_end", [(1.0, 1.0), (2.0, 0.75)], ids=["rate1", "rate2"])
def test_yule_count_geometric(rate, t_end):
    # the rate-r binary Yule count at t is geometric: P(N = k) = e^{-rt} (1 - e^{-rt})^{k-1}
    n, k_max = 20_000, 12
    cfg = McConfig(drift=0.0, branch_rate=rate, absorb=False, n_replicas=n, seed=61)
    counts = np.concatenate([np.bincount(rep, minlength=m)
                             for _, m, _, rep, _ in mc._run_chunks(5.0, np.array([t_end]), cfg)])
    assert counts.size == n and counts.min() >= 1
    q = 1.0 - math.exp(-rate * t_end)
    k = np.arange(1, k_max + 1)
    probs = np.append((1.0 - q) * q ** (k - 1), q ** k_max)     # the last bin is N > k_max
    observed = np.bincount(np.minimum(counts, k_max + 1), minlength=k_max + 2)[1:]
    assert n * probs.min() >= 5.0
    res = chisquare(observed, n * probs)
    assert res.pvalue >= 0.01


def test_survival_against_reflection_oracle():
    # driftless variance-2 Brownian motion absorbed at 0: P(survive to t) = erf(x0/sqrt(4t))
    x0, t_end = 1.0, 1.0
    cfg = McConfig(drift=0.0, branch_rate=0.0, n_replicas=40_000, seed=11)
    (p,), (se,) = survival_probability(x0, t_end, cfg, checkpoints=[t_end])
    exact = erf(x0 / math.sqrt(4.0 * t_end))
    assert abs(p - exact) <= 3.0 * se


@pytest.mark.parametrize("c", [-1.0, 0.5, 2.0])
def test_single_step_survival_matches_closed_form(c):
    # without branching each particle crosses [0, t] in one step, so only the
    # exact bridge test can give the drifted first-passage law
    x0, t_end = 1.0, 1.0
    s = math.sqrt(2.0 * t_end)
    exact = norm.cdf((x0 + c * t_end) / s) - math.exp(-c * x0) * norm.cdf((c * t_end - x0) / s)
    cfg = McConfig(drift=c, branch_rate=0.0, n_replicas=40_000, seed=13)
    (p,), (se,) = survival_probability(x0, t_end, cfg, checkpoints=[t_end])
    assert abs(p - exact) <= 3.0 * se
    # cutting the path at checkpoints does not change the law
    p4, se4 = survival_probability(x0, t_end, cfg, checkpoints=[0.25, 0.5, 0.75, 1.0])
    assert abs(p4[-1] - exact) <= 3.0 * se4[-1]


def test_payoff_against_method_of_images(killed_density):
    # many-to-one: E sum_i 1[1 <= Y_i(t) <= 2] = e^t int_1^2 p_c(t, x0, y) dy
    x0, t_end, c = 1.5, 3.0, 2.0
    integral, _ = quad(lambda y: killed_density(t_end, x0, y, c), 1.0, 2.0,
                       epsabs=1e-14, epsrel=1e-12)
    exact = math.exp(t_end) * integral
    assert exact == pytest.approx(0.0913334, abs=1e-7)
    mean, se = estimate(x0, t_end, indicator_12, McConfig(drift=c, n_replicas=40_000, seed=17))
    assert abs(mean - exact) <= 3.0 * se


def test_supercritical_pull_orders_survival():
    kw = dict(branch_rate=1.0, n_replicas=4_000, seed=21)
    (p3,), _ = survival_probability(1.0, 5.0, McConfig(drift=-3.0, **kw), checkpoints=[5.0])
    (p2,), _ = survival_probability(1.0, 5.0, McConfig(drift=-2.0, **kw), checkpoints=[5.0])
    assert p3 < p2


def test_critical_drift_survival_decreasing():
    cfg = McConfig(drift=-2.0, n_replicas=10_000, seed=31)
    checkpoints = list(range(1, 9))
    p, _ = survival_probability(1.0, 8.0, cfg, checkpoints=checkpoints)
    # checkpoints are nested along one run, so the series is monotone pathwise
    assert np.all(np.diff(p) <= 0)
    # no plateau: deaths occur in every window
    assert np.all(np.diff(p) < 0)
    assert p[-1] < p[0]


def test_estimate_trivial_and_linearity():
    cfg = McConfig(drift=2.0, n_replicas=2_000, seed=41)
    mean, se = estimate(1.5, 0.0, indicator_12, cfg)
    assert mean == 1.0 and se == 0.0
    m1, _ = estimate(1.5, 1.0, indicator_12, cfg)
    m2, _ = estimate(1.5, 1.0, lambda p: 2.0 * indicator_12(p), cfg)
    assert m2 == pytest.approx(2.0 * m1, rel=1e-15)


def test_estimate_deterministic(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK_SIZE", 512)
    cfg = McConfig(drift=2.0, n_replicas=2_000, seed=42)
    a = estimate(1.5, 1.0, indicator_12, cfg)
    b = estimate(1.5, 1.0, indicator_12, cfg)
    assert a == b


def test_population_cap(monkeypatch):
    monkeypatch.setattr(mc, "POPULATION_CAP", 100)
    cfg = McConfig(drift=0.0, absorb=False, n_replicas=64, seed=71)
    with pytest.raises(RuntimeError):
        estimate(5.0, 5.0, lambda p: np.ones_like(p), cfg)


def test_config_validation():
    # dt is unused by the exact sampler but still validated
    with pytest.raises(ValueError):
        McConfig(dt=0.0)
    with pytest.raises(ValueError):
        McConfig(n_replicas=0)
    with pytest.raises(ValueError):
        McConfig(branch_rate=-1.0)
    # a NaN would otherwise estimate 0 +- 0 (drift) or run pure diffusion (branch_rate)
    for bad in ({"dt": math.nan}, {"drift": math.nan}, {"drift": math.inf},
                {"drift": -math.inf}, {"branch_rate": math.nan}, {"branch_rate": math.inf}):
        with pytest.raises(ValueError):
            McConfig(**bad)
