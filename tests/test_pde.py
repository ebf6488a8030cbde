import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from bbmlab.drift import CBAR_CRITICAL, ConstantDrift, DriftExpansion, front_speed
from bbmlab.oscillator import evolve_W, to_selfsimilar
from bbmlab.pde import (_BANDS, Field, NumericalFailure, ObservableSeries, SolverConfig,
                        SpatialGrid, StepFactors, _matvec, _operator_parts, banded,
                        boundary_slope, evolve, flux_identity_residual,
                        initial_condition, march, mass, theta_step, write_series_csv)

CB = CBAR_CRITICAL


@pytest.fixture
def grid():
    return SpatialGrid(60.0, 6000)


def test_indicator_values(grid):
    f = initial_condition("indicator", grid)
    x = grid.x
    assert f.values[np.argmin(np.abs(x - 1.5))] == 1.0
    assert f.values[np.argmin(np.abs(x - 0.5))] == 0.0
    # jump nodes coincide with grid points here, so they carry half weight
    assert f.values[np.argmin(np.abs(x - 1.0))] == 0.5
    assert f.values[np.argmin(np.abs(x - 2.0))] == 0.5
    assert mass(f) == pytest.approx(1.0, abs=grid.dx**2)


def test_smooth_bump(grid):
    f = initial_condition("smooth_bump", grid, 1.0, 3.0)
    assert f.values.max() == pytest.approx(1.0, abs=1e-12)
    x = grid.x
    assert np.all(f.values[(x < 1.0) | (x > 3.0)] == 0.0)


def test_initial_condition_rejects_bad_support(grid):
    with pytest.raises(ValueError):
        initial_condition("indicator", grid, 10.0, 70.0)
    with pytest.raises(ValueError):
        initial_condition("indicator", grid, 2.0, 1.0)


def test_field_invariants(grid):
    with pytest.raises(ValueError):
        Field(grid, np.ones(grid.nx + 1))          # nonzero ends
    with pytest.raises(NumericalFailure):
        v = np.zeros(grid.nx + 1)
        v[5] = np.nan
        Field(grid, v)


def test_zero_is_fixed_point(grid):
    f = Field(grid, np.zeros(grid.nx + 1))
    d = DriftExpansion(CB)
    cfg = SolverConfig(dt=0.01, startup_steps=0)
    for _ in range(5):
        f, _ = evolve(f, f.time + cfg.dt, cfg, d)     # one Crank-Nicolson step
    assert np.all(f.values == 0.0)


def test_dirichlet_stays_zero(grid):
    f = initial_condition("indicator", grid)
    d = DriftExpansion(CB)
    cfg = SolverConfig(dt=0.01, startup_steps=0)
    for _ in range(10):
        f, _ = evolve(f, f.time + cfg.dt, cfg, d)     # one Crank-Nicolson step
        assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_pure_growth_factor(grid):
    # A0 less its 3-point Laplacian is the growth term alone: one trapezoidal
    # step with it multiplies by (1 + dt/2)/(1 - dt/2)
    A0, _, _ = _operator_parts(grid)
    n, d2 = grid.nx + 1, 1.0 / grid.dx**2
    ab = A0 - banded(_BANDS, n, {-1: d2, 0: -2.0 * d2, 1: d2})
    f = initial_condition("smooth_bump", grid, 5.0, 9.0)
    dt = SolverConfig(dt=0.01).effective_dt(grid)
    f1 = Field(grid, theta_step(ab, _BANDS, f.values, 0.0, dt, 0.5), dt)
    factor = (1 + dt / 2) / (1 - dt / 2)
    inner = slice(1, -1)
    np.testing.assert_allclose(f1.values[inner], factor * f.values[inner],
                               rtol=1e-12, atol=1e-300)


def test_mass_oracle_profile(grid):
    x = grid.x
    v = 0.7 * x * np.exp(-x)
    v[0] = v[-1] = 0.0
    f = Field(grid, v)
    exact = 0.7 * (1.0 - (1.0 + grid.x_max) * math.exp(-grid.x_max))
    assert mass(f) == pytest.approx(exact, abs=5 * grid.dx**2)
    assert mass(Field(grid, np.zeros(grid.nx + 1))) == 0.0


def test_boundary_slope_oracles(grid):
    x = grid.x
    v = x * np.exp(-x)
    v[0] = v[-1] = 0.0
    assert boundary_slope(Field(grid, v)) == pytest.approx(1.0, abs=5 * grid.dx**2)
    assert boundary_slope(Field(grid, np.zeros(grid.nx + 1))) == 0.0
    # exact for quadratics
    q = 0.3 * x * (grid.x_max - x)
    q[0] = q[-1] = 0.0
    assert boundary_slope(Field(grid, q)) == pytest.approx(0.3 * grid.x_max, rel=1e-11)


def test_evolve_noop(grid):
    f = initial_condition("indicator", grid)
    f1, series = evolve(f, 0.0, SolverConfig(dt=0.01), DriftExpansion(CB))
    assert f1.time == 0.0
    assert len(series) == 1
    np.testing.assert_array_equal(f1.values, f.values)


def test_positivity(grid):
    f = initial_condition("indicator", grid)
    f1, _ = evolve(f, 2.0, SolverConfig(dt=0.01), DriftExpansion(CB))
    assert f1.values.min() >= -1e-12 * f1.values.max()


def test_mass_bounded_critical_run():
    # coarse grid is enough for the boundedness check out to t = 100
    grid = SpatialGrid(60.0, 3000)
    f = initial_condition("indicator", grid)
    d = DriftExpansion(CB)
    cfg = SolverConfig(dt=0.02, sample_every=50)
    m0 = mass(f)
    _, series = evolve(f, 100.0, cfg, d)
    assert series.mass.max() <= 10.0 * m0


def test_self_convergence_second_order():
    # mass at t = 10 under simultaneous (dx, dt) refinement
    d = DriftExpansion(CB)
    out = {}
    for nx in (1500, 3000, 6000):
        grid = SpatialGrid(60.0, nx)
        f = initial_condition("indicator", grid)
        cfg = SolverConfig(dt=grid.dx, sample_every=10**9)
        f1, _ = evolve(f, 10.0, cfg, d)
        out[nx] = mass(f1)
    e_coarse = abs(out[1500] - out[3000])
    e_fine = abs(out[3000] - out[6000])
    assert 2.5 <= e_coarse / e_fine <= 6.5


def test_truncation_insensitivity():
    d = DriftExpansion(CB)
    masses = {}
    for x_max in (60.0, 120.0):
        grid = SpatialGrid(x_max, int(x_max / 0.02))
        f = initial_condition("indicator", grid)
        cfg = SolverConfig(dt=0.02, sample_every=10**9)
        f1, _ = evolve(f, 50.0, cfg, d)
        masses[x_max] = mass(f1)
    rel = abs(masses[60.0] - masses[120.0]) / abs(masses[120.0])
    assert rel < 1e-10


def test_flux_identity_synthetic_exponential():
    t = np.linspace(1.0, 2.0, 201)
    s = ObservableSeries(t, np.exp(t), np.zeros_like(t))
    dt = t[1] - t[0]
    assert flux_identity_residual(s) < np.exp(2.0) * dt**2


def test_flux_identity_synthetic_stationary():
    t = np.linspace(0.0, 1.0, 101)
    m = np.full_like(t, 3.7)
    s = ObservableSeries(t, m, m.copy())
    assert flux_identity_residual(s) < 1e-13


def test_flux_identity_requires_three_samples():
    with pytest.raises(ValueError):
        flux_identity_residual(ObservableSeries([0.0, 1.0], [1.0, 1.0], [0.0, 0.0]))


def test_series_validation():
    with pytest.raises(ValueError):
        ObservableSeries([0.0, 1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        ObservableSeries([1.0, 0.5], [1.0, 1.0], [0.0, 0.0])


def test_series_csv_roundtrip(tmp_path):
    t = np.array([0.0, 0.5, 1.0])
    s = ObservableSeries(t, np.array([1.0, 1.1, 1.3]) / 3.0, np.array([0.1, 0.2, 0.3]))
    path = tmp_path / "series.csv"
    write_series_csv(path, s)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mass,slope0,flux_residual"
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(back[:, 0], t)
    np.testing.assert_array_equal(back[:, 1], s.mass)  # 17 significant digits round-trips


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    cfg = SolverConfig(dt=0.5)
    assert cfg.effective_dt(SpatialGrid(60.0, 6000)) == pytest.approx(0.01)


@pytest.mark.parametrize("k", [1, 7, 60])
def test_theta_step_scales_sine_mode_exactly(k):
    # the 3-point Dirichlet Laplacian has eigenvectors sin(k pi x) with
    # eigenvalue -lam, lam = (4/dx^2) sin^2(k pi dx/2); one theta step scales
    # them by (1 - (1 - theta) h lam) / (1 + theta h lam)
    n = 200
    dx = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    lu = (1, 1)
    L = banded(lu, n + 1, {-1: 1 / dx**2, 0: -2 / dx**2, 1: 1 / dx**2})
    v = np.sin(k * np.pi * x)
    v[0] = v[-1] = 0.0
    lam = 4.0 / dx**2 * math.sin(k * np.pi * dx / 2) ** 2
    h = 1e-3
    for theta, factor in ((1.0, 1.0 / (1.0 + h * lam)),
                          (0.5, (1.0 - h * lam / 2) / (1.0 + h * lam / 2))):
        out = theta_step(L.copy(), lu, v, 0.0, h, theta)
        assert out[0] == 0.0 and out[-1] == 0.0
        np.testing.assert_allclose(out, factor * v, rtol=0, atol=1e-12)


def test_theta_step_non_finite_raises():
    lu = (1, 1)
    L = banded(lu, 5, {-1: 1.0, 0: np.inf, 1: 1.0})
    with pytest.raises(NumericalFailure):
        theta_step(L, lu, np.array([0.0, 1.0, 2.0, 1.0, 0.0]), 0.0, 0.1, 0.5)


@pytest.mark.parametrize("lu", [(1, 2), (2, 2)])
def test_theta_step_matches_solve_banded_bit_for_bit(lu):
    # random diagonally dominant systems, several steps through one buffer
    # whose fill-in rows are NaN, so a solve that read them would show
    l, u = lu
    n = 257
    rng = np.random.default_rng(sum(lu))
    ab = banded(lu, n, {})
    ab[:l] = np.nan
    v = rng.standard_normal(n)
    v[0] = v[-1] = 0.0
    for h, theta in ((0.03, 0.5), (0.011, 0.5), (0.02, 1.0)):
        diags = {k: rng.uniform(-50.0, 50.0, n) for k in range(-l, u + 1) if k}
        diags[0] = -(sum(np.abs(c) for c in diags.values()) + rng.uniform(0.0, 5.0, n))
        L = banded(lu, n, diags)
        rhs = v + (1.0 - theta) * h * _matvec(L, lu, v) if theta < 1.0 else v.copy()
        A = -theta * h * L[l:]
        A[u] += 1.0
        want = solve_banded(lu, A, rhs)
        want[0] = want[-1] = 0.0
        ab[l:] = L[l:]
        got = theta_step(ab, lu, v, 0.0, h, theta)
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, v)
        v = got


def _solve_banded_step(L, lu, v, h, theta):
    """A theta step factored afresh by solve_banded, as in the test above."""
    l, u = lu
    rhs = v + (1.0 - theta) * h * _matvec(L, lu, v) if theta < 1.0 else v.copy()
    A = -theta * h * L[l:]
    A[u] += 1.0
    out = solve_banded(lu, A, rhs)
    out[0] = out[-1] = 0.0
    return out


def test_step_factors_reused_only_for_the_same_matrix():
    # one StepFactors through steps that repeat the matrix or change one of L
    # (named by its key), h and theta at a time, and one step without a key;
    # a reused factorization keeps its pivot array
    lu = (1, 2)
    n = 129
    rng = np.random.default_rng(7)

    def operator():
        diags = {k: rng.uniform(-50.0, 50.0, n) for k in (-1, 1, 2)}
        diags[0] = -(sum(np.abs(c) for c in diags.values()) + rng.uniform(0.0, 5.0, n))
        return banded(lu, n, diags)

    L1, L2 = operator(), operator()
    v = rng.standard_normal(n)
    v[0] = v[-1] = 0.0
    factors = StepFactors(L1)
    plan = [(L1, 1, 0.03, 0.5, False), (L1, 1, 0.03, 0.5, True), (L1, 1, 0.03, 1.0, False),
            (L1, 1, 0.03, 1.0, True), (L1, 1, 0.02, 1.0, False), (L2, 2, 0.02, 1.0, False),
            (L2, None, 0.02, 1.0, False), (L2, 2, 0.02, 1.0, False), (L2, 2, 0.02, 1.0, True)]
    for L, key, h, theta, reused in plan:
        piv = factors.piv
        got = theta_step(L, lu, v, 0.0, h, theta, factors, key)
        np.testing.assert_array_equal(got, _solve_banded_step(L, lu, v, h, theta))
        assert (factors.piv is piv) == reused
        v = got
    # the finiteness check runs on the reusing path too
    bad = v.copy()
    bad[n // 2] = np.nan
    with pytest.raises(NumericalFailure):
        theta_step(L2, lu, bad, 0.0, 0.02, 1.0, factors, 2)
    assert factors.piv is piv


def _reference_evolve(f0, t_end, cfg, d):
    """pde.evolve with sample_every = 1, every step factored by solve_banded."""
    grid = f0.grid
    A0, first, second = _operator_parts(grid)
    dt = cfg.effective_dt(grid)
    t, v = f0.time, f0.values.copy()
    samples = [(t, v)]
    for _ in range(cfg.startup_steps):
        if t >= t_end - 1e-14:
            break
        h = min(dt / 2.0, t_end - t)
        v = _solve_banded_step(front_speed(t + 0.5 * h, d) * first + A0, _BANDS, v, h, 1.0)
        t += h
    if cfg.startup_steps:
        samples.append((t, v))
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        v = _solve_banded_step(front_speed(t + 0.5 * h, d) * second + A0, _BANDS, v, h, 0.5)
        t += h
        samples.append((t, v))
    fields = [Field(grid, vs, ts) for ts, vs in samples]
    return (v, np.array([f.time for f in fields]), np.array([mass(f) for f in fields]),
            np.array([boundary_slope(f) for f in fields]))


@pytest.mark.parametrize("d", [ConstantDrift(2.0), DriftExpansion(5.0)],
                         ids=["constant", "expansion"])
def test_evolve_matches_per_step_factorization_bit_for_bit(d):
    # startup, main and a short last step (1.03 = 2 x 0.025 + 19 x 0.05 + 0.03):
    # a constant drift reuses the factors within each, the expansion never
    grid = SpatialGrid(60.0, 600)
    cfg = SolverConfig(dt=0.05, sample_every=1, startup_steps=2)
    f0 = initial_condition("indicator", grid)
    fT, series = evolve(f0, 1.03, cfg, d)
    v, times, masses, slopes = _reference_evolve(f0, 1.03, cfg, d)
    np.testing.assert_array_equal(fT.values, v)
    np.testing.assert_array_equal(series.times, times)
    np.testing.assert_array_equal(series.mass, masses)
    np.testing.assert_array_equal(series.slope0, slopes)


def _march_decay(t_end, dt, startup_steps, sample_every):
    """march of v' = -v on 5 nodes from t = 0: (samples, operator calls)."""
    L = banded((1, 1), 5, {0: -1.0})
    calls = []

    def operator(t_half, startup):
        calls.append((t_half, startup))
        return 0
    v0 = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
    return list(march(L, (1, 1), v0, 0.0, t_end, dt, startup_steps, sample_every, operator)), calls


def test_march_sample_schedule():
    # two half steps to 0.1, nine steps of 0.1 and a short last one to 1.05:
    # samples at the start, after the startup, every third step and at t_end
    samples, calls = _march_decay(1.05, 0.1, 2, 3)
    times = [t for t, _ in samples]
    np.testing.assert_allclose(times, [0.0, 0.1, 0.4, 0.7, 1.0, 1.05], atol=1e-12)
    assert [s for _, s in calls] == [True] * 2 + [False] * 10
    np.testing.assert_allclose([t for t, _ in calls],
                               [0.025, 0.075] + [0.15 + 0.1 * k for k in range(9)] + [1.025],
                               atol=1e-12)
    # implicit Euler scales by 1/(1 + h), Crank-Nicolson by (1 - h/2)/(1 + h/2)
    gain = (1.0 / 1.05) ** 2 * (0.95 / 1.05) ** 9 * (0.975 / 1.025)
    np.testing.assert_allclose(samples[-1][1], gain * np.array([0.0, 1.0, 2.0, 3.0, 0.0]),
                               rtol=1e-13)
    # without a startup there is no sample before the first regular one
    times = [t for t, _ in _march_decay(0.5, 0.1, 0, 2)[0]]
    np.testing.assert_allclose(times, [0.0, 0.2, 0.4, 0.5], atol=1e-12)


def test_march_startup_stops_at_t_end():
    # the second half step is cut to end at t_end, and no Crank-Nicolson step follows
    samples, calls = _march_decay(0.07, 0.1, 4, 1)
    np.testing.assert_allclose([t for t, _ in samples], [0.0, 0.07], atol=1e-15)
    np.testing.assert_allclose([t for t, _ in calls], [0.025, 0.06], atol=1e-15)
    assert all(s for _, s in calls)
    np.testing.assert_allclose(samples[-1][1], np.array([0.0, 1.0, 2.0, 3.0, 0.0]) / (1.05 * 1.02),
                               rtol=1e-14)


@pytest.mark.parametrize("frame", ["physical", "selfsimilar"])
@pytest.mark.parametrize("bad", [{"sample_every": 0}, {"startup_steps": -1}],
                         ids=["sample_every_0", "startup_steps_negative"])
def test_march_rejects_bad_schedule(frame, bad):
    # both frames reach march, which rejects the schedule before any step
    f0 = initial_condition("indicator", SpatialGrid(60.0, 600))
    with pytest.raises(ValueError, match=next(iter(bad))):
        if frame == "physical":
            evolve(f0, 1.0, SolverConfig(dt=0.05, **bad), DriftExpansion(1.0))
        else:
            schedule = {"sample_every": 1, "startup_steps": 0, **bad}
            evolve_W(to_selfsimilar(f0), 0.1, DriftExpansion(1.0), dtau=0.01, **schedule)
