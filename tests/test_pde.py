import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from bbmlab import oscillator, pde
from bbmlab.drift import (CBAR_CRITICAL, ConstantDrift, DriftExpansion, front_speed,
                          selfsimilar_forcing)
from bbmlab.oscillator import (SelfSimilarField, default_y_grid, evolve_W,
                               observables_from_trajectory, to_selfsimilar)
from bbmlab.pde import (Field, NumericalFailure, ObservableSeries, SolverConfig,
                        SpatialGrid, StepFactors, _operator_parts, banded,
                        boundary_slope, evolve, flux_identity_residual,
                        initial_condition, march, mass, theta_step, write_csv,
                        write_series_csv)

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


@pytest.mark.parametrize("build, match", [
    (lambda: SpatialGrid(60.0, 2), "nx >= 3"),
    (lambda: SpatialGrid(0.0, 600), "x_max > 0"),
    (lambda: Field(SpatialGrid(60.0, 600), np.zeros(600)), r"length nx\+1"),
    (lambda: initial_condition("gaussian", SpatialGrid(60.0, 600)), "unknown initial condition"),
], ids=["grid_under_3_cells", "grid_x_max_0", "field_length", "initial_condition_kind"])
def test_grid_field_and_initial_condition_reject_bad_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()


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
    A0, _ = _operator_parts(grid)
    n, d2 = grid.nx + 1, 1.0 / grid.dx**2
    ab = A0 - banded(1, n, {-1: d2, 0: -2.0 * d2, 1: d2})
    parts = ab, np.zeros_like(ab)
    f = initial_condition("smooth_bump", grid, 5.0, 9.0)
    dt = SolverConfig(dt=0.01).effective_dt(grid)
    f1 = Field(grid, theta_step(parts, f.values, 0.0, dt, 0.5, StepFactors(parts), (0.0, 0.0)),
               dt)
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
    # mass at t = 10, refined in dx at a small fixed dt and in dt at a fixed
    # dx: refining both at once with dt = dx cancels part of the O(dx^2) and
    # O(dt^2) errors of the centred scheme, so each is measured on its own
    d = DriftExpansion(CB)
    for levels in ([(750, 0.0025), (1500, 0.0025), (3000, 0.0025)],
                   [(1500, 0.04), (1500, 0.02), (1500, 0.01)]):
        out = []
        for nx, dt in levels:
            grid = SpatialGrid(60.0, nx)
            f = initial_condition("indicator", grid)
            f1, _ = evolve(f, 10.0, SolverConfig(dt=dt, sample_every=10**9), d)
            out.append(mass(f1))
        ratio = abs(out[0] - out[1]) / abs(out[1] - out[2])
        assert 2.5 <= ratio <= 6.5, (levels, ratio)


@pytest.mark.parametrize("cells, dt, tol", [(12000, 0.0025, 5e-7), (6000, 0.01, 5e-6)])
def test_constant_drift_matches_method_of_images(killed_density, cells, dt, tol):
    # many-to-one: v(t, x0) for v0 = 1[1, 2] is e^t int_1^2 p_c(t, x0, y) dy
    x0, t_end, c = 1.5, 3.0, 2.0
    integral, _ = quad(lambda y: killed_density(t_end, x0, y, c), 1.0, 2.0,
                       epsabs=1e-14, epsrel=1e-12)
    exact = math.exp(t_end) * integral
    grid = SpatialGrid(60.0, cells)
    f0 = initial_condition("indicator", grid)
    fT, _ = evolve(f0, t_end, SolverConfig(dt=dt, sample_every=10**9), ConstantDrift(c))
    assert abs(float(CubicSpline(grid.x, fT.values)(x0)) - exact) <= tol


def test_evolve_rejects_speed_beyond_the_peclet_bound():
    # |speed| dx = 5 >= 2: I - h L is no longer an M-matrix
    f0 = initial_condition("indicator", SpatialGrid(60.0, 6000))
    with pytest.raises(ValueError, match=r"speed 500 at t = 0.0025 with dx = 0.01"):
        evolve(f0, 0.1, SolverConfig(dt=0.01), ConstantDrift(500.0))


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


def test_write_csv_strings_verbatim_numbers_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    values = [1.0 / 3.0, math.pi * 1e-300, -2.5e17, np.float64(0.1) + 0.2, 7]
    write_csv(path, ["name", "a", "b", "c", "d", "e"], [["x y", *values], ["z", *values[::-1]]])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,a,b,c,d,e"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["x y", "z"]
    assert [float(v) for v in lines[1].split(",")[1:]] == values
    assert [float(v) for v in lines[2].split(",")[1:]] == values[::-1]
    assert path.read_text().endswith("\n")


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
    L = banded(1, n + 1, {-1: 1 / dx**2, 0: -2 / dx**2, 1: 1 / dx**2})
    parts = L, np.zeros_like(L)
    v = np.sin(k * np.pi * x)
    v[0] = v[-1] = 0.0
    lam = 4.0 / dx**2 * math.sin(k * np.pi * dx / 2) ** 2
    h = 1e-3
    for theta, factor in ((1.0, 1.0 / (1.0 + h * lam)),
                          (0.5, (1.0 - h * lam / 2) / (1.0 + h * lam / 2))):
        out = theta_step(parts, v, 0.0, h, theta, StepFactors(parts), (0.0, 0.0))
        assert out[0] == 0.0 and out[-1] == 0.0
        np.testing.assert_allclose(out, factor * v, rtol=0, atol=1e-12)


def test_theta_step_non_finite_raises():
    L = banded(1, 5, {-1: 1.0, 0: np.inf, 1: 1.0})
    parts = L, np.zeros_like(L)
    with pytest.raises(NumericalFailure):
        theta_step(parts, np.array([0.0, 1.0, 2.0, 1.0, 0.0]), 0.0, 0.1, 0.5, StepFactors(parts),
                   (0.0, 0.0))


def _solve_banded_step(L, k, v, h, theta):
    """A theta step of the half-width k operator L factored afresh by solve_banded,
    in the one-solve form: u = (I - theta h L)^{-1} v, then u/theta - ((1 - theta)/theta) v."""
    A = -theta * h * L[k:]
    A[k] += 1.0
    out = solve_banded((k, k), A, v)
    if theta < 1.0:
        out = out / theta - (1.0 - theta) / theta * v
    out[0] = out[-1] = 0.0
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_theta_step_matches_solve_banded_bit_for_bit(k):
    # random diagonally dominant systems, several steps, each with parts whose
    # fill-in rows are NaN, so a factorization that read them would show
    n = 257
    rng = np.random.default_rng(2 * k)
    zeros = banded(k, n, {})
    v = rng.standard_normal(n)
    v[0] = v[-1] = 0.0
    for h, theta in ((0.03, 0.5), (0.011, 0.5), (0.02, 1.0)):
        diags = {j: rng.uniform(-50.0, 50.0, n) for j in range(-k, k + 1) if j}
        diags[0] = -(sum(np.abs(c) for c in diags.values()) + rng.uniform(0.0, 5.0, n))
        L = banded(k, n, diags)
        want = _solve_banded_step(L, k, v, h, theta)
        L[:k] = np.nan
        parts = L, zeros
        got = theta_step(parts, v, 0.0, h, theta, StepFactors(parts), (0.0, 0.0))
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, v)
        v = got


def test_step_factors_reused_only_for_the_same_matrix():
    # one StepFactors through steps that repeat the matrix or change one of
    # c1, c2, h and theta at a time, on the tridiagonal and the banded path;
    # a reused factorization keeps its pivot array
    for k in (1, 2):
        n = 129
        rng = np.random.default_rng(7)

        def operator():
            diags = {j: rng.uniform(-50.0, 50.0, n) for j in range(-k, k + 1) if j}
            diags[0] = -(sum(np.abs(c) for c in diags.values()) + rng.uniform(0.0, 5.0, n))
            return banded(k, n, diags)

        parts = P0, P1 = operator(), operator()
        eye = banded(k, n, {0: 1.0})
        v = rng.standard_normal(n)
        v[0] = v[-1] = 0.0
        factors = StepFactors(parts)
        plan = [((1.0, 0.0), 0.03, 0.5, False), ((1.0, 0.0), 0.03, 0.5, True),
                ((1.0, 0.0), 0.03, 1.0, False), ((1.0, 0.0), 0.03, 1.0, True),
                ((1.0, 0.0), 0.02, 1.0, False), ((0.5, 0.0), 0.02, 1.0, False),
                ((0.5, 0.0), 0.02, 1.0, True), ((0.5, -3.0), 0.02, 1.0, False),
                ((0.5, -3.0), 0.02, 1.0, True)]
        for c, h, theta, reused in plan:
            piv = factors.piv
            got = theta_step(parts, v, 0.0, h, theta, factors, c)
            want = _solve_banded_step(P0 + c[0] * P1 + c[1] * eye, k, v, h, theta)
            np.testing.assert_array_equal(got, want)
            assert (factors.piv is piv) == reused, (k, c, h, theta)
            v = got
        # the finiteness check runs on the reusing path too
        bad = v.copy()
        bad[n // 2] = np.nan
        with pytest.raises(NumericalFailure):
            theta_step(parts, bad, 0.0, 0.02, 1.0, factors, (0.5, -3.0))
        assert factors.piv is piv


def _factorizations(monkeypatch):
    """The number of pde's dgttrf and dgbtrf calls, by routine."""
    counts = dict.fromkeys(("dgttrf", "dgbtrf"), 0)
    for name in counts:
        def counted(*args, _name=name, _factor=getattr(pde, name), **kwargs):
            counts[_name] += 1
            return _factor(*args, **kwargs)
        monkeypatch.setattr(pde, name, counted)
    return counts


@pytest.mark.parametrize("d, count", [(ConstantDrift(2.0), 3), (DriftExpansion(5.0), 22)],
                         ids=["constant", "expansion"])
def test_physical_run_factors_once_per_distinct_matrix(monkeypatch, d, count):
    # the run of test_evolve_matches_per_step_factorization_bit_for_bit: a
    # constant drift factors the startup, the main steps and the short last
    # step once each, the expansion each of its 2 + 19 + 1 steps
    counts = _factorizations(monkeypatch)
    evolve(initial_condition("indicator", SpatialGrid(60.0, 600)), 1.03,
           SolverConfig(dt=0.05, sample_every=1, startup_steps=2), d)
    assert counts == {"dgttrf": count, "dgbtrf": 0}


def test_selfsimilar_run_factors_every_step(monkeypatch):
    # the forcing coefficients change at every half time: 2 startup half
    # steps, 19 steps of 0.05 and a last one of 0.03, one dgbtrf each
    counts = _factorizations(monkeypatch)
    y = default_y_grid(0.5)
    w0 = y * np.exp(-(y - 3.0) ** 2)
    w0[0] = w0[-1] = 0.0
    tau0 = math.log(2.0)
    traj = evolve_W(SelfSimilarField(tau0, y, w0), tau0 + 1.03, DriftExpansion(0.0), dtau=0.05,
                    sample_every=1, startup_steps=2)
    assert len(traj) == 22     # the start, the end of the startup and 20 steps
    assert counts == {"dgttrf": 0, "dgbtrf": 22}


@pytest.mark.parametrize("k", [1, 2], ids=["tridiagonal", "banded"])
def test_theta_step_singular_raises(k):
    # I - h L has a zero row where h L = 1: LAPACK reports it, and the
    # factors are not kept for reuse
    L = banded(k, 5, {0: 10.0})
    parts = L, np.zeros_like(L)
    factors = StepFactors(parts)
    with pytest.raises(NumericalFailure, match="singular"):
        theta_step(parts, np.array([0.0, 1.0, 2.0, 1.0, 0.0]), 0.0, 0.1, 1.0, factors, (0.0, 0.0))
    assert factors.made_for is None


def _reference_evolve(f0, t_end, cfg, d):
    """pde.evolve with sample_every = 1, every step factored by solve_banded
    over the whole grid."""
    grid = f0.grid
    A0, A1 = _operator_parts(grid)
    dt = cfg.effective_dt(grid)
    t, v = f0.time, f0.values.copy()
    samples = [(t, v)]
    for _ in range(cfg.startup_steps):
        if t >= t_end - 1e-14:
            break
        h = min(dt / 2.0, t_end - t)
        v = _solve_banded_step(A0 + front_speed(t + 0.5 * h, d) * A1, 1, v, h, 1.0)
        t += h
    if cfg.startup_steps:
        samples.append((t, v))
    while t < t_end - 1e-12:
        last = t_end - t <= dt * (1.0 + 1e-9)   # the last step ends exactly at t_end
        h = t_end - t if last else dt
        v = _solve_banded_step(A0 + front_speed(t + 0.5 * h, d) * A1, 1, v, h, 0.5)
        t = t_end if last else t + h
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


def _solved_rows(monkeypatch):
    """The length of every right-hand side pde's dgttrs solves, in call order."""
    rows = []

    def dgttrs(*args):
        rows.append(args[5].size)
        return pde_dgttrs(*args)
    pde_dgttrs = pde.dgttrs
    monkeypatch.setattr(pde, "dgttrs", dgttrs)
    return rows


def _assert_evolve_matches_reference(f0, t_end, cfg, d):
    fT, series = evolve(f0, t_end, cfg, d)
    v, times, masses, slopes = _reference_evolve(f0, t_end, cfg, d)
    np.testing.assert_array_equal(fT.values, v)
    np.testing.assert_array_equal(series.times, times)
    np.testing.assert_array_equal(series.mass, masses)
    np.testing.assert_array_equal(series.slope0, slopes)


def test_active_prefix_matches_whole_grid_many_to_one_reference(monkeypatch):
    # criterion 8's reference solve: the underflow front leaves the grid after
    # about 435 of 1202 steps, and until then each step solves a prefix
    rows = _solved_rows(monkeypatch)
    grid = SpatialGrid(60.0, 12000)
    _assert_evolve_matches_reference(initial_condition("indicator", grid), 3.0,
                                     SolverConfig(dt=0.0025, sample_every=1), ConstantDrift(2.0))
    prefixes = [r for r in rows if r < grid.nx + 1]
    assert len(prefixes) > 400 and len(rows) - len(prefixes) < 800


@pytest.mark.parametrize("cbar", [0.0, 10.0])
def test_active_prefix_matches_whole_grid_handoff(monkeypatch, cbar):
    # the handoff of a self-similar run: its drift expansion factors every
    # step afresh, and the front leaves the grid within about 20 steps
    rows = _solved_rows(monkeypatch)
    f0 = initial_condition("indicator", SpatialGrid(60.0, 6000))
    _assert_evolve_matches_reference(f0, 1.0, SolverConfig(dt=0.01), DriftExpansion(cbar))
    assert any(r < 6001 for r in rows)


def test_active_prefix_falls_back_to_the_whole_grid(monkeypatch):
    # a margin of one node is less than the front advances in a step: the last
    # covered value is not 0, and each of the 202 steps ends in a whole-grid solve
    monkeypatch.setattr(pde, "PREFIX_MARGIN", 1)
    rows = _solved_rows(monkeypatch)
    grid = SpatialGrid(60.0, 12000)
    _assert_evolve_matches_reference(initial_condition("indicator", grid), 0.5,
                                     SolverConfig(dt=0.0025, sample_every=1), ConstantDrift(2.0))
    n = grid.nx + 1
    assert rows.count(n) == 202 and len(rows) > 202


def test_prefix_exact_needs_a_regular_tail():
    # criterion 8's step matrix interchanges rows only near the origin, so any
    # later cut may stand; a row interchange or a small pivot at or past a cut
    # forbids it
    parts = _operator_parts(SpatialGrid(60.0, 12000))
    factors = StepFactors(parts)
    v = np.zeros(12001)
    v[200:401] = 1.0
    theta_step(parts, v, 0.0, 0.0025, 0.5, factors, (2.0, 0.0))
    def exact(p):
        factors.tail = None     # what _prefix_exact keeps of the factors it reads
        return pde._prefix_exact(factors, p)

    assert exact(100) and exact(11000)
    d = factors.tri[1]
    factors.piv[5000] = 5002    # step 5000 interchanges rows 5000 and 5001
    assert not exact(5001) and exact(5002)
    d[9000] = 40.0              # below 2 floor(57.6/2) = 56, the bound from the usual pivot
    assert not exact(9000) and exact(9001)


@pytest.mark.parametrize("startup_steps", [0, 2])
@pytest.mark.parametrize("cbar", [0.0, 10.0, -3.0])
def test_evolve_W_matches_per_step_factorization_bit_for_bit(cbar, startup_steps):
    # the self-similar twin of the test above: every step's L0 + a L1 + b I is
    # built here from the parts and factored by solve_banded, with a short
    # last step (1.03 = 20 x 0.05 + 0.03, or 2 x 0.025 + 19 x 0.05 + 0.03)
    y = default_y_grid(0.5)
    w0 = y * np.exp(-(y - 3.0) ** 2)
    w0[0] = w0[-1] = 0.0
    tau0, dtau = math.log(2.0), 0.05
    tau_end = tau0 + 1.03
    d = DriftExpansion(cbar)
    traj = evolve_W(SelfSimilarField(tau0, y, w0), tau_end, d, dtau=dtau, sample_every=1,
                    startup_steps=startup_steps)
    L0, L1 = oscillator._operator_parts(y, 0.5)
    eye = banded(2, y.size, {0: 1.0})

    def step(tau, v, h, theta):
        a, b = selfsimilar_forcing(tau + 0.5 * h, d)
        return _solve_banded_step(L0 + a * L1 + b * eye, 2, v, h, theta)

    tau, v = tau0, w0
    taus, states = [tau], [v]
    for _ in range(startup_steps):
        v = step(tau, v, dtau / 2.0, 1.0)
        tau += dtau / 2.0
    if startup_steps:
        taus.append(tau)
        states.append(v)
    while tau < tau_end - 1e-12:
        h = min(dtau, tau_end - tau)
        v = step(tau, v, h, 0.5)
        tau += h
        taus.append(tau)
        states.append(v)
    np.testing.assert_array_equal(traj.taus, taus)
    np.testing.assert_array_equal(traj.states, states)


def _march_decay(t_end, dt, startup_steps, sample_every):
    """march of v' = -v on 5 nodes from t = 0: (samples, half-step times).

    The parts are -I and 0, and every step's coefficients are (0, 0).
    """
    parts = banded(1, 5, {0: -1.0}), banded(1, 5, {})
    calls = []

    def coefficients(t_half):
        calls.append(t_half)
        return 0.0, 0.0
    v0 = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
    return list(march(parts, v0, 0.0, t_end, dt, startup_steps, sample_every, coefficients)), calls


def test_march_sample_schedule():
    # two half steps to 0.1, nine steps of 0.1 and a short last one to 1.05:
    # samples at the start, after the startup, every third step and at t_end;
    # the half-step times and the gain show which steps are startup half steps
    samples, calls = _march_decay(1.05, 0.1, 2, 3)
    times = [t for t, _ in samples]
    np.testing.assert_allclose(times, [0.0, 0.1, 0.4, 0.7, 1.0, 1.05], atol=1e-12)
    np.testing.assert_allclose(calls, [0.025, 0.075] + [0.15 + 0.1 * k for k in range(9)] + [1.025],
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
    np.testing.assert_allclose(calls, [0.025, 0.06], atol=1e-15)
    np.testing.assert_allclose(samples[-1][1], np.array([0.0, 1.0, 2.0, 3.0, 0.0]) / (1.05 * 1.02),
                               rtol=1e-14)


def test_march_ends_exactly_at_t_end():
    # ten steps of 0.1 add up to 0.9999999999999999: the last one is cut to end at 1
    samples, calls = _march_decay(1.0, 0.1, 0, 1)
    assert len(calls) == 10
    assert samples[-1][0] == 1.0


def test_evolve_W_ends_where_the_readout_needs():
    # 600 steps of 0.01 fall 8e-14 short of tau = 6 unless the last is cut to end there
    f0 = initial_condition("indicator", SpatialGrid(60.0, 600))
    traj = evolve_W(to_selfsimilar(f0, default_y_grid(0.1)), 6.0, DriftExpansion(0.0),
                    dtau=0.01, sample_every=50)
    assert traj.taus[-1] == 6.0
    assert len(observables_from_trajectory(traj)) == traj.taus.size


@pytest.mark.parametrize("frame", ["physical", "selfsimilar"])
@pytest.mark.parametrize("bad", [{"sample_every": 0}, {"startup_steps": -1}, {"t_end": np.nan},
                                 {"dt": np.nan}, {"t_end": -1.0}],
                         ids=["sample_every_0", "startup_steps_negative", "t_end_nan", "dt_nan",
                              "t_end_before_start"])
def test_march_rejects_bad_schedule(frame, bad):
    # both frames reach march, which rejects the schedule before any step
    f0 = initial_condition("indicator", SpatialGrid(60.0, 600))
    physical = frame == "physical"
    a = {"t_end": 1.0 if physical else 0.1, "dt": 0.05 if physical else 0.01,
         "sample_every": 1, "startup_steps": 4 if physical else 0, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        if physical:
            evolve(f0, a["t_end"], SolverConfig(a["dt"], a["sample_every"], a["startup_steps"]),
                   DriftExpansion(1.0))
        else:
            evolve_W(to_selfsimilar(f0, default_y_grid()), a["t_end"], DriftExpansion(1.0),
                     dtau=a["dt"], sample_every=a["sample_every"],
                     startup_steps=a["startup_steps"])
