import itertools
import math

import numpy as np
import pytest

from bbmlab.drift import CBAR_CRITICAL, DriftExpansion
from bbmlab.oscillator import (KERNEL_NORM, LossOfSupport, SelfSimilarField, SpectralBasis,
                               decompose, default_y_grid, eigenfunction, evolve_W, hermite_rows,
                               initial_mode_overlap, observables_from_trajectory,
                               slope_correspondence, to_selfsimilar, trapezoid_weights)
from bbmlab.pde import (Field, NumericalFailure, SolverConfig, SpatialGrid, boundary_slope,
                        evolve, initial_condition, mass)
from oracles import M_h, from_selfsimilar, quadratic_form_Q

CB = CBAR_CRITICAL
DY = 0.01


def l2(w, f):
    return math.sqrt(np.sum(w * f * f))


# ---------------------------------------------------------------------------
# the change of variables

def test_transform_exponent_rederivation():
    """Substituting W = e^{a tau} e^{y^2/8} w into the scaled equation must give
    the -3/4 potential constant; that forces a = -1/2 (the printed source of
    the transform has the opposite sign, which would give -7/4)."""
    sp = pytest.importorskip("sympy")
    t, x, tau, y, cbar, a = sp.symbols("t x tau y cbar a", real=True)
    W = sp.Function("W")
    wexpr = sp.exp(-a * tau) * sp.exp(-y**2 / 8) * W(tau, y)
    vbar = wexpr.subs({tau: sp.log(1 + t), y: x / sp.sqrt(1 + t)})
    beta = sp.Rational(3, 2) / (t + 1) - cbar / (2 * (t + 1) * sp.sqrt(t + 1))
    residual = (sp.diff(vbar, t) + beta * sp.diff(vbar, x)
                - sp.diff(vbar, x, 2) - beta * vbar) * (t + 1)
    residual = residual.subs({t: sp.exp(tau) - 1, x: y * sp.exp(tau / 2)})
    residual = sp.expand(sp.simplify(residual / (sp.exp(-a * tau) * sp.exp(-y**2 / 8))))
    coeffs = sp.collect(residual, [sp.Derivative(W(tau, y), tau),
                                   sp.Derivative(W(tau, y), (y, 2)),
                                   sp.Derivative(W(tau, y), y),
                                   W(tau, y)], evaluate=False)
    w_coeff = sp.expand(coeffs[W(tau, y)])
    const = w_coeff.subs({y: 0}).subs({sp.exp(-tau): 0, sp.exp(-tau / 2): 0})
    # potential constant is -(5/4) - a; equals -3/4 iff a = -1/2
    assert sp.simplify(const - (-sp.Rational(5, 4) - a)) == 0
    w_at_half = w_coeff.subs({a: -sp.Rational(1, 2)})
    assert sp.simplify(w_at_half - (y**2 / 16 - sp.Rational(3, 4)
                                    + cbar * y * sp.exp(-tau) / 8
                                    + cbar * sp.exp(-tau / 2) / 2
                                    - 3 * y * sp.exp(-tau / 2) / 8)) == 0
    # W_y coefficient matches -a(tau) of the forcing
    wy = sp.simplify(coeffs[sp.Derivative(W(tau, y), y)]
                     - (-cbar * sp.exp(-tau) / 2 + sp.Rational(3, 2) * sp.exp(-tau / 2)))
    assert wy == 0


def test_to_selfsimilar_at_t0():
    grid = SpatialGrid(60.0, 6000)
    x = grid.x
    v = np.exp(-((x - 3.0) ** 2))
    v[0] = v[-1] = 0.0
    f = Field(grid, v, 0.0)
    W = to_selfsimilar(f, default_y_grid())
    expect = np.exp(W.y**2 / 8) * np.exp(W.y) * np.interp(W.y, x, v)
    expect[0] = expect[-1] = 0.0
    sel = W.y <= 12.0   # beyond that both sides are ~0
    np.testing.assert_allclose(W.values[sel], expect[sel], atol=1e-7)


def test_manufactured_gaussian_maps_to_kernel_mode():
    # v(t,x) = x e^{-x} e^{-x^2/(4(1+t))}  <->  W = y e^{-y^2/8}
    grid = SpatialGrid(60.0, 6000)
    t = 3.0
    x = grid.x
    v = x * np.exp(-x) * np.exp(-x * x / (4 * (1 + t)))
    v[0] = v[-1] = 0.0
    W = to_selfsimilar(Field(grid, v, t), default_y_grid())
    expect = W.y * np.exp(-W.y**2 / 8)
    sel = W.y * math.sqrt(1 + t) <= grid.x_max
    np.testing.assert_allclose(W.values[sel], expect[sel], atol=2e-9)


def test_zero_maps_to_zero():
    grid = SpatialGrid(60.0, 6000)
    W = to_selfsimilar(Field(grid, np.zeros(grid.nx + 1), 1.0), default_y_grid())
    assert np.all(W.values == 0.0)


def test_loss_of_support():
    # at t = 30 the y grid would end at x = 25 sqrt(31) = 139.19, past x_max = 60
    grid = SpatialGrid(60.0, 6000)
    x = grid.x
    v = np.exp(-x / 30.0)
    v[0] = v[-1] = 0.0
    with pytest.raises(LossOfSupport, match="139.19 > x_max = 60"):
        to_selfsimilar(Field(grid, v, 30.0), default_y_grid())
    # a field that is zero everywhere too: the map reads nothing past x_max
    with pytest.raises(LossOfSupport, match="61.24 > x_max = 60"):
        to_selfsimilar(Field(grid, np.zeros(grid.nx + 1), 5.0), default_y_grid())


def test_loss_of_support_beyond_the_self_similar_grid():
    # at t = 1 the y grid ends at x = 25 sqrt(2) = 35.36, inside x_max = 60:
    # a field alive beyond it would be dropped from W
    grid = SpatialGrid(60.0, 6000)
    v = np.where(grid.x < 40.0, 1.0, 0.0)
    v[0] = 0.0
    with pytest.raises(LossOfSupport, match="beyond x = 35.36"):
        to_selfsimilar(Field(grid, v, 1.0), default_y_grid())
    v[grid.x > 35.0] = 0.0
    to_selfsimilar(Field(grid, v, 1.0), default_y_grid())


def test_round_trip_interpolation_accuracy():
    grid = SpatialGrid(60.0, 6000)
    t = 2.0
    x = grid.x
    v = x * np.exp(-x) * np.exp(-x * x / (4 * (1 + t))) * (1 + 0.3 * np.sin(x))
    v[0] = v[-1] = 0.0
    f = Field(grid, v, t)
    back = from_selfsimilar(to_selfsimilar(f, default_y_grid()), grid)
    assert back.time == pytest.approx(t, abs=1e-12)
    err = np.max(np.abs(back.values - v))
    assert err < 1e-8   # two cubic interpolations at dx = dy = 0.01


def test_slope_correspondence_values(y_grid):
    W = SelfSimilarField(0.0, y_grid, y_grid * np.exp(-y_grid**2 / 8))
    # one-sided 4th-order stencil: error (dy^4/5) f^(5)(0) with f^(5)(0) = 15/16
    assert slope_correspondence(W) == pytest.approx(1.0, abs=5e-9)
    Z = SelfSimilarField(0.0, y_grid, np.zeros_like(y_grid))
    assert slope_correspondence(Z) == 0.0


def test_slope_correspondence_cross_module():
    # the transform identity W_y(tau,0) = v_x(t,0) holds exactly; numerically
    # the comparison floor is the one-sided stencil of boundary_slope, O(dx^2)
    grid = SpatialGrid(60.0, 6000)
    f = initial_condition("indicator", grid)
    d = DriftExpansion(CB)
    f1, _ = evolve(f, 10.0, SolverConfig(dt=0.01, sample_every=10**9), d)
    # at t = 10 the map reads x = y sqrt(11): y up to 18 stays inside x_max = 60
    ws = slope_correspondence(to_selfsimilar(f1, default_y_grid()[:1801]))
    bs = boundary_slope(f1)
    assert ws == pytest.approx(bs, rel=5e-4)


def test_initial_mode_overlap_indicator():
    grid = SpatialGrid(60.0, 6000)
    f = initial_condition("indicator", grid)
    weighted, plain = initial_mode_overlap(f)
    # int_1^2 y e^y dy = e^2 ; int_1^2 y dy = 3/2 ; the two readings differ
    assert weighted == pytest.approx(math.e**2, abs=1e-3)
    assert plain == pytest.approx(1.5, abs=1e-4)


# ---------------------------------------------------------------------------
# basis and operator

def test_eigenfunction_e0_value():
    # direct formula (2 sqrt(pi))^{-1/2} * 2 * e^{-1/2}
    val = eigenfunction(0, np.array([2.0]))[0]
    assert val == pytest.approx(2.0 * math.exp(-0.5) / math.sqrt(2 * math.sqrt(math.pi)),
                                rel=1e-13)


def test_hermite_rows_match_mpmath(y_grid):
    # row n is h_{2n+1}(y/2); the two-step recurrence loses accuracy in high rows
    # near u = 0, where it has a double root, bounded beforehand by 16 eps per
    # Hermite index: 16 (2n+1) eps absolute
    mp = pytest.importorskip("mpmath")
    u = np.array([0.01, 0.05, 0.08, 0.5, 2.0, 10.0, 25.0]) / 2.0
    rows = list(itertools.islice(hermite_rows(u), 1024))
    for n in (0, 1, 10, 100, 511, 1023):
        k = 2 * n + 1
        with mp.workdps(40):
            norm = mp.sqrt(2**k * mp.factorial(k) * mp.sqrt(mp.pi))
            want = np.array([float(mp.hermite(k, x) * mp.exp(-mp.mpf(x) ** 2 / 2) / norm)
                             for x in u])
        assert np.max(np.abs(rows[n] - want)) <= 16 * k * np.finfo(float).eps, n
    # e_0 is h_1 = sqrt(2) u h_0 bit for bit, as the three-term recurrence's first step
    u = y_grid / 2.0
    np.testing.assert_array_equal(eigenfunction(0, y_grid),
                                  math.sqrt(2.0) * u * (np.pi ** -0.25 * np.exp(-0.5 * u * u)))


def test_eigenfunction_e0_normalization(y_grid, weights):
    e0 = eigenfunction(0, y_grid)
    assert np.sum(weights * e0 * e0) == pytest.approx(1.0, abs=1e-12)
    # closed form: int_0^inf y^2 e^{-y^2/4} dy = 2 sqrt(pi) normalizes the kernel mode
    kernel = y_grid * np.exp(-y_grid**2 / 8)
    assert np.sum(weights * kernel * kernel) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)
    assert KERNEL_NORM == pytest.approx(math.sqrt(2 * math.sqrt(math.pi)), abs=0)


def test_eigenfunction_e1_formula(y_grid):
    e1 = eigenfunction(1, y_grid)
    expect = (y_grid**3 - 6 * y_grid) * np.exp(-y_grid**2 / 8) / math.sqrt(48 * math.sqrt(math.pi))
    np.testing.assert_allclose(e1, expect, atol=1e-13)


def test_orthonormality(basis12):
    G = (basis12.modes * basis12.weights) @ basis12.modes.T
    off = G - np.eye(12)
    assert np.abs(off).max() <= 1e-10


def test_eigen_residuals(y_grid, weights):
    M = M_h(y_grid, DY)
    for n in range(9):
        en = eigenfunction(n, y_grid)
        r = M @ en - n * en
        assert l2(weights, r) <= 1e-4, f"mode {n}"


def test_eigen_residual_refines():
    errs = []
    for dy in (0.02, 0.01):
        y = default_y_grid(dy)
        w = trapezoid_weights(y.size, dy)
        e4 = eigenfunction(4, y)
        errs.append(l2(w, M_h(y, dy) @ e4 - 4 * e4))
    assert errs[0] / errs[1] > 3.9   # 4th-order stencil refines at least this fast


def test_apply_M_on_quadratic(y_grid):
    Y = y_grid[-1]
    phi = y_grid * (Y - y_grid)
    out = M_h(y_grid, DY) @ phi
    expect = 2.0 + (y_grid**2 / 16 - 0.75) * phi
    inner = slice(1, -1)
    np.testing.assert_allclose(out[inner], expect[inner], rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("build, error, match", [
    (lambda y: SelfSimilarField(0.0, y, y[:-1]), ValueError, "same shape"),
    (lambda y: SelfSimilarField(0.0, y, np.full_like(y, np.nan)), NumericalFailure, "non-finite"),
    (lambda y: eigenfunction(-1, y), ValueError, "n must be >= 0"),
    (lambda y: SpectralBasis(y, 0), ValueError, "n_modes must be >= 1"),
    (lambda y: SpectralBasis(np.linspace(-2.0, 2.0, 9), 12), ValueError,
     r"y must be >= 0 at every node, got y\[0\] = -2\.0$"),
], ids=["field_shape_mismatch", "field_not_finite", "eigenfunction_negative_n", "basis_no_modes",
        "basis_negative_node"])
def test_self_similar_types_reject_bad_input(y_grid, build, error, match):
    with pytest.raises(error, match=match):
        build(y_grid)


def test_Q_eigen_values(y_grid):
    e0 = eigenfunction(0, y_grid)
    e1 = eigenfunction(1, y_grid)
    assert abs(quadratic_form_Q(e0, DY)) <= 1e-8
    assert abs(quadratic_form_Q(e1, DY) - 1.0) <= 1e-8
    assert abs(quadratic_form_Q(e0 + e1, DY) - 1.0) <= 1e-8


def _random_smooth(y_grid, rng, n_bumps=4):
    """Smooth test function, numerically compactly supported.

    Gaussian bumps kept >= 6.5 sigma away from both ends, so the values there
    are below 1e-9 of the peak; no windowing (a clipped window would put
    curvature kinks into the stencils).
    """
    Y = y_grid[-1]
    phi = np.zeros_like(y_grid)
    for _ in range(n_bumps):
        s = rng.uniform(0.8, 1.4)
        c = rng.uniform(6.5 * s, Y - 6.5 * s)
        amp = rng.uniform(-1.0, 1.0)
        phi += amp * np.exp(-((y_grid - c) ** 2) / (2 * s * s))
    phi[0] = phi[-1] = 0.0
    return phi


def test_form_consistency_random(y_grid, weights):
    rng = np.random.default_rng(7)
    M = M_h(y_grid, DY)
    for _ in range(10):
        phi = _random_smooth(y_grid, rng)
        q = quadratic_form_Q(phi, DY)
        inner = float(np.sum(weights * phi * (M @ phi)))
        assert abs(q - inner) <= 1e-8


def test_spectral_gap_on_excited_span(y_grid, weights):
    rng = np.random.default_rng(11)
    modes = [eigenfunction(n, y_grid) for n in range(1, 9)]
    for _ in range(20):
        c = rng.standard_normal(8)
        phi = sum(ci * m for ci, m in zip(c, modes))
        nrm2 = float(np.sum(weights * phi * phi))
        assert quadratic_form_Q(phi, DY) >= nrm2 * (1 - 1e-8)


def test_weighted_moment_inequality(y_grid, weights):
    # int (y/4) phi^2 <= Q(phi) + ||phi||^2, from (y-2)^2 >= 0
    rng = np.random.default_rng(13)
    for _ in range(100):
        phi = _random_smooth(y_grid, rng)
        lhs = float(np.sum(weights * (y_grid / 4.0) * phi * phi))
        nrm2 = float(np.sum(weights * phi * phi))
        assert lhs <= quadratic_form_Q(phi, DY) + nrm2 + 1e-10


# ---------------------------------------------------------------------------
# evolution and decomposition

def test_projection_convergence_rate(run_critical):
    # <W(tau), e_0> settles at rate e^{-tau/2}
    traj, _, _ = run_critical
    e0 = eigenfunction(0, traj.y)
    P = traj.states @ (trapezoid_weights(traj.y.size, traj.y[1] - traj.y[0]) * e0)
    taus = traj.taus
    i_ref = len(taus) - 1
    sel = (taus >= 2.0) & (taus <= 8.0)
    gap = np.abs(P[sel] - P[i_ref])
    bound = np.exp(-taus[sel] / 2.0)
    C = np.max(gap / bound)
    # the constant is modest and the later gaps obey the same envelope
    assert C < 10.0 * abs(P[i_ref])
    late = (taus >= 6.0) & (taus <= 8.0)
    assert np.all(np.abs(P[late] - P[i_ref]) <= 1.2 * C * np.exp(-taus[late] / 2.0))


def test_two_route_consistency():
    """Physical marching to t=20 vs handoff at t=1 + self-similar marching."""
    d = DriftExpansion(CB)
    grid = SpatialGrid(60.0, 15000)   # dx = 0.004 reference
    f = initial_condition("indicator", grid)
    cfg = SolverConfig(dt=0.004, sample_every=10**9)
    f1, _ = evolve(f, 1.0, cfg, d)
    W0 = to_selfsimilar(f1, default_y_grid())
    tau_end = math.log(21.0)
    traj = evolve_W(W0, tau_end, d, dtau=0.001, sample_every=10**9)
    W_ss = traj.states[-1]

    # at t = 20 the map reads x = y sqrt(21): y up to 13 stays inside x_max = 60,
    # and W_ss is below 2e-10 beyond it
    f20, _ = evolve(f1, 20.0, cfg, d)
    W_phys = to_selfsimilar(f20, default_y_grid()[:1301]).values
    W_ss = W_ss[:W_phys.size]

    w = trapezoid_weights(W_ss.size, 0.01)
    diff = l2(w, W_ss - W_phys)
    norm = l2(w, W_phys)
    # absolute L2 agreement; the relative bound guards against a vacuous pass
    assert diff < 1e-4
    assert diff / norm < 1e-3


def test_decompose_exact_reconstruction(y_grid):
    rng = np.random.default_rng(3)
    g = _random_smooth(y_grid, rng)
    tau = 4.0
    alpha = 1.7
    kernel = y_grid * np.exp(-y_grid**2 / 8)
    W = SelfSimilarField(tau, y_grid, alpha * kernel + math.exp(-tau / 2) * g)
    dec = decompose(W, alpha, g)
    assert dec.r_norm < 1e-14
    assert np.abs(dec.remainder).max() < 1e-14
    # and the three parts rebuild W exactly
    rebuilt = alpha * kernel + dec.g_part + dec.remainder
    np.testing.assert_allclose(rebuilt, W.values, atol=1e-15)


def test_remainder_slope_decay(run_critical):
    from bbmlab.specfun import g_profile
    traj, _, report = run_critical
    alpha = report["alpha0"]
    g = g_profile(alpha, CB, traj.y).values
    taus = traj.taus
    i4 = int(np.argmin(np.abs(taus - 4.0)))
    i8 = int(np.argmin(np.abs(taus - 8.0)))
    r4 = abs(decompose(traj.field(i4), alpha, g).r_slope0)
    r8 = abs(decompose(traj.field(i8), alpha, g).r_slope0)
    # decay consistent with tau e^{-tau} within a factor 10
    assert r8 <= 10.0 * r4 * (8 * math.exp(-8)) / (4 * math.exp(-4))


def test_balance_mass_matches_the_quadrature_readout(run_critical):
    # an independent readout of the same trajectory: from_selfsimilar onto the
    # physical grid, the trapezoid, and the trapezoid's end correction
    # dx^2 v_x(t, 0) / 12.  The two agree up to the fourth-order error of the
    # y grid, which the march satisfies the mass balance to: the largest gap
    # over tau in [6, 10] was 2.5e-5, 1.25e-6 and 1.5e-7 at dy = 0.1, 0.05 and
    # 0.025 (dy^4), and over tau >= 4 at most 3.7e-6 at the default dy = 0.05
    # (cbar = 0, 3 sqrt(pi) and 10)
    traj, series, _ = run_critical
    grid = SpatialGrid()
    late = np.flatnonzero(traj.taus >= 4.0)
    oracle = [mass(from_selfsimilar(traj.field(i), grid)) + grid.dx**2 * series.slope0[i] / 12.0
              for i in late]
    np.testing.assert_allclose(series.mass[late], oracle, rtol=1e-5, atol=0)


def test_mass_balance_wants_a_trajectory_to_tau_6():
    # the recurrence starts from slope0 taken as flat at the last sample
    y = default_y_grid(dy=0.1)
    W0 = SelfSimilarField(math.log(2.0), y, y * np.exp(-y * y / 8.0))
    d = DriftExpansion(CB)
    with pytest.raises(ValueError, match="tau"):
        observables_from_trajectory(evolve_W(W0, 4.0, d, dtau=0.02, sample_every=1))
    traj = evolve_W(W0, 6.0, d, dtau=0.02, sample_every=1)
    assert traj.taus[-1] == 6.0
    assert len(observables_from_trajectory(traj)) == len(traj)


def test_observables_from_trajectory_match_physical():
    d = DriftExpansion(CB)
    grid = SpatialGrid(60.0, 6000)
    f = initial_condition("indicator", grid)
    cfg = SolverConfig(dt=0.01, sample_every=10**9)
    f1, _ = evolve(f, 1.0, cfg, d)
    W0 = to_selfsimilar(f1, default_y_grid())
    # 550 steps reach t = 5 (tau = log 6); the mass wants samples 0.02
    # apart in tau up to tau = 6
    dtau = math.log(3.0) / 550
    traj = evolve_W(W0, 6.0, d, dtau=dtau, sample_every=10)
    series = observables_from_trajectory(traj)
    f5, _ = evolve(f1, 5.0, cfg, d)
    i5 = 55
    assert series.times[i5] == pytest.approx(5.0, abs=1e-9)
    # both routes carry O(dx^2 + dt^2) marching error at this resolution
    assert series.mass[i5] == pytest.approx(mass(f5), rel=1e-3)
    assert series.slope0[i5] == pytest.approx(boundary_slope(f5), rel=1e-3)


@pytest.mark.parametrize("startup_steps", [2, 4])
def test_startup_steps_end_at_tau_end_once(startup_steps):
    # the Crank-Nicolson steps are counted from the tau the implicit-Euler
    # half steps reach, so the march takes no zero-length steps at its end
    y = default_y_grid(dy=0.1)
    W0 = SelfSimilarField(math.log(2.0), y, y * np.exp(-y * y / 8.0))
    traj = evolve_W(W0, 10.0, DriftExpansion(10.0), dtau=0.01, sample_every=1,
                    startup_steps=startup_steps)
    assert np.all(np.diff(traj.taus) > 0.0)
    assert traj.taus[-1] == 10.0
    assert len(observables_from_trajectory(traj)) == len(traj)


def test_startup_stops_at_tau_end():
    # a march shorter than its startup ends at tau_end after half steps
    # clipped there, with the stepped state as its last sample
    y = default_y_grid(dy=0.1)
    W0 = SelfSimilarField(math.log(2.0), y, y * np.exp(-y * y / 8.0))
    tau_end = math.log(2.0) + 0.01
    traj = evolve_W(W0, tau_end, DriftExpansion(10.0), dtau=0.01, sample_every=1,
                    startup_steps=4)
    assert traj.taus[-1] == pytest.approx(tau_end, abs=1e-14)
    assert not np.array_equal(traj.states[-1], W0.values)
