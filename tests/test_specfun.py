import itertools
import math

import numpy as np
import pytest
from scipy.special import dawsn

from bbmlab.drift import CBAR_CRITICAL, SQRT_PI
from bbmlab.oscillator import SpectralBasis, default_y_grid, trapezoid_weights
from bbmlab.specfun import (F2, H, G_explicit, SeriesDiverged, _G0, _f0_projections,
                            _g0_series, _g0_spectral, _tail_integrand, g1_coefficient,
                            g_profile, g_slope0, kernel_projection_of_F, solve_g_spectral)
from oracles import M_h

CB = CBAR_CRITICAL


# ---------------------------------------------------------------------------
# the two series

def test_F2_at_zero():
    assert F2(0.0) == 0.0


def test_F2_small_z_oracle():
    # first terms: (2/3) z^2 + (8/90) z^3 + 16/1260 z^4 + ...
    z = 0.1
    oracle = (2 / 3) * z**2 + (8 / 90) * z**3 + (16 / 1260) * z**4 + \
        SQRT_PI * z**5 / (20 * math.gamma(5.5))
    # the n >= 6 tail is ~2e-10 at z = 0.1
    assert F2(z) == pytest.approx(oracle, abs=1e-9)
    # frozen from the oracle; quoted elsewhere as 6.75687e-3, accurate to ~3e-8
    assert F2(z) == pytest.approx(6.756842535547e-3, abs=1e-9)


def test_H_at_zero():
    assert H(0.0) == 0.0


def test_H_small_z_oracle():
    # H(z) = sqrt(z) - z^{3/2}/3 - (sqrt(z)/4) z^2 Gamma(3/2)/(2 Gamma(7/2)) - ...
    # from Gamma(-1/2) = -2 sqrt(pi), Gamma(3/2) = sqrt(pi)/2
    z = 0.01
    oracle = math.sqrt(z) - z**1.5 / 3 - (math.sqrt(z) / 4) * z**2 * (2 / 15)
    # the n = 3 term is ~5e-10 at z = 0.01
    assert H(z) == pytest.approx(oracle, abs=1e-9)
    assert H(z) == pytest.approx(0.0996663, abs=1e-7)


def test_H_closed_form_dawson():
    # independent oracle: H(z) = e^z (sqrt(z)/2 - (z - 1/2) dawsn(sqrt z))
    for z in (0.01, 0.1, 1.0, 3.0, 10.0, 25.0):
        closed = math.exp(z) * (math.sqrt(z) / 2 - (z - 0.5) * dawsn(math.sqrt(z)))
        assert H(z) == pytest.approx(closed, rel=1e-11)


def test_F2_hypergeometric_oracle():
    mp = pytest.importorskip("mpmath")
    # F2(z) = (2/3) z^2 2F2(1, 1; 3, 5/2; z)
    for z in (0.5, 2.0, 8.0):
        oracle = float((2.0 / 3.0) * z * z * mp.hyp2f2(1, 1, 3, 2.5, z))
        assert F2(z) == pytest.approx(oracle, rel=1e-12)


def test_asymptotic_ratios():
    zs = [10.0, 20.0, 30.0, 40.0, 50.0]
    rf = [F2(z) * math.exp(-z) * z**1.5 / SQRT_PI for z in zs]
    rh = [-4.0 * H(z) * math.exp(-z) * z**1.5 for z in zs]
    assert abs(rf[-1] - 1.0) <= 0.10
    assert abs(rh[-1] - 1.0) <= 0.10
    assert all(a > b for a, b in zip(rf, rf[1:]))   # monotone approach from above
    assert all(a > b for a, b in zip(rh, rh[1:]))


def test_series_raise_past_their_term_budget():
    # the 500-term budget holds up to z ~ 352 and runs out beyond
    for series in (F2, H):
        assert math.isfinite(series(351.0))
        with pytest.raises(SeriesDiverged, match=r"500 terms at z = 360\.0$"):
            series(360.0)


def test_rejects_negative_z():
    for z in (-1.0, math.inf, math.nan):
        for f in (F2, H, lambda z: G_explicit(z, 1.0, 0.0)):
            with pytest.raises(ValueError, match="z must be"):
                f(z)
    # g_profile takes y, and z = y^2/4 >= 0 for every y whose square is finite
    for y in (math.inf, math.nan, 1e200):
        with pytest.raises(ValueError, match="y must be"):
            g_profile(1.0, 0.0, np.array([0.0, 1.0, y]))
    # g lives on y >= 0: a negative node would give the even extension, where the
    # spectral route gives the odd one
    with pytest.raises(ValueError, match=r"y must be >= 0 at every node, got y\[0\] = -2\.0$"):
        g_profile(1.0, 0.0, np.linspace(-2.0, 2.0, 9))


# ---------------------------------------------------------------------------
# the combination G and the profile g

def test_G_vanishes_at_zero():
    for alpha in (1.0, 2.5):
        for cbar in (0.0, 1.0, CB, 10.0):
            assert G_explicit(0.0, alpha, cbar) == 0.0


def test_G_small_z_leading_term():
    # G(z) = alpha (2 cbar - 6 sqrt(pi)) sqrt(z) + O(z)
    z = 1e-10
    for cbar in (0.0, 10.0):
        lead = (2 * cbar - 6 * SQRT_PI) * math.sqrt(z)
        assert G_explicit(z, 1.0, cbar) == pytest.approx(lead, rel=1e-4)


def test_G_growth_cancellation_at_50():
    for alpha in (1.0, 3.0):
        val = abs(G_explicit(50.0, alpha, CB)) * math.exp(-25.0)
        assert val <= 1e-6 * abs(alpha)


def _G_mpmath(mp, z, alpha, cbar):
    """G from closed forms of both series in ~z/ln(10) + 30 digits.

    F2(z) = (2/3) z^2 2F2(1, 1; 3, 5/2; z) and
    H(z) = e^z sqrt(z)/2 - (z - 1/2) (sqrt(pi)/2) erfi(sqrt z); the extra
    digits absorb the e^z worth of cancellation between them.
    """
    with mp.workdps(int(z * 0.4343) + 30):
        zm = mp.mpf(z)
        f2 = 2 * zm**2 / 3 * mp.hyp2f2(1, 1, 3, mp.mpf(5) / 2, zm)
        h = mp.exp(zm) * mp.sqrt(zm) / 2 - (zm - mp.mpf(1) / 2) * mp.sqrt(mp.pi) / 2 * mp.erfi(mp.sqrt(zm))
        g0 = 3 * zm - mp.mpf(3) / 2 * f2 - 6 * mp.sqrt(mp.pi) * h
        return float(alpha * (2 * cbar * mp.sqrt(zm) + g0))


def test_G_tail_matches_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    for z in (5.000001, 10.0, 20.0, 30.0, 40.0, 60.0, 100.0, 156.25):
        for cbar in (0.0, CB, 10.0):
            assert G_explicit(z, 1.3, cbar) == pytest.approx(_G_mpmath(mp, z, 1.3, cbar), rel=1e-12)


def test_G_cbar_enters_additively():
    for z in (0.3, 4.9, 5.0, 7.5, 30.0, 156.25, 400.0):
        for alpha, cbar in ((1.0, CB), (2.5, 10.0), (0.7, -3.0)):
            diff = G_explicit(z, alpha, cbar) - G_explicit(z, alpha, 0.0)
            scale = abs(G_explicit(z, alpha, cbar)) + abs(G_explicit(z, alpha, 0.0))
            assert diff == pytest.approx(2 * alpha * cbar * math.sqrt(z), abs=1e-14 * scale)


def test_g_profile_on_a_wide_grid():
    # y up to 40, i.e. z up to 400, with no grid-dependent tail construction
    y = np.linspace(0.0, 40.0, 4001)
    for cbar in (0.0, CB, 10.0):
        g = g_profile(1.0, cbar, y).values
        assert np.all(np.isfinite(g))
        tail = y >= 12.0
        assert np.max(np.abs(g[tail]) / np.exp(-y[tail] ** 2 / 16.0)) < 1.0
        # the same point on a shorter grid gives the same value
        short = g_profile(1.0, cbar, y[:2501]).values
        np.testing.assert_allclose(g[:2501], short, rtol=1e-13, atol=1e-300)


def test_G_tail_closed_form_solves_the_ode():
    # G = alpha [2 cbar sqrt(z) + 3 z + (z - 1/2) W], W' = v, must satisfy
    # z G'' - (z - 1/2) G' + G = -alpha (3 z - cbar sqrt(z) - 3/2)
    sp = pytest.importorskip("sympy")
    z, alpha, cbar = sp.symbols("z alpha cbar", positive=True)
    W = sp.Function("W")(z)
    half = sp.Rational(1, 2)
    v = 3 * (z + 1 + sp.sqrt(sp.pi) / 2 * sp.exp(z) * sp.erfc(sp.sqrt(z)) / sp.sqrt(z)) / (z - half) ** 2
    G = alpha * (2 * cbar * sp.sqrt(z) + 3 * z + (z - half) * W)
    residual = (z * G.diff(z, 2) - (z - half) * G.diff(z) + G
                + alpha * (3 * z - cbar * sp.sqrt(z) - 3 * half))
    residual = residual.subs(sp.Derivative(W, (z, 2)), v.diff(z)).subs(sp.Derivative(W, z), v)
    assert sp.simplify(residual) == 0
    # v does not grow like e^z: it decays like 3/z
    assert sp.limit(z * v, z, sp.oo) == 3
    # and the float64 integrand is this v
    v_num = sp.lambdify(z, v, "mpmath")
    for s in (5.0, 12.0, 80.0, 400.0):
        assert _tail_integrand(np.array([s]))[0] == pytest.approx(float(v_num(s)), rel=1e-13)


def test_g_profile_basics(y_grid):
    gp = g_profile(1.0, CB, y_grid)
    assert gp.values[0] == 0.0
    assert gp.slope0 == 0.0
    # scales linearly in alpha
    gp2 = g_profile(2.0, CB, y_grid)
    np.testing.assert_allclose(gp2.values, 2 * gp.values, rtol=0, atol=1e-14)
    # y is one grid: a scalar or a 2-D array is not
    for y in (np.float64(1.0), np.stack([y_grid, y_grid])):
        with pytest.raises(ValueError, match="y must be one-dimensional"):
            g_profile(1.0, CB, y)


def test_slope_law():
    for alpha in (1.0, 2.0):
        for cbar in (0.0, 1.0, CB, 10.0):
            assert abs(g_slope0(alpha, cbar) - alpha * (cbar - CB)) <= 1e-6


def test_slope_matches_finite_difference(y_grid):
    for cbar in (0.0, CB, 10.0):
        gp = g_profile(1.0, cbar, y_grid)
        h = y_grid[1]
        fd = (-25 * gp.values[0] + 48 * gp.values[1] - 36 * gp.values[2]
              + 16 * gp.values[3] - 3 * gp.values[4]) / (12 * h)
        assert fd == pytest.approx(gp.slope0, abs=5e-7)


def test_g_gaussian_tail_bound(y_grid):
    gp = g_profile(1.0, 0.0, y_grid)
    tail = y_grid >= 12.0
    ratio = np.abs(gp.values[tail]) / np.exp(-y_grid[tail] ** 2 / 16.0)
    assert ratio.max() < 1.0   # |g| <= C e^{-y^2/16} with C below 1 out here


def test_g_membership_in_X(y_grid):
    # int (g')^2 + (1 + y^2) g^2 finite and grid-stable
    vals = {}
    for dy in (0.01, 0.005):
        n = int(round(25.0 / dy))
        y = np.linspace(0.0, 25.0, n + 1)
        g = g_profile(1.0, CB, y).values
        w = trapezoid_weights(y.size, dy)
        gp = np.gradient(g, dy)
        vals[dy] = float(np.sum(w * (gp * gp + (1 + y * y) * g * g)))
    assert math.isfinite(vals[0.01])
    assert vals[0.01] == pytest.approx(vals[0.005], rel=1e-3)


def test_kernel_projection_closed_form():
    # independent oracle: adaptive quadrature of the defining integral
    mp = pytest.importorskip("mpmath")
    norm = math.sqrt(2 * math.sqrt(math.pi))
    for cbar in (0.0, CB, 10.0):
        integrand = lambda y: (1.3 * mp.e**(-y * y / 4) * y / norm
                               * (0.75 * y * y - 0.5 * cbar * y - 1.5))
        quad = float(mp.quad(integrand, [0, mp.inf]))
        assert kernel_projection_of_F(1.3, cbar) == pytest.approx(quad, rel=1e-10)
        assert g1_coefficient(1.3, cbar) == pytest.approx(-2 * quad, rel=1e-10)


def _mp_forcing_projection(alpha, cbar, n):
    """<F, e_n> by mpmath Gauss-Legendre quadrature of the defining integral,
    e_n(y) = H_{2n+1}(y/2) e^{-y^2/8} / sqrt(2^{2n+1} (2n+1)! sqrt(pi)).

    The integrand carries e^{-y^2/4}, so it is cut 12 past the turning point of
    e_n; the 1 + n // 50 equal panels keep the Gauss-Legendre degree low.
    """
    mp = pytest.importorskip("mpmath")
    m = 2 * n + 1
    norm = mp.sqrt(2**m * mp.factorial(m) * mp.sqrt(mp.pi))
    integrand = lambda y: (alpha * mp.e**(-y * y / 4) * (0.75 * y * y - 0.5 * cbar * y - 1.5)
                           * mp.hermite(m, y / 2) / norm)
    edge = 4.0 * math.sqrt(n + 0.75) + 12.0
    return float(mp.quad(integrand, mp.linspace(0, edge, 2 + n // 50), method="gauss-legendre"))


def test_forcing_projections_closed_form():
    # independent oracle for <F0, e_n> = -(3/2) sqrt(4n+2) h_{2n}(0)/(2n - 1)
    a = _f0_projections(1024)
    for n in (0, 1, 2, 5, 20, 100, 400, 1023):
        assert a[n] == pytest.approx(_mp_forcing_projection(1.0, 0.0, n), rel=1e-12), n
    # the kernel mode agrees with the moment formula to rounding
    k0 = kernel_projection_of_F(1.0, 0.0)
    assert abs(a[0] - k0) <= 2 * math.ulp(k0)


# ---------------------------------------------------------------------------
# the spectral construction

def test_spectral_zero_forcing(basis12):
    g = solve_g_spectral(0.0, CB, basis12)
    assert np.all(g == 0.0)


def test_spectral_needs_enough_modes(basis12):
    with pytest.raises(ValueError):
        solve_g_spectral(1.0, CB, basis12, n_modes=10)


def test_routes_agree(basis12, y_grid, weights):
    for cbar in (0.0, CB):
        gs = solve_g_spectral(1.0, cbar, basis12, n_modes=1024)
        gp = g_profile(1.0, cbar, y_grid).values
        diff = gs - gp
        assert math.sqrt(np.sum(weights * diff * diff)) <= 1e-4


def test_spectral_projection_identity(y_grid, weights):
    # <(M - 1/2) g - F, e_n> = 0 for n <= 20, using exact mode calculus:
    # (n - 1/2) <g, e_n> must equal <F, e_n>, the latter from mpmath
    alpha, cbar = 1.0, CB
    basis = SpectralBasis(y_grid, 21)
    g = solve_g_spectral(alpha, cbar, basis, n_modes=1024)
    cg = basis.project(g)
    cF = np.array([_mp_forcing_projection(alpha, cbar, n) for n in range(21)])
    resid = (np.arange(21) - 0.5) * cg - cF
    assert np.abs(resid).max() <= 1e-8


def _forcing(alpha, cbar, y):
    """The right-hand side of the g equation,
    F(y) = alpha e^{-y^2/8} [(3/4) y^2 - (cbar/2) y - 3/2]."""
    return alpha * np.exp(-y * y / 8.0) * (0.75 * y * y - 0.5 * cbar * y - 1.5)


def test_series_route_equation_residual(y_grid, weights):
    # the explicit profile satisfies (M - 1/2) g = F up to the stencil error
    alpha, cbar = 1.0, CB
    g = g_profile(alpha, cbar, y_grid).values
    F = _forcing(alpha, cbar, y_grid)
    r = M_h(y_grid, 0.01) @ g - 0.5 * g - F
    inner = slice(1, -1)
    rn = math.sqrt(np.sum(weights[inner] * r[inner] ** 2))
    assert rn <= 1e-4


def _hermite_rows_three_term(u):
    """h_0, h_1, h_2, ... at nodes u by the weight-inside three-term recurrence
    h_{k+1} = sqrt(2/(k+1)) u h_k - sqrt(k/(k+1)) h_{k-1}, one row at a time.

    The oracle's own generator, independent of the two-step form that
    oscillator.hermite_rows steps (and more accurate near u = 0).
    """
    h_prev, h = 0.0, np.pi ** -0.25 * np.exp(-0.5 * u * u)
    for k in itertools.count():
        yield h
        h_prev, h = h, math.sqrt(2.0 / (k + 1)) * u * h - math.sqrt(k / (k + 1)) * h_prev


def _galerkin_oracle(params, y, n_modes):
    """Galerkin solutions of (M - 1/2) g = F for each (alpha, cbar) in params, with
    the whole forcing projected (no split) by composite Gauss-Legendre: 800
    panels of 20 nodes on [0, 80], past which e^{-y^2/8} underflows, and the
    modes from the three-term recurrence."""
    x, w = np.polynomial.legendre.leggauss(20)
    half = 80.0 / 800 / 2.0
    yq = (((2 * np.arange(800) + 1) * half)[:, None] + half * x).ravel()
    wF = np.array([_forcing(a, c, yq) for a, c in params]) * np.tile(half * w, 800)
    g = np.zeros((len(params), y.size))
    rows = zip(_hermite_rows_three_term(yq / 2.0), _hermite_rows_three_term(y / 2.0))
    for n, (hq, h) in enumerate(itertools.islice(rows, 1, 2 * n_modes, 2)):
        a_n = wF @ hq
        g += np.outer(-2.0 * a_n if n == 0 else a_n / (n - 0.5), h)
    return g


@pytest.mark.parametrize("n_modes", [40, 1024])
@pytest.mark.parametrize("dy", [0.01, 0.05])
def test_spectral_split_matches_full_forcing_galerkin(dy, n_modes):
    y = default_y_grid(dy)
    basis = SpectralBasis(y, 12)
    params = [(alpha, cbar) for cbar in (0.0, 1.0, CB, 10.0) for alpha in (0.5, 1.3)]
    for (alpha, cbar), want in zip(params, _galerkin_oracle(params, y, n_modes)):
        got = solve_g_spectral(alpha, cbar, basis, n_modes)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (alpha, cbar)


def _series(alpha, cbar, y):
    return g_profile(alpha, cbar, y).values


def _series_uncached(alpha, cbar, y):
    z = y * y / 4.0
    return alpha * np.exp(-z / 2.0) * (2.0 * cbar * np.sqrt(z) + _G0(z))


def _spectral(alpha, cbar, y, n_modes):
    return solve_g_spectral(alpha, cbar, SpectralBasis(y, 12), n_modes)


def _spectral_uncached(alpha, cbar, y, n_modes):
    g0 = _g0_spectral.__wrapped__(y.tobytes(), n_modes)
    return alpha * (g0 + cbar * y * np.exp(-y * y / 8.0))


#: the two memoised routes: g(alpha, cbar, y, *key), the same sum without the
#: memo, the memo, and the keys besides the grid (the spectral mode count)
MEMOISED = {
    "series": (_series, _series_uncached, _g0_series, [()]),
    "spectral": (_spectral, _spectral_uncached, _g0_spectral, [(40,), (41,)]),
}


@pytest.mark.parametrize("route", sorted(MEMOISED))
def test_memo_result_is_a_fresh_array(route, y_grid):
    g, _, memo, keys = MEMOISED[route]
    first = g(1.3, CB, y_grid, *keys[0])
    want = first.copy()
    first[:] = 123.0
    np.testing.assert_array_equal(g(1.3, CB, y_grid, *keys[0]), want)
    cached = memo(y_grid.tobytes(), *keys[0])
    with pytest.raises(ValueError):
        cached[0] = 1.0


@pytest.mark.parametrize("route", sorted(MEMOISED))
def test_memo_keys_on_grid_and_modes(route):
    g, uncached, memo, extra = MEMOISED[route]
    grids = [default_y_grid(0.05), np.linspace(0.0, 20.0, 501), default_y_grid(0.1)]
    keys = [(y, *k) for y in grids for k in extra]
    memo.cache_clear()
    for key in keys:
        want = uncached(1.3, 1.0, *key)
        # a miss and then a hit, each bit for bit the sum without the memo
        np.testing.assert_array_equal(g(1.3, 1.0, *key), want)
        np.testing.assert_array_equal(g(1.3, 1.0, *key), want)
    info = memo.cache_info()
    assert (info.currsize, info.hits) == (len(keys), len(keys))
    # an equal grid in another array is the same entry
    g(2.0, 0.0, grids[0].copy(), *extra[0])
    assert memo.cache_info().hits == len(keys) + 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "cbar"])
@pytest.mark.parametrize("route", ["G_explicit", "g_profile", "solve_g_spectral"])
def test_rejects_non_finite_parameters(route, name, value, basis12, y_grid):
    args = {"alpha": 1.0, "cbar": CB, name: value}
    _g0_series.cache_clear()
    _g0_spectral.cache_clear()
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        if route == "G_explicit":
            G_explicit(1.0, args["alpha"], args["cbar"])
        elif route == "g_profile":
            g_profile(args["alpha"], args["cbar"], y_grid)
        else:
            solve_g_spectral(args["alpha"], args["cbar"], basis12, 40)
    assert _g0_series.cache_info().currsize == _g0_spectral.cache_info().currsize == 0
