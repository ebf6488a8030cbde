import math

import numpy as np
import pytest
from scipy.special import dawsn

from bbmlab.drift import CBAR_CRITICAL, SQRT_PI
from bbmlab.oscillator import SpectralBasis, trapezoid_weights
from bbmlab.specfun import (F2, H, G_explicit, SeriesAccuracy, SeriesDiverged,
                            _tail_integrand, forcing_F, g1_coefficient, g_profile,
                            g_slope0, kernel_projection_of_F, solve_g_spectral)

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


def test_series_accuracy_validation():
    with pytest.raises(ValueError):
        SeriesAccuracy(rel_tol=1e-3)
    with pytest.raises(ValueError):
        SeriesAccuracy(max_terms=3)
    with pytest.raises(SeriesDiverged):
        F2(25.0, SeriesAccuracy(rel_tol=1e-14, max_terms=12))


def test_rejects_negative_z():
    with pytest.raises(ValueError):
        F2(-1.0)
    with pytest.raises(ValueError):
        H(-0.5)
    with pytest.raises(ValueError):
        G_explicit(-2.0, 1.0, 0.0)


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
    # (n - 1/2) <g, e_n> must equal <F, e_n>
    alpha, cbar = 1.0, CB
    basis = SpectralBasis(y_grid, 21)
    g = solve_g_spectral(alpha, cbar, basis, n_modes=1024)
    F = forcing_F(alpha, cbar, y_grid)
    cg = basis.project(g)
    cF = basis.project(F)
    resid = (np.arange(21) - 0.5) * cg - cF
    assert np.abs(resid).max() <= 1e-8


def test_series_route_equation_residual(y_grid, weights):
    # the explicit profile satisfies (M - 1/2) g = F up to the stencil error
    from bbmlab.oscillator import apply_M
    alpha, cbar = 1.0, CB
    g = g_profile(alpha, cbar, y_grid).values
    F = forcing_F(alpha, cbar, y_grid)
    r = apply_M(g, 0.01) - 0.5 * g - F
    inner = slice(1, -1)
    rn = math.sqrt(np.sum(weights[inner] * r[inner] ** 2))
    assert rn <= 1e-4
