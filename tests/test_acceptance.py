"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The rate criteria share the three session-scoped self-similar runs
(v0 = indicator(1,2), handoff at t=1, tau_end = 10); the Monte Carlo
criterion runs at its stated size and is the slow one.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bbmlab.drift import CBAR_CRITICAL, ConstantDrift, DriftExpansion
from bbmlab.mc import McConfig, estimate
from bbmlab.oscillator import (apply_M, decompose, eigenfunction,
                               from_selfsimilar, quadratic_form_Q)
from bbmlab.pde import (SolverConfig, SpatialGrid, evolve, flux_identity_residual,
                        initial_condition)
from bbmlab.rates import fit_remainder_decay
from bbmlab.specfun import F2, H, g_profile, g_slope0, solve_g_spectral

CB = CBAR_CRITICAL


@pytest.fixture
def report(capfd):
    """Prints one pass/fail line per criterion on the real console."""
    def _report(num, name, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\nACCEPTANCE {num} [{name}]: {status}  ({detail})", flush=True)
        assert ok, f"criterion {num} ({name}): {detail}"
    return _report


def _fit(report_dict, observable, model):
    for f in report_dict["fits"]:
        if f["observable"] == observable and f["model"] == model:
            return f
    raise KeyError((observable, model))


def test_criterion_1_rate_dichotomy(run_critical, run_cbar0, run_cbar10, report):
    _, _, rc = run_critical
    _, _, r0 = run_cbar0
    _, _, r10 = run_cbar10
    crit_power = _fit(rc, "mass", "power")
    crit_log = _fit(rc, "mass", "log_over_t")
    details = [f"critical: power {crit_power['exponent']:.3f}, log-model r2 {crit_log['r2']:.4f}"]
    ok = crit_power["exponent"] <= -0.8 and crit_log["r2"] >= 0.95
    for label, rep in (("cbar=0", r0), ("cbar=10", r10)):
        f = _fit(rep, "mass", "power")
        details.append(f"{label}: exp {f['exponent']:.3f}, r2 {f['r2']:.4f}")
        ok = ok and abs(f["exponent"] + 0.5) <= 0.05 and f["r2"] >= 0.98
    details.append(f"runtimes {rc['wall_seconds']:.0f}/{r0['wall_seconds']:.0f}/"
                   f"{r10['wall_seconds']:.0f}s (target < 120 s each)")
    ok = ok and max(rc["wall_seconds"], r0["wall_seconds"], r10["wall_seconds"]) < 120
    report(1, "rate dichotomy, mass", ok, "; ".join(details))


def test_criterion_2_slope_version(run_critical, run_cbar0, run_cbar10, report):
    _, _, rc = run_critical
    _, _, r0 = run_cbar0
    _, _, r10 = run_cbar10
    crit_power = _fit(rc, "slope0", "power")
    crit_log = _fit(rc, "slope0", "log_over_t")
    details = [f"critical: power {crit_power['exponent']:.3f}, log-model r2 {crit_log['r2']:.4f}"]
    ok = crit_power["exponent"] <= -0.8 and crit_log["r2"] >= 0.95
    for label, rep in (("cbar=0", r0), ("cbar=10", r10)):
        f = _fit(rep, "slope0", "power")
        details.append(f"{label}: exp {f['exponent']:.3f}, r2 {f['r2']:.4f}")
        ok = ok and abs(f["exponent"] + 0.5) <= 0.05 and f["r2"] >= 0.98
    report(2, "rate dichotomy, boundary slope", ok, "; ".join(details))


def test_criterion_3_prefactor_law(run_cbar0, report):
    _, _, rep = run_cbar0
    est = rep["prefactor_check"]["estimate"]
    pred = rep["prefactor_check"]["predicted"]   # alpha0 (0 - 3 sqrt(pi))
    rel = abs(est - pred) / abs(pred)
    report(3, "prefactor law at cbar=0", rel <= 0.10,
           f"sqrt(1+t)(v_x(0)-alpha0) -> {est:.3f}, predicted {pred:.3f}, rel err {rel:.1%}")


def test_criterion_4_g_slope_and_routes(y_grid, weights, basis12, report):
    slope_ok = True
    details = []
    for cbar in (0.0, 1.0, CB, 10.0):
        err = abs(g_slope0(1.0, cbar) - (cbar - CB))
        slope_ok = slope_ok and err <= 1e-6
    details.append("slope law exact for cbar in {0, 1, 3 sqrt(pi), 10}")
    t0 = time.perf_counter()
    route_ok = True
    for cbar in (0.0, CB):
        gp = g_profile(1.0, cbar, y_grid).values
        gs = solve_g_spectral(1.0, cbar, basis12, n_modes=1024)
        diff = math.sqrt(np.sum(weights * (gs - gp) ** 2))
        details.append(f"routes L2 diff {diff:.2e} (cbar={cbar:.3g})")
        route_ok = route_ok and diff <= 1e-4
    details.append(f"{time.perf_counter() - t0:.1f}s")
    report(4, "g-slope criterion and route agreement", slope_ok and route_ok,
           "; ".join(details))


def test_criterion_5_series_asymptotics(report):
    zs = [10.0, 20.0, 30.0, 40.0, 50.0]
    rf = [F2(z) * math.exp(-z) * z**1.5 / math.sqrt(math.pi) for z in zs]
    rh = [-4.0 * H(z) * math.exp(-z) * z**1.5 for z in zs]
    ok = (abs(rf[-1] - 1) <= 0.10 and abs(rh[-1] - 1) <= 0.10
          and all(a > b for a, b in zip(rf, rf[1:]))
          and all(a > b for a, b in zip(rh, rh[1:])))
    report(5, "series asymptotics", ok,
           f"F2 ratio at z=50: {rf[-1]:.4f}, H ratio: {rh[-1]:.4f}, monotone approach")


def test_criterion_6_spectral_suite(y_grid, weights, basis12, report):
    dy = 0.01
    gram_err = np.abs(basis12.gram() - np.eye(12)).max()
    eig_err = 0.0
    for n in range(9):
        en = eigenfunction(n, y_grid)
        r = apply_M(en, dy) - n * en
        eig_err = max(eig_err, math.sqrt(np.sum(weights * r * r)))
    q0 = abs(quadratic_form_Q(eigenfunction(0, y_grid), dy))
    rng = np.random.default_rng(1234)
    ineq_ok = True
    worst = -np.inf
    for _ in range(100):
        phi = np.zeros_like(y_grid)
        for _ in range(4):
            c = rng.uniform(2.0, 16.0)
            s = rng.uniform(1.0, 2.5)
            phi += rng.uniform(-1, 1) * np.exp(-((y_grid - c) ** 2) / (2 * s * s))
        window = np.clip(y_grid / 1.5, 0, 1) * np.clip((y_grid[-1] - y_grid) / 1.5, 0, 1)
        phi *= window**2
        phi[0] = phi[-1] = 0.0
        lhs = float(np.sum(weights * (y_grid / 4) * phi * phi))
        rhs = quadratic_form_Q(phi, dy) + float(np.sum(weights * phi * phi)) + 1e-10
        worst = max(worst, lhs - rhs)
        ineq_ok = ineq_ok and lhs <= rhs
    ok = gram_err <= 1e-10 and eig_err <= 1e-4 and q0 <= 1e-8 and ineq_ok
    report(6, "spectral suite", ok,
           f"gram {gram_err:.1e}, eigresid {eig_err:.1e}, Q(e0) {q0:.1e}, "
           f"inequality margin {-worst:.1e} over 100 functions")


def test_criterion_7_remainder_decay(run_critical, report):
    traj, _, rep = run_critical
    alpha = rep["alpha0"]
    g = g_profile(alpha, CB, traj.y).values
    norms = []
    for i in range(len(traj)):
        norms.append(decompose(traj.field(i), alpha, g).r_norm)
    lam, info = fit_remainder_decay(traj.taus, np.array(norms), window=(4.0, 9.0))
    ok = abs(lam - 1.0) <= 0.15
    report(7, "remainder decay", ok,
           f"||R|| ~ (a+b tau) e^(-lambda tau), lambda = {lam:.3f} "
           f"(log-linear slope {info['loglinear_slope']:.3f})")


def test_criterion_8_many_to_one(report):
    t0 = time.perf_counter()
    cfg = McConfig(drift=2.0, dt=1e-3, n_replicas=100_000, seed=20240617)
    payoff = lambda p: ((p >= 1.0) & (p <= 2.0)).astype(float)
    mc_mean, mc_se = estimate(1.5, 3.0, payoff, cfg)

    grid = SpatialGrid(60.0, 12000)
    f0 = initial_condition("indicator", grid)
    fT, _ = evolve(f0, 3.0, SolverConfig(dt=0.0025, sample_every=10**9), ConstantDrift(2.0))
    pde_val = float(CubicSpline(grid.x, fT.values)(1.5))
    sigmas = abs(pde_val - mc_mean) / mc_se

    ycfg = McConfig(drift=0.0, absorb=False, dt=1e-3, n_replicas=20_000, seed=7)
    y_mean, y_se = estimate(5.0, 2.0, lambda p: np.ones_like(p), ycfg)
    y_sig = abs(y_mean - math.e**2) / y_se
    wall = time.perf_counter() - t0
    ok = sigmas <= 3.0 and y_sig <= 3.0 and wall < 300
    report(8, "many-to-one validation", ok,
           f"MC {mc_mean:.4f}+-{mc_se:.4f} vs PDE {pde_val:.4f} ({sigmas:.2f} sigma); "
           f"Yule mean {y_mean:.3f} vs e^2 ({y_sig:.2f} sigma); {wall:.0f}s (target < 300)")


def test_criterion_9_conservation_diagnostics(report):
    d = DriftExpansion(CB)
    resid = {}
    for h in (0.02, 0.01):
        grid = SpatialGrid(60.0, int(round(60.0 / h)))
        f0 = initial_condition("indicator", grid)
        cfg = SolverConfig(dt=h, sample_every=10**9)
        f_burn, _ = evolve(f0, 0.5, cfg, d)     # burn past the indicator turn-on
        cfg_obs = SolverConfig(dt=h, sample_every=1, startup_steps=0)
        _, series = evolve(f_burn, 2.5, cfg_obs, d)
        resid[h] = flux_identity_residual(series)
    ratio = resid[0.02] / resid[0.01]
    ok = resid[0.01] <= 1e-3 and ratio >= 2.8
    report(9, "conservation diagnostics", ok,
           f"residual {resid[0.01]:.2e} at (dx,dt)=(0.01,0.01), "
           f"refinement ratio {ratio:.2f} (second order ~ 4)")


def test_criterion_10_profile_convergence(run_critical, report):
    traj, _, rep = run_critical
    alpha = rep["alpha0"]
    grid = SpatialGrid(20.0, 2000)
    x = grid.x
    target = x * np.exp(-x)
    taus_checked = []
    sups = []
    for tau_want in np.arange(5.0, 10.01, 0.5):
        i = int(np.argmin(np.abs(traj.taus - tau_want)))
        f = from_selfsimilar(traj.field(i), grid)
        sups.append(float(np.max(np.abs(f.values / alpha - target))))
        taus_checked.append(traj.taus[i])
    sups = np.array(sups)
    ok = sups[-1] <= 0.02 and np.all(np.diff(sups) < 0)
    report(10, "profile convergence", ok,
           f"sup dev at tau=10: {sups[-1]:.2e} (<= 0.02), "
           f"monotone decreasing over tau in [5,10]: {bool(np.all(np.diff(sups) < 0))}")
