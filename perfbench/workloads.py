"""The three workloads: inputs made from a seed, calls into bbmlab, checks.

Each workload has ``build`` (set-up: inputs and output directory, timed as
part of ``setup_s``), ``run`` (the timed calls, each with its check, counted
as ops) and ``extra`` (values read off the outputs after timing ends).

An op is one top-level call plus its correctness check.  It fails if the
call raises or the check misses its tolerance; the failure records the layer
and the parameters, and the remaining ops still run.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

import bbmlab
import bbmlab.cli
from bbmlab import mc, oscillator, pde, pipeline, specfun
from bbmlab.drift import CBAR_CRITICAL, ConstantDrift

#: Monte Carlo checks pass within this many standard errors.  A correct
#: Gaussian estimate misses 3 sigma with probability 2.7e-3 and 4 sigma with
#: 6.3e-5; manytoone makes two such checks per repetition and is repeated
#: about 70 times per benchmark evaluation, so at 3 sigma a correct program
#: would fail a run about a third of the time.
MC_SIGMAS = 4.0
#: E[N(2)] for a rate-1 binary Yule process started from one particle.
YULE_MEAN = math.e ** 2
#: criterion 4: L2 distance between the series and spectral g routes.
ROUTE_L2_TOL = 1e-4
#: pointwise distance between the specfun table's g and the spectral route
#: (measured 1.35e-4 for every cbar in (0, 10)).
ROUTE_POINT_TOL = 5e-4
#: pointwise distance between the table's direct (mpmath) tail and the
#: splined tail inside g_profile, relative to max |g|.
TAIL_SPLINE_TOL = 1e-8

_PKG_DIR = Path(bbmlab.__file__).resolve().parent


class Ops:
    """Runs ops and records each outcome."""

    def __init__(self):
        self.records: list[dict] = []

    def run(self, name: str, layer: str, params: dict, call_and_check):
        """call_and_check() returns a list of problems; empty means passed."""
        try:
            problems = list(call_and_check())
        except Exception as exc:  # op boundary: record the failure, run the rest
            problems = [f"{type(exc).__name__}: {exc}"]
            layer = _raising_layer(exc) or layer
        self.records.append({"op": name, "layer": layer, "params": params,
                             "ok": not problems, "problems": problems})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


def _raising_layer(exc) -> str | None:
    """The bbmlab module of the innermost traceback frame inside the package."""
    layer = None
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename).resolve()
        if path.parent == _PKG_DIR:
            layer = path.stem
    return layer


def _rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def _trapezoid_weights(y):
    dy = float(y[1] - y[0])
    w = np.full_like(y, dy)
    w[0] = w[-1] = dy / 2.0
    return w


def _files_size(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# theorem: bbmlab reproduce-theorem at the program's default resolution

THEOREM_SCALES = {"full": None, "tiny": "dy = 0.05\ndtau = 0.01\n"}


@dataclass
class TheoremInputs:
    out: Path
    argv: list
    summary: dict = field(default_factory=dict)


def build_theorem(seed: int, rep: int, scale: str, out: Path) -> TheoremInputs:
    """The theorem run is deterministic: the seed is ignored."""
    out.mkdir(parents=True)
    argv = ["reproduce-theorem", "--out", str(out / "results")]
    if THEOREM_SCALES[scale] is not None:
        cfg = out / "tiny.cfg"
        cfg.write_text(THEOREM_SCALES[scale])
        argv += ["--config", str(cfg)]
    return TheoremInputs(out, argv)


def _fit(summary, cbar, observable, model):
    for f in summary["fits"]:
        if abs(f["cbar"] - cbar) <= 1e-9 and f["observable"] == observable and f["model"] == model:
            return f
    raise KeyError(f"no {model} fit of {observable} at cbar={cbar:.6g}")


def check_theorem(summary: dict, manifest: dict) -> list[str]:
    """Acceptance criteria 1-3 applied to summary.json."""
    problems = []
    for obs in ("mass", "slope0"):
        power = _fit(summary, CBAR_CRITICAL, obs, "power")
        log_t = _fit(summary, CBAR_CRITICAL, obs, "log_over_t")
        if power["exponent"] > -0.8:
            problems.append(f"critical {obs} power exponent {power['exponent']:.4f} > -0.8")
        if log_t["r2"] < 0.95:
            problems.append(f"critical {obs} log-model r2 {log_t['r2']:.4f} < 0.95")
        for cbar in (0.0, 10.0):
            f = _fit(summary, cbar, obs, "power")
            if abs(f["exponent"] + 0.5) > 0.05 or f["r2"] < 0.98:
                problems.append(f"cbar={cbar:g} {obs} exponent {f['exponent']:.4f}, "
                                f"r2 {f['r2']:.4f} (want -0.5 +- 0.05, r2 >= 0.98)")
    pref = summary["prefactor_check"]["0"]
    rel = abs(pref["estimate"] - pref["predicted"]) / abs(pref["predicted"])
    if rel > 0.10:
        problems.append(f"prefactor rel err {rel:.3f} > 0.10 at cbar=0")
    wall = manifest["wall_clock_seconds"]["reproduce-theorem"]
    if wall >= 3 * 120.0:
        problems.append(f"reproduce-theorem took {wall:.0f} s (criterion 1: < 120 s per cbar)")
    return problems


def run_theorem(inp: TheoremInputs, ops: Ops):
    def call_and_check():
        rc = bbmlab.cli.main(inp.argv)
        if rc != 0:
            return [f"bbmlab exited with code {rc}"]
        res = inp.out / "results"
        inp.summary = json.loads((res / "summary.json").read_text())
        manifest = json.loads((res / "manifest.json").read_text())
        return check_theorem(inp.summary, manifest)

    ops.run("cli.main reproduce-theorem", "pipeline", {"argv": inp.argv[:1] + inp.argv[3:]},
            call_and_check)


def extra_theorem(inp: TheoremInputs) -> dict:
    extra = {"pipeline.bytes_written": _files_size(inp.out / "results")}
    if inp.summary:
        gaps = [abs(m["spectral_projection"]["value"] - m["slope_extrapolation"]["value"])
                / abs(m["spectral_projection"]["value"])
                for m in inp.summary["alpha0_methods"].values()]
        pref = inp.summary["prefactor_check"]["0"]
        extra["rates.alpha0_rel_gap"] = max(gaps)
        extra["rates.prefactor_rel_err"] = (abs(pref["estimate"] - pref["predicted"])
                                            / abs(pref["predicted"]))
    return extra


# ---------------------------------------------------------------------------
# profile: the cbar sweep of the g profile

PROFILE_SCALES = {"full": 4, "tiny": 1}   # cbar values per repetition


@dataclass
class ProfileInputs:
    out: Path
    y: np.ndarray
    weights: np.ndarray
    basis: oscillator.SpectralBasis
    draws: list          # (cbar, second alpha) pairs


def build_profile(seed: int, rep: int, scale: str, out: Path) -> ProfileInputs:
    out.mkdir(parents=True)
    rng = _rng(seed, rep)
    draws = [(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.5, 2.0)))
             for _ in range(PROFILE_SCALES[scale])]
    y = oscillator.default_y_grid()
    return ProfileInputs(out, y, _trapezoid_weights(y), oscillator.SpectralBasis(y, 12), draws)


def run_profile(inp: ProfileInputs, ops: Ops):
    routes = {}
    for cbar, alpha2 in inp.draws:
        got = {}

        def cold(cbar=cbar, got=got):
            g = specfun.g_profile(1.0, cbar, inp.y).values
            got["cold"] = g
            problems = [] if np.all(np.isfinite(g)) else ["non-finite profile values"]
            dy = float(inp.y[1] - inp.y[0])
            slope = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * dy)
            want = specfun.g_slope0(1.0, cbar)
            if abs(slope - want) > 1e-3 * (1.0 + abs(want)):
                problems.append(f"numerical slope {slope:.6g} vs law {want:.6g}")
            return problems

        def warm(cbar=cbar, alpha2=alpha2, got=got):
            g2 = specfun.g_profile(alpha2, cbar, inp.y).values
            if "cold" not in got:
                return ["no cold profile to compare with"]
            if not np.allclose(g2, alpha2 * got["cold"], rtol=1e-12, atol=0.0):
                return [f"warm profile is not alpha2 times the cold one "
                        f"(max diff {np.max(np.abs(g2 - alpha2 * got['cold'])):.3g})"]
            return []

        def spectral(cbar=cbar, got=got):
            gs = specfun.solve_g_spectral(1.0, cbar, inp.basis, 1024)
            routes[cbar] = (got.get("cold"), gs)
            if "cold" not in got:
                return ["no series profile to compare with"]
            diff = math.sqrt(float(np.sum(inp.weights * (gs - got["cold"]) ** 2)))
            return [] if diff <= ROUTE_L2_TOL else [f"route L2 diff {diff:.3g} > {ROUTE_L2_TOL:g}"]

        ops.run("specfun.g_profile cold", "specfun", {"alpha": 1.0, "cbar": cbar}, cold)
        ops.run("specfun.g_profile warm", "specfun", {"alpha": alpha2, "cbar": cbar}, warm)
        ops.run("specfun.solve_g_spectral", "specfun",
                {"alpha": 1.0, "cbar": cbar, "n_modes": 1024}, spectral)

    cbar0 = inp.draws[0][0]

    def table():
        pipeline.run_experiment({"cbar": cbar0}, inp.out / "specfun", ["specfun"])
        return check_specfun_table(inp.out / "specfun", cbar0, inp.y, *routes.get(cbar0, (None, None)))

    ops.run("pipeline.run_experiment specfun", "pipeline", {"cbar": cbar0}, table)


def check_specfun_table(out: Path, cbar: float, y, g_series, g_spectral) -> list[str]:
    """The table's g against both g routes; its slope against the slope law."""
    problems = []
    tab = np.loadtxt(out / "specfun_table.csv", delimiter=",", skiprows=1)
    if tab.shape != (12, 5) or not np.all(np.isfinite(tab)):
        problems.append(f"table shape {tab.shape} or non-finite entries")
        return problems
    slope = json.loads((out / "summary.json").read_text())["specfun"]["g_slope0_alpha1"]
    if abs(slope - (cbar - CBAR_CRITICAL)) > 1e-12 * (1.0 + abs(cbar)):
        problems.append(f"g_slope0 {slope} differs from cbar - 3 sqrt(pi)")
    if g_series is None or g_spectral is None:
        return problems + ["no g routes to compare with"]
    yt = 2.0 * np.sqrt(tab[:, 0])
    g = tab[:, 4]
    tail = np.max(np.abs(CubicSpline(y, g_series)(yt) - g))
    if tail > TAIL_SPLINE_TOL * max(1.0, np.max(np.abs(g))):
        problems.append(f"table vs splined g_profile: max diff {tail:.3g}")
    route = np.max(np.abs(CubicSpline(y, g_spectral)(yt) - g))
    if route > ROUTE_POINT_TOL:
        problems.append(f"table vs spectral route: max diff {route:.3g} > {ROUTE_POINT_TOL:g}")
    return problems


def extra_profile(inp: ProfileInputs) -> dict:
    return {"pipeline.bytes_written": _files_size(inp.out / "specfun")}


# ---------------------------------------------------------------------------
# manytoone: criterion 8, Monte Carlo against the physical PDE

# (payoff replicas, Yule replicas, survival replicas, PDE cells, PDE dt)
MANYTOONE_SCALES = {"full": (4000, 4000, 2000, 12000, 0.0025),
                    "tiny": (300, 300, 200, 1200, 0.01)}
DRIFT, X0, T_END, SUPPORT = 2.0, 1.5, 3.0, (1.0, 2.0)
CHECKPOINTS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


@dataclass
class ManyToOneInputs:
    out: Path
    payoff_cfg: mc.McConfig
    yule_cfg: mc.McConfig
    survival_cfg: mc.McConfig
    f0: pde.Field
    solver: pde.SolverConfig
    final_particles: int = 0
    pde_value: float | None = None


def build_manytoone(seed: int, rep: int, scale: str, out: Path) -> ManyToOneInputs:
    out.mkdir(parents=True)
    n_pay, n_yule, n_surv, cells, dt = MANYTOONE_SCALES[scale]
    s_pay, s_yule, s_surv = (int(s) for s in
                             np.random.SeedSequence([seed, rep]).generate_state(3))
    grid = pde.SpatialGrid(60.0, cells)
    return ManyToOneInputs(
        out,
        mc.McConfig(drift=DRIFT, dt=1e-3, n_replicas=n_pay, seed=s_pay),
        mc.McConfig(drift=0.0, absorb=False, dt=1e-3, n_replicas=n_yule, seed=s_yule),
        mc.McConfig(drift=DRIFT, dt=1e-3, n_replicas=n_surv, seed=s_surv),
        pde.initial_condition("indicator", grid, *SUPPORT),
        pde.SolverConfig(dt=dt, sample_every=10**9),
    )


def run_manytoone(inp: ManyToOneInputs, ops: Ops):
    lo, hi = SUPPORT

    def payoff(p):
        inp.final_particles += p.size
        return ((p >= lo) & (p <= hi)).astype(float)

    def count(p):
        inp.final_particles += p.size
        return np.ones_like(p)

    def reference():
        fT, _ = pde.evolve(inp.f0, T_END, inp.solver, ConstantDrift(DRIFT))
        inp.pde_value = float(CubicSpline(inp.f0.grid.x, fT.values)(X0))
        ok = math.isfinite(inp.pde_value) and 0.0 < inp.pde_value < 1.0
        return [] if ok else [f"PDE value {inp.pde_value} outside (0, 1)"]

    def payoff_estimate():
        mean, se = mc.estimate(X0, T_END, payoff, inp.payoff_cfg)
        if inp.pde_value is None:
            return ["no PDE reference to compare with"]
        if not abs(mean - inp.pde_value) <= MC_SIGMAS * se:
            return [f"MC {mean:.5f} +- {se:.5f} vs PDE {inp.pde_value:.5f}"]
        return []

    def yule():
        mean, se = mc.estimate(5.0, 2.0, count, inp.yule_cfg)
        if not abs(mean - YULE_MEAN) <= MC_SIGMAS * se:
            return [f"Yule mean {mean:.4f} +- {se:.4f} vs {YULE_MEAN:.4f}"]
        return []

    def survival():
        p, _ = mc.survival_probability(X0, T_END, inp.survival_cfg, checkpoints=CHECKPOINTS)
        problems = []
        if np.any(np.diff(p) > 0.0):
            problems.append(f"survival series increases: {p.tolist()}")
        if not (np.all(p > 0.0) and np.all(p <= 1.0)):
            problems.append(f"survival outside (0, 1]: {p.tolist()}")
        return problems

    cells = inp.f0.grid.nx
    ops.run("pde.evolve reference", "pde",
            {"drift": DRIFT, "t_end": T_END, "cells": cells, "dt": inp.solver.dt}, reference)
    ops.run("mc.estimate payoff", "mc",
            {"x0": X0, "t_end": T_END, "replicas": inp.payoff_cfg.n_replicas,
             "seed": inp.payoff_cfg.seed}, payoff_estimate)
    ops.run("mc.estimate yule", "mc",
            {"x0": 5.0, "t_end": 2.0, "replicas": inp.yule_cfg.n_replicas,
             "seed": inp.yule_cfg.seed}, yule)
    ops.run("mc.survival_probability", "mc",
            {"x0": X0, "t_end": T_END, "replicas": inp.survival_cfg.n_replicas,
             "seed": inp.survival_cfg.seed, "checkpoints": CHECKPOINTS}, survival)


def extra_manytoone(inp: ManyToOneInputs) -> dict:
    return {"mc.estimate.final_particles": inp.final_particles}


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    extra: object


WORKLOADS = {
    "theorem": Workload(build_theorem, run_theorem, extra_theorem),
    "profile": Workload(build_profile, run_profile, extra_profile),
    "manytoone": Workload(build_manytoone, run_manytoone, extra_manytoone),
}
