"""End-to-end experiment orchestration and artifact persistence.

A run is described by a flat key=value config (defaults below), executes a
list of named pipelines, and writes every artifact plus a manifest with the
config echo, code version, wall-clock times, and a content hash per file.

Every config comes from make_config: the defaults or a base config, plus
overrides (values or text) coerced to the type of each key's default, then
validated; a bad value raises ConfigError naming its key.

Pipelines: 'solve' (physical frame), 'selfsim' (handoff to the self-similar
frame, with its rate fits), 'specfun' (series / profile tables), 'mc'
(many-to-one validation), and the preset 'reproduce-theorem' (selfsim for
cbar in {0, 3 sqrt(pi), 10} plus a rate table).  Both self-similar pipelines
build their summary with one function, _selfsim_files, from the resolved
runs of their cbar values, every block keyed by cbar (the fits in one list).
rate_report makes the one regime decision: it names a run's decay model,
which its slope extrapolation and fits use.  Every series written records
its flux-identity residual, and the manifest records the environment.

resolved_runs hands each selfsimilar_run, with its rate_report, to a forked
worker: one job per run and one per Richardson partner, so
'reproduce-theorem' has six jobs and 'selfsim' two, on min(jobs, usable
CPUs) workers.  With one usable CPU, or no fork start method, the jobs run
in this process.  A job writes nothing: it returns its series and report,
and for selfsim's run the trajectory's table, and this process writes every
file once all jobs have succeeded.  The trajectory itself stays in its
worker.  A job's ConfigError or NumericalFailure is re-raised here, after
every worker has exited, so the CLI exits 2 or 3 as for a run in this
process.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import platform
import sys
import time
from pathlib import Path

import numpy
import scipy

from . import __version__
from .drift import CBAR_CRITICAL, DriftExpansion, max_front_speed
from .mc import McConfig, estimate
from .oscillator import (SPECTRAL_TAU_MIN, TRAJECTORY_COLUMNS, Y_MAX, WTrajectory,
                         default_y_grid, evolve_W, initial_mode_overlap,
                         observables_from_trajectory, to_selfsimilar, trajectory_table)
from .pde import (X_MAX, ObservableSeries, SolverConfig, SpatialGrid, evolve,
                  flux_identity_residual, initial_condition, write_csv, write_series_csv)
from .rates import estimate_alpha0, fit_rate, prefactor_check
from .specfun import F2, G_explicit, H, g_profile, g_slope0


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


_DEFAULTS = {
    "cbar": CBAR_CRITICAL,
    "dx": 0.01,       # the physical step is dx in x and in t
    "t_end": 10.0,
    "dy": 0.05,       # chosen by the refinement study in docs/resolution_study.md
    "dtau": 0.01,
    "v0.kind": "indicator",
    "v0.a": 1.0,
    "v0.b": 2.0,
    "mc.drift": 2.0,
    "mc.x0": 1.5,
    "mc.t_end": 3.0,
    "mc.replicas": 100_000,
    "mc.seed": 20240617,
    "fit.window": (6.0, 10.0),   # in tau
}


def _coerce(key: str, value):
    """value, or its text, as the type of key's default; ConfigError naming key."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            lo, hi = (float(v) for v in (value.split(",") if isinstance(value, str) else value))
            return (lo, hi)
        if isinstance(default, int):
            return int(value) if isinstance(value, str) else operator.index(value)
        return type(default)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def make_config(overrides=None, base=None) -> dict:
    """A validated config: base (default: the defaults) plus overrides, each a
    value or its text coerced to the type of its key's default."""
    cfg = dict(_DEFAULTS if base is None else base)
    for key, value in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key!r}")
        cfg[key] = _coerce(key, value)
    _validate_config(cfg)
    return cfg


def parse_config(text: str) -> dict:
    """Flat key=value lines ('#' starts a comment) applied to the defaults."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in overrides:
            raise ConfigError(f"line {lineno}: {key} is set twice")
        overrides[key] = val
    return make_config(overrides)


def load_config(path) -> dict:
    """parse_config of a UTF-8 file; a file that cannot be read is a ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    return parse_config(text)


def _validate_config(cfg: dict):
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    for key in ("dx", "dy", "dtau", "t_end", "mc.x0"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    for key, low in (("mc.t_end", 0), ("mc.replicas", 1), ("mc.seed", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    # each step divides its grid into 4 or more cells: slope_at_origin reads 5 nodes
    for length, size, step in (("x_max", X_MAX, "dx"), ("y_max", Y_MAX, "dy")):
        cells = size / cfg[step]
        if not math.isfinite(cells) or abs(cells - round(cells)) > 1e-9 * cells or round(cells) < 4:
            raise ConfigError(f"{step} = {cfg[step]!r} does not divide {length} = {size!r} "
                              f"into 4 or more cells")
    # pde.evolve needs |front speed| dx < 2, the positivity bound of its centred startup
    speed = max_front_speed(DriftExpansion(cfg["cbar"]))
    if cfg["dx"] * speed >= 2.0:
        raise ConfigError(f"cbar = {cfg['cbar']!r} and dx = {cfg['dx']!r} break the positivity "
                          f"bound |front speed| * dx < 2 (sup |front speed| = {speed:g})")
    if cfg["v0.kind"] not in ("indicator", "smooth_bump"):
        raise ConfigError(f"unknown v0.kind: {cfg['v0.kind']!r}")
    if not (0.0 < cfg["v0.a"] < cfg["v0.b"] < X_MAX):
        raise ConfigError(f"need 0 < v0.a < v0.b < x_max = {X_MAX!r}")
    # a self-similar run ends where its fit window does
    lo, hi = cfg["fit.window"]
    if not (0.0 <= lo and SPECTRAL_TAU_MIN <= hi):
        raise ConfigError(f"fit.window must start at tau >= 0 and end at tau >= "
                          f"{SPECTRAL_TAU_MIN:g}, where the spectral projection reads alpha_0")
    tau0 = math.log1p(T_HANDOFF)
    node_steps = (hi - tau0) / cfg["dtau"] * (Y_MAX / cfg["dy"] + 1.0)
    if not node_steps <= MAX_NODE_STEPS:
        raise ConfigError(f"fit.window to tau = {hi!r}, dy = {cfg['dy']!r} and dtau = "
                          f"{cfg['dtau']!r}: {node_steps:.3g} node steps, over {MAX_NODE_STEPS:g}")
    # the fits need 20 samples in the window after the handoff
    spacing = cfg["dtau"] * _sample_every(cfg["dtau"])
    if hi - max(lo, tau0) < 20 * spacing:
        raise ConfigError(f"fit.window after the handoff at tau = {tau0:.6g} "
                          f"holds fewer than 20 samples {spacing:g} apart")

# ---------------------------------------------------------------------------
# the core runs

#: spacing in tau of the samples a self-similar run keeps (to the nearest
#: multiple of dtau), so the fits see the same samples at every dtau
SAMPLE_DTAU = 0.02

#: physical time of the handoff to the self-similar frame, at tau = log 2;
#: a fit window ending at tau >= 6 leaves more than a decade of t after it
T_HANDOFF = 1.0

#: most node steps (nodes times steps) a self-similar march from the handoff
#: to the end of fit.window may take: about 25 s at the 255 ns per node step
#: measured on a 2-core x86_64 host; solve checks its physical march to t_end
#: against it as well
MAX_NODE_STEPS = 1e8


def _sample_every(dtau: float) -> int:
    """Steps of dtau between the samples a self-similar run keeps."""
    return max(1, round(SAMPLE_DTAU / dtau))


def _physical_run(cfg: dict, t_end: float, sample_every: int):
    """(v0, field at t_end, series) under the drift of cfg's cbar, stepping dx in x and t,
    the series sampled every sample_every steps."""
    grid = SpatialGrid(nx=int(round(X_MAX / cfg["dx"])))
    f0 = initial_condition(cfg["v0.kind"], grid, cfg["v0.a"], cfg["v0.b"])
    return (f0, *evolve(f0, t_end, SolverConfig(dt=cfg["dx"], sample_every=sample_every),
                        DriftExpansion(cfg["cbar"])))


def selfsimilar_run(cfg: dict | None = None):
    """Physical solve to T_HANDOFF, then march W to the end of fit.window, at cfg's cbar.

    Returns (trajectory, ObservableSeries in physical time, its mass from
    slope0).  Physical-frame cost grows linearly in t; the self-similar
    frame compresses it to log(1+t).
    """
    cfg = make_config(cfg)
    _, f1, _ = _physical_run(cfg, T_HANDOFF, sys.maxsize)   # the field alone: no samples between
    W0 = to_selfsimilar(f1, default_y_grid(cfg["dy"]))
    traj = evolve_W(W0, cfg["fit.window"][1], DriftExpansion(cfg["cbar"]), dtau=cfg["dtau"],
                    sample_every=_sample_every(cfg["dtau"]))
    return traj, observables_from_trajectory(traj)


#: the steps a run's Richardson partner doubles
_STEPS = ("dx", "dy", "dtau")


def _partner(cfg: dict) -> dict:
    """The Richardson partner of a run: its config with every step doubled,
    validated as any config is."""
    try:
        return make_config({k: 2 * cfg[k] for k in _STEPS}, cfg)
    except ConfigError as exc:
        raise ConfigError(f"Richardson partner (every step doubled): {exc}") from exc


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this OS
        return os.cpu_count() or 1


def _map_runs(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], in min(len(jobs), usable CPUs) forked workers.

    With one worker, or no fork start method, it is that list in this
    process.  Results come in job order: the earliest job that raised raises
    here, once every worker has exited, as a run in this process would raise
    it, and the jobs not yet started are cancelled.  Fork, not spawn: a
    spawned worker imports numpy and scipy again (about 0.6 s, more than the
    runs take), and the pool forks every worker before it starts its own
    thread.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return list(map(fn, jobs))
    # imported here, so that the pipelines without a pool do not load it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, jobs))


def _run_job(job: tuple[dict, bool]):
    """selfsimilar_run of a (config, table) job and its rate_report: (series,
    report, rows).  rows is the run's trajectory_table, with the g profile of
    its alpha_0, when table is true, else None.  A job writes nothing."""
    cfg, table = job
    traj, series = selfsimilar_run(cfg)
    report = rate_report(traj, series, cfg["fit.window"])
    rows = None
    if table:
        alpha0 = report["alpha0"]
        rows = trajectory_table(traj, alpha0, g_profile(alpha0, cfg["cbar"], traj.y).values)
    return series, report, rows


def resolved_runs(cfgs: list, tables: bool = False) -> list:
    """(series, report, rows, errors) of each config's run: _run_job of the
    config and of its Richardson partner, with a Richardson error estimate.

    The partner run (_partner) doubles dx, dy and dtau.  |A(h) - A(2h)| / 3
    estimates the error of each reported number A at the run's own
    resolution h.  The divisor suits the second-order dx and dtau errors; dy
    enters at fourth order, so where it dominates the estimate errs high.
    Every partner is checked before the first run.  The runs, then the
    partners, are the jobs of one _map_runs; with tables, each run (not its
    partner) brings back its trajectory's rows.
    """
    cfgs = [make_config(cfg) for cfg in cfgs]
    partners = [_partner(cfg) for cfg in cfgs]
    results = _map_runs(_run_job, [*((c, tables) for c in cfgs), *((p, False) for p in partners)])

    def err(a, b):
        return abs(a - b) / 3.0

    resolved = []
    for (series, report, rows), (_, partner, _) in zip(results, results[len(cfgs):]):
        errors = {
            "alpha0": err(report["alpha0"], partner["alpha0"]),
            "exponents": {f"{f['observable']}.{f['model']}": err(f["exponent"], p["exponent"])
                          for f, p in zip(report["fits"], partner["fits"])},
            "prefactor": err(report["prefactor_check"]["estimate"],
                             partner["prefactor_check"]["estimate"]),
        }
        resolved.append((series, report, rows, errors))
    return resolved


def _flux_residual(series: ObservableSeries):
    """The max interior flux-identity residual of series, None below three samples."""
    return flux_identity_residual(series) if len(series) >= 3 else None


def rate_report(traj: WTrajectory, series: ObservableSeries, tau_window: tuple):
    """alpha_0 estimates and the dichotomy fits for one run, at the trajectory's cbar,
    over tau_window, the fit.window of the run's config.

    The one regime decision: a run is critical when cbar is 3 sqrt(pi) to
    within 1e-9, and its decay model is then 'log_over_t', else 'power'.
    The slope extrapolation uses that model.  Power-law rate fits of
    non-critical runs use its limit (rate and limit estimated jointly, the
    standard convention when the limit is unknown); the critical run's fits,
    power and log_over_t, and the prefactor check use the spectral
    projection, whose error stays well below the residual being measured.
    """
    cbar = traj.cbar
    window = (math.expm1(tau_window[0]), math.expm1(tau_window[1]))
    critical = abs(cbar - CBAR_CRITICAL) <= 1e-9
    model = "log_over_t" if critical else "power"
    a_spec = estimate_alpha0(traj, "spectral_projection")
    a_slope = estimate_alpha0(series, "slope_extrapolation", model, window)
    alpha0 = a_spec["value"]
    source, a_fit = (("spectral_projection", a_spec) if critical
                     else ("slope_extrapolation", a_slope))
    fits = [{"cbar": cbar, "observable": observable, "model": m, "alpha0_source": source,
             **fit_rate(series, a_fit["value"], m, window, observable)}
            for observable in ("mass", "slope0")
            for m in (("power", "log_over_t") if critical else ("power",))]
    return {
        "cbar": cbar,
        "alpha0": alpha0,
        "alpha0_methods": {"spectral_projection": a_spec, "slope_extrapolation": a_slope},
        "fits": fits,
        "prefactor_check": {
            "estimate": prefactor_check(series, alpha0, window),
            "predicted": g_slope0(alpha0, cbar),
        },
    }


# ---------------------------------------------------------------------------
# pipelines

def _pipe_solve(cfg, out: Path):
    # a bound of solve's own: a self-similar config never marches to t_end
    node_steps = cfg["t_end"] / cfg["dx"] * (X_MAX / cfg["dx"] + 1.0)
    if not node_steps <= MAX_NODE_STEPS:
        raise ConfigError(f"t_end = {cfg['t_end']!r} and dx = {cfg['dx']!r}: {node_steps:.3g} "
                          f"physical node steps, over {MAX_NODE_STEPS:g}")
    key = f"{cfg['cbar']:.6g}"
    f0, _, series = _physical_run(cfg, cfg["t_end"], 1)
    path = out / f"physical_cbar{key}.csv"
    write_series_csv(path, series)
    ov = initial_mode_overlap(f0)
    return [path], {"initial_overlap": {"weighted": ov[0], "plain": ov[1]},
                    "flux_identity_residual": {"physical": {key: _flux_residual(series)}}}


def _selfsim_files(cfg, out: Path, cbars: list, tables: bool = False):
    """The resolved runs of cfg at each of cbars, written once all have
    succeeded: (files, summary), every summary block keyed by f"{cbar:.6g}"
    but the list of fits.

    Each run writes selfsim_series_cbar{key}.csv and, with tables, its
    trajectory as trajectory_cbar{key}.csv.  alpha0_gap is
    |slope_extrapolation - spectral_projection| / |spectral_projection|, the
    relative gap between the two alpha_0 methods.
    """
    cfgs = [make_config({"cbar": cbar}, cfg) for cbar in cbars]
    keys = [f"{c['cbar']:.6g}" for c in cfgs]
    runs = resolved_runs(cfgs, tables)
    files = []
    for key, (series, _, rows, _) in zip(keys, runs):
        files.append(out / f"selfsim_series_cbar{key}.csv")
        write_series_csv(files[-1], series)
        if rows is not None:
            files.append(out / f"trajectory_cbar{key}.csv")
            write_csv(files[-1], TRAJECTORY_COLUMNS, rows)
    series, reports, _, errors = zip(*runs)
    methods = [r["alpha0_methods"] for r in reports]
    spectral = [m["spectral_projection"]["value"] for m in methods]

    def by_cbar(values):
        return dict(zip(keys, values))

    return files, {
        "alpha0": by_cbar(r["alpha0"] for r in reports),
        "alpha0_methods": by_cbar(methods),
        "alpha0_gap": by_cbar(abs(m["slope_extrapolation"]["value"] - s) / abs(s)
                              for m, s in zip(methods, spectral)),
        "fits": [f for r in reports for f in r["fits"]],
        "prefactor_check": by_cbar(r["prefactor_check"] for r in reports),
        "resolution": {**{k: cfg[k] for k in _STEPS}, "partner": {k: 2 * cfg[k] for k in _STEPS},
                       "estimate": "|A(dx, dy, dtau) - A(2 dx, 2 dy, 2 dtau)| / 3",
                       "error": by_cbar(errors)},
        "flux_identity_residual": {"selfsim": by_cbar(map(_flux_residual, series))},
    }


def _pipe_selfsim(cfg, out: Path):
    return _selfsim_files(cfg, out, [cfg["cbar"]], tables=True)


#: largest z at which a specfun row carries F2, H and their scaled forms: the
#: series converge within their 500 terms up to z of about 351, and
#: F2(z) e^{-z} stays finite there (G and g use the closed-form tail at every z)
_SERIES_Z_MAX = 300.0


def specfun_row(z: float, alpha: float, cbar: float) -> dict:
    """z, F2, H, F2(z) e^{-z} and H(z) e^{-z} (None above _SERIES_Z_MAX), G and g."""
    G = G_explicit(z, alpha, cbar)
    row = {"z": z, "F2": None, "H": None, "F2_scaled": None, "H_scaled": None,
           "G": G, "g": math.exp(-z / 2.0) * G}
    if z <= _SERIES_Z_MAX:
        f2, h = F2(z), H(z)
        row.update(F2=f2, H=h, F2_scaled=f2 * math.exp(-z), H_scaled=h * math.exp(-z))
    return row


def _pipe_specfun(cfg, out: Path):
    cbar = cfg["cbar"]
    alpha = 1.0
    zs = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    path = out / "specfun_table.csv"
    cols = ["z", "F2", "H", "G", "g"]
    write_csv(path, cols, (operator.itemgetter(*cols)(specfun_row(z, alpha, cbar)) for z in zs))
    return [path], {"specfun": {"cbar": cbar, "g_slope0_alpha1": g_slope0(alpha, cbar)}}


def _pipe_mc(cfg, out: Path):
    if cfg["v0.kind"] != "indicator":
        raise ConfigError(f"v0.kind must be 'indicator' for mc, got {cfg['v0.kind']!r}")
    mcc = McConfig(drift=cfg["mc.drift"], n_replicas=cfg["mc.replicas"], seed=cfg["mc.seed"])
    a, b = cfg["v0.a"], cfg["v0.b"]
    payoff = lambda p: ((p >= a) & (p <= b)).astype(float)
    mean, stderr = estimate(cfg["mc.x0"], cfg["mc.t_end"], payoff, mcc)
    result = {"mean": mean, "stderr": stderr, "replicas": mcc.n_replicas,
              "config": {"drift": mcc.drift, "x0": cfg["mc.x0"], "t_end": cfg["mc.t_end"],
                         "seed": mcc.seed,
                         "v0": {"kind": "indicator", "a": a, "b": b}}}
    path = out / "mc_result.json"
    path.write_text(json.dumps(result, indent=2))
    return [path], {"mc": result}


def _pipe_reproduce_theorem(cfg, out: Path):
    files, summary = _selfsim_files(cfg, out, [0.0, CBAR_CRITICAL, 10.0])
    table = out / "rate_table.csv"
    cols = ["cbar", "observable", "model", "exponent", "prefactor", "r2"]
    write_csv(table, cols, map(operator.itemgetter(*cols), summary["fits"]))
    return [*files, table], summary


_PIPELINES = {
    "solve": _pipe_solve,
    "selfsim": _pipe_selfsim,
    "specfun": _pipe_specfun,
    "mc": _pipe_mc,
    "reproduce-theorem": _pipe_reproduce_theorem,
}


def _merge(into: dict, extra: dict):
    """Merge extra into into: where both hold a dict under one key it recurses,
    where both hold a list it appends the items not already there, and
    anything else replaces."""
    for key, value in extra.items():
        held = into.get(key)
        if isinstance(value, dict) and isinstance(held, dict):
            _merge(held, value)
        elif isinstance(value, list) and isinstance(held, list):
            held.extend(item for item in value if item not in held)
        else:
            into[key] = value


def _environment() -> dict:
    """The interpreter, library versions and host a run used.

    The platform is system-release-machine from platform.uname(): platform.platform()
    would also ask a `uname -p` subprocess for the processor.
    """
    host = platform.uname()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": f"{host.system}-{host.release}-{host.machine}",
            "cpu_count": os.cpu_count()}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_experiment(config, out_dir, pipelines=()):
    """Execute the named pipelines and persist artifacts plus a manifest.

    config is a dict of overrides (a whole config included), or None for the
    defaults.  Returns the output directory path.  Any exception raised while
    out_dir is still empty removes it again if this call created it.
    """
    cfg = make_config(config)
    out = Path(out_dir)
    created = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc}") from exc
    summary = {}
    outputs = []
    timings = {}
    try:
        for name in pipelines:
            if name not in _PIPELINES:
                raise ConfigError(f"unknown pipeline: {name!r}")
            t0 = time.perf_counter()
            files, extra = _PIPELINES[name](cfg, out)
            timings[name] = time.perf_counter() - t0
            outputs.extend(files)
            _merge(summary, extra)
    except BaseException:
        if created and not any(out.iterdir()):
            out.rmdir()
        raise
    if summary:
        spath = out / "summary.json"
        spath.write_text(json.dumps(summary, indent=2, default=float))
        outputs.append(spath)
    manifest = {
        "version": __version__,
        "environment": _environment(),
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()},
        "pipelines": list(pipelines),
        "wall_clock_seconds": timings,
        "files": {p.name: _sha256(p) for p in outputs},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out
