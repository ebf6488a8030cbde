"""End-to-end experiment orchestration and artifact persistence.

A run is described by a flat key=value config (defaults below), executes a
list of named pipelines, and writes every artifact plus a manifest with the
config echo, code version, wall-clock times, and a content hash per file.

Pipelines: 'solve' (physical frame), 'selfsim' (handoff to the self-similar
frame), 'specfun' (series / profile tables), 'mc' (many-to-one validation),
'fit' (rate fits on the selfsim series), and the preset 'reproduce-theorem'
(selfsim + fits for cbar in {0, 3 sqrt(pi), 10} plus the prefactor check).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

from . import __version__
from .drift import CBAR_CRITICAL, DriftExpansion
from .mc import McConfig, estimate
from .oscillator import (SpectralBasis, WTrajectory, default_y_grid, evolve_W,
                         initial_mode_overlap, observables_from_trajectory,
                         to_selfsimilar, write_trajectory_csv)
from .pde import (ObservableSeries, SolverConfig, SpatialGrid, evolve,
                  initial_condition, write_series_csv)
from .rates import _is_critical, estimate_alpha0, fit_rate, prefactor_check
from .specfun import F2, G_explicit, H, g_profile, g_slope0


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


_DEFAULTS = {
    "cbar": CBAR_CRITICAL,
    "x_max": 60.0,
    "dx": 0.01,
    "dt": 0.01,
    "t_end": 10.0,
    "t_handoff": 1.0,
    "tau_end": 10.0,
    "y_max": 25.0,
    "dy": 0.01,
    "dtau": 0.002,
    "n_modes": 12,
    "v0.kind": "indicator",
    "v0.a": 1.0,
    "v0.b": 2.0,
    "mc.drift": 2.0,
    "mc.x0": 1.5,
    "mc.t_end": 3.0,
    "mc.replicas": 100_000,
    "mc.dt": 1e-3,
    "mc.seed": 20240617,
    "fit.window": (6.0, 10.0),   # in tau
}

_INT_KEYS = {"n_modes", "mc.replicas", "mc.seed"}
_STR_KEYS = {"v0.kind"}


def parse_config(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys are rejected."""
    cfg = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key!r}")
        if key == "fit.window" and val.count(",") != 1:
            raise ConfigError(f"fit.window wants 'lo,hi', got {val!r}")
        try:
            if key == "fit.window":
                lo, hi = val.split(",")
                cfg[key] = (float(lo), float(hi))
            elif key in _STR_KEYS:
                cfg[key] = val
            elif key in _INT_KEYS:
                cfg[key] = int(val)
            else:
                cfg[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return cfg


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())


def _validate_config(cfg: dict):
    if not math.isfinite(cfg["cbar"]):
        raise ConfigError("cbar must be finite")
    for key in ("dx", "dt", "dy", "dtau", "t_end", "tau_end", "mc.dt"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["t_handoff"] < 0:
        raise ConfigError("t_handoff must be >= 0")
    if cfg["y_max"] < 20.0:
        raise ConfigError("y_max must be >= 20")
    if cfg["x_max"] <= 0:
        raise ConfigError("x_max must be positive")
    if cfg["v0.kind"] not in ("indicator", "smooth_bump"):
        raise ConfigError(f"unknown v0.kind: {cfg['v0.kind']!r}")
    if not (0.0 < cfg["v0.a"] < cfg["v0.b"] < cfg["x_max"]):
        raise ConfigError("need 0 < v0.a < v0.b < x_max")
    if not cfg["mc.x0"] > 0:
        raise ConfigError("mc.x0 must be positive")
    if cfg["mc.replicas"] < 1:
        raise ConfigError("mc.replicas must be >= 1")
    if cfg["n_modes"] < 1:
        raise ConfigError("n_modes must be >= 1")
    lo, hi = cfg["fit.window"]
    if not (0.0 <= lo < hi <= cfg["tau_end"]):
        raise ConfigError("fit.window must satisfy 0 <= lo < hi <= tau_end")


# ---------------------------------------------------------------------------
# the core runs

def selfsimilar_run(cbar: float, cfg: dict | None = None, sample_every: int = 10):
    """Physical solve to the handoff time, then march W to tau_end.

    Returns (trajectory, ObservableSeries in physical time).  This is the
    workhorse behind the rate experiments: physical-frame cost grows linearly
    in t, the self-similar frame compresses it to tau = log(1+t).
    """
    cfg = {**_DEFAULTS, **(cfg or {})}
    d = DriftExpansion(cbar)
    grid = SpatialGrid(cfg["x_max"], int(round(cfg["x_max"] / cfg["dx"])))
    f0 = initial_condition(cfg["v0.kind"], grid, cfg["v0.a"], cfg["v0.b"])
    solver = SolverConfig(dt=cfg["dt"])
    f1, _ = evolve(f0, cfg["t_handoff"], solver, d)
    W0 = to_selfsimilar(f1, default_y_grid(cfg["y_max"], cfg["dy"]))
    traj = evolve_W(W0, cfg["tau_end"], d, dtau=cfg["dtau"], sample_every=sample_every)
    series = observables_from_trajectory(traj, grid)
    return traj, series


def _tau_window_to_t(window):
    return (math.expm1(window[0]), math.expm1(window[1]))


def rate_report(cbar: float, traj: WTrajectory, series: ObservableSeries,
                tau_window=(6.0, 10.0)):
    """alpha_0 estimates and the dichotomy fits for one run.

    Power-law rate fits of non-critical runs use the model-matched
    slope_extrapolation limit (rate and limit estimated jointly, the standard
    convention when the limit is unknown); the critical run's fits and the
    prefactor check use the spectral projection, whose error stays well below
    the residual being measured.
    """
    window = _tau_window_to_t(tau_window)
    a_spec = estimate_alpha0(traj, "spectral_projection")
    a_slope = estimate_alpha0(series, "slope_extrapolation", cbar=cbar, window=window)
    critical = _is_critical(cbar)
    alpha0 = a_spec.value
    alpha_for_power = a_spec.value if critical else a_slope.value
    power_source = "spectral_projection" if critical else "slope_extrapolation"
    fits = []
    for observable in ("mass", "slope0"):
        fits.append({"cbar": cbar, "observable": observable, "model": "power",
                     "alpha0_source": power_source,
                     **_fit_dict(fit_rate(series, alpha_for_power, "power", window, observable))})
        if critical:
            fits.append({"cbar": cbar, "observable": observable, "model": "log_over_t",
                         "alpha0_source": "spectral_projection",
                         **_fit_dict(fit_rate(series, alpha0, "log_over_t", window, observable))})
    pref = prefactor_check(series, alpha0, cbar, window)
    return {
        "cbar": cbar,
        "alpha0": alpha0,
        "alpha0_methods": {
            "spectral_projection": {"value": a_spec.value, "uncertainty": a_spec.uncertainty},
            "slope_extrapolation": {"value": a_slope.value, "uncertainty": a_slope.uncertainty},
        },
        "fits": fits,
        "prefactor_check": {
            "estimate": pref,
            "predicted": alpha0 * (cbar - CBAR_CRITICAL),
        },
    }


def _fit_dict(f):
    return {"exponent": f.exponent, "prefactor": f.prefactor, "r2": f.r_squared,
            "window": list(f.window), "n_samples": f.n_samples}


# ---------------------------------------------------------------------------
# pipelines

def _pipe_solve(cfg, out: Path):
    d = DriftExpansion(cfg["cbar"])
    grid = SpatialGrid(cfg["x_max"], int(round(cfg["x_max"] / cfg["dx"])))
    f0 = initial_condition(cfg["v0.kind"], grid, cfg["v0.a"], cfg["v0.b"])
    _, series = evolve(f0, cfg["t_end"], SolverConfig(dt=cfg["dt"]), d)
    path = out / f"physical_cbar{cfg['cbar']:.6g}.csv"
    write_series_csv(path, series)
    ov = initial_mode_overlap(f0)
    return [path], {"initial_overlap": {"weighted": ov[0], "plain": ov[1]}}


def _pipe_selfsim(cfg, out: Path):
    cbar = cfg["cbar"]
    traj, series = selfsimilar_run(cbar, cfg)
    report = rate_report(cbar, traj, series, cfg["fit.window"])
    alpha0 = report["alpha0"]
    gp = g_profile(alpha0, cbar, traj.y)
    basis = SpectralBasis(traj.y, max(8, int(cfg["n_modes"])))
    p1 = out / f"selfsim_series_cbar{cbar:.6g}.csv"
    write_series_csv(p1, series)
    p2 = out / f"trajectory_cbar{cbar:.6g}.csv"
    write_trajectory_csv(p2, traj, basis, alpha0, gp.values)
    return [p1, p2], {"selfsim": report}


def _pipe_specfun(cfg, out: Path):
    cbar = cfg["cbar"]
    alpha = 1.0
    zs = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    path = out / "specfun_table.csv"
    with open(path, "w") as fh:
        fh.write("z,F2,H,G,g\n")
        for z in zs:
            g_val = math.exp(-z / 2.0) * G_explicit(z, alpha, cbar)
            row = (z, F2(z), H(z), G_explicit(z, alpha, cbar), g_val)
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return [path], {"specfun": {"cbar": cbar, "g_slope0_alpha1": g_slope0(alpha, cbar)}}


def _pipe_mc(cfg, out: Path):
    mcc = McConfig(drift=cfg["mc.drift"], dt=cfg["mc.dt"],
                   n_replicas=cfg["mc.replicas"], seed=cfg["mc.seed"])
    a, b = cfg["v0.a"], cfg["v0.b"]
    payoff = lambda p: ((p >= a) & (p <= b)).astype(float)
    mean, stderr = estimate(cfg["mc.x0"], cfg["mc.t_end"], payoff, mcc)
    result = {"mean": mean, "stderr": stderr, "replicas": mcc.n_replicas,
              "config": {"drift": mcc.drift, "x0": cfg["mc.x0"], "t_end": cfg["mc.t_end"],
                         "dt": mcc.dt, "seed": mcc.seed,
                         "v0": {"kind": "indicator", "a": a, "b": b}}}
    path = out / "mc_result.json"
    path.write_text(json.dumps(result, indent=2))
    return [path], {"mc": result}


def _pipe_fit(cfg, out: Path):
    traj, series = selfsimilar_run(cfg["cbar"], cfg)
    report = rate_report(cfg["cbar"], traj, series, cfg["fit.window"])
    return [], {"fit": report}


def _pipe_reproduce_theorem(cfg, out: Path):
    reports = []
    files = []
    for cbar in (0.0, CBAR_CRITICAL, 10.0):
        sub = {**cfg, "cbar": cbar}
        traj, series = selfsimilar_run(cbar, sub)
        p = out / f"selfsim_series_cbar{cbar:.6g}.csv"
        write_series_csv(p, series)
        files.append(p)
        reports.append(rate_report(cbar, traj, series, cfg["fit.window"]))
    table = out / "rate_table.csv"
    with open(table, "w") as fh:
        fh.write("cbar,observable,model,exponent,prefactor,r2\n")
        for rep in reports:
            for f in rep["fits"]:
                fh.write(f"{f['cbar']:.17g},{f['observable']},{f['model']},"
                         f"{f['exponent']:.17g},{f['prefactor']:.17g},{f['r2']:.17g}\n")
    files.append(table)
    summary = {
        "alpha0": {f"{r['cbar']:.6g}": r["alpha0"] for r in reports},
        "alpha0_methods": {f"{r['cbar']:.6g}": r["alpha0_methods"] for r in reports},
        "fits": [f for r in reports for f in r["fits"]],
        "prefactor_check": {f"{r['cbar']:.6g}": r["prefactor_check"] for r in reports},
    }
    return files, summary


_PIPELINES = {
    "solve": _pipe_solve,
    "selfsim": _pipe_selfsim,
    "specfun": _pipe_specfun,
    "mc": _pipe_mc,
    "fit": _pipe_fit,
    "reproduce-theorem": _pipe_reproduce_theorem,
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_experiment(config, out_dir, pipelines=()):
    """Execute the named pipelines and persist artifacts plus a manifest.

    config may be a dict, a path to a key=value file, or None for defaults.
    Returns the output directory path.
    """
    if config is None:
        cfg = dict(_DEFAULTS)
    elif isinstance(config, dict):
        unknown = set(config) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")
        cfg = {**_DEFAULTS, **config}
    else:
        cfg = load_config(config)
    _validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    outputs = []
    timings = {}
    for name in pipelines:
        if name not in _PIPELINES:
            raise ConfigError(f"unknown pipeline: {name!r}")
        t0 = time.perf_counter()
        files, extra = _PIPELINES[name](cfg, out)
        timings[name] = time.perf_counter() - t0
        outputs.extend(files)
        summary.update(extra)
    if summary:
        spath = out / "summary.json"
        spath.write_text(json.dumps(summary, indent=2, default=float))
        outputs.append(spath)
    manifest = {
        "version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()},
        "pipelines": list(pipelines),
        "wall_clock_seconds": timings,
        "files": {p.name: _sha256(p) for p in outputs},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out
