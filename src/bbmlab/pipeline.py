"""End-to-end experiment orchestration and artifact persistence.

A run is described by a flat key=value config (defaults below), executes a
list of named pipelines, and writes every artifact plus a manifest with the
config echo, code version, wall-clock times, and a content hash per file.

Every config comes from make_config: the defaults or a base config, plus
overrides (values or text) coerced to the type of each key's default, then
validated; a bad value raises ConfigError naming its key.

Pipelines: 'solve' (physical frame), 'selfsim' (handoff to the self-similar
frame, with its rate fits), 'specfun' (series / profile tables), 'mc'
(many-to-one validation), and the preset 'reproduce-theorem' (selfsim + fits
for cbar in {0, 3 sqrt(pi), 10} plus the prefactor check).  The last two run
each self-similar run through resolved_run and write its Richardson error
estimates to a 'resolution' block of summary.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import time
from pathlib import Path

from . import __version__
from .drift import CBAR_CRITICAL, DriftExpansion
from .mc import McConfig, estimate
from .oscillator import (WTrajectory, default_y_grid, evolve_W, initial_mode_overlap,
                         observables_from_trajectory, to_selfsimilar, write_trajectory_csv)
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
    for key in ("x_max", "dx", "dt", "y_max", "dy", "dtau", "t_end", "tau_end", "mc.x0"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    for key, low in (("t_handoff", 0), ("y_max", 20), ("mc.t_end", 0), ("mc.replicas", 1),
                     ("mc.seed", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    for length, step in (("x_max", "dx"), ("y_max", "dy")):
        cells = cfg[length] / cfg[step]
        if not math.isfinite(cells) or abs(cells - round(cells)) > 1e-9 * cells:
            raise ConfigError(f"{step} = {cfg[step]!r} does not divide {length} = {cfg[length]!r}")
    if cfg["v0.kind"] not in ("indicator", "smooth_bump"):
        raise ConfigError(f"unknown v0.kind: {cfg['v0.kind']!r}")
    if not (0.0 < cfg["v0.a"] < cfg["v0.b"] < cfg["x_max"]):
        raise ConfigError("need 0 < v0.a < v0.b < x_max")
    lo, hi = cfg["fit.window"]
    if not (0.0 <= lo < hi <= cfg["tau_end"]):
        raise ConfigError("fit.window must satisfy 0 <= lo < hi <= tau_end")


# ---------------------------------------------------------------------------
# the core runs

#: spacing in tau of the samples a self-similar run keeps (to the nearest
#: multiple of dtau), so the fits see the same samples at every dtau
SAMPLE_DTAU = 0.02


def _handoff(cbar: float, cfg: dict):
    """(drift, physical field at t_handoff) from v0 under the drift of cbar."""
    d = DriftExpansion(cbar)
    grid = SpatialGrid(cfg["x_max"], int(round(cfg["x_max"] / cfg["dx"])))
    f0 = initial_condition(cfg["v0.kind"], grid, cfg["v0.a"], cfg["v0.b"])
    f1, _ = evolve(f0, cfg["t_handoff"], SolverConfig(dt=cfg["dt"]), d)
    return d, f1


def _march(d: DriftExpansion, f1, cfg: dict, coarsen: int = 1):
    """W from the handoff field f1 to tau_end at (coarsen dy, coarsen dtau).

    Returns (trajectory, ObservableSeries in physical time); the mass is read
    on the physical grid of f1.
    """
    dtau = coarsen * cfg["dtau"]
    W0 = to_selfsimilar(f1, default_y_grid(cfg["y_max"], coarsen * cfg["dy"]))
    traj = evolve_W(W0, cfg["tau_end"], d, dtau=dtau,
                    sample_every=max(1, round(SAMPLE_DTAU / dtau)))
    return traj, observables_from_trajectory(traj, f1.grid)


def selfsimilar_run(cbar: float, cfg: dict | None = None):
    """Physical solve to the handoff time, then march W to tau_end.

    Returns (trajectory, ObservableSeries in physical time).  This is the
    workhorse behind the rate experiments: physical-frame cost grows linearly
    in t, the self-similar frame compresses it to tau = log(1+t).
    """
    cfg = make_config(cfg)
    return _march(*_handoff(cbar, cfg), cfg)


def resolved_run(cbar: float, cfg: dict | None = None):
    """selfsimilar_run and its rate_report, with a Richardson error estimate.

    A partner run at (2 dy, 2 dtau) starts from the same handoff field, and
    |A(h) - A(2h)| / 3 estimates the error of each reported number A at the
    run's own resolution.  The divisor suits the second-order dtau error
    (Crank-Nicolson); dy enters at fourth order, so where it dominates the
    estimate errs high.  Returns (trajectory, series, report, errors).
    """
    cfg = make_config(cfg)
    d, f1 = _handoff(cbar, cfg)
    traj, series = _march(d, f1, cfg)
    report = rate_report(cbar, traj, series, cfg["fit.window"])
    partner = rate_report(cbar, *_march(d, f1, cfg, coarsen=2), cfg["fit.window"])

    def err(a, b):
        return abs(a - b) / 3.0

    errors = {
        "alpha0": err(report["alpha0"], partner["alpha0"]),
        "exponents": {f"{f['observable']}.{f['model']}": err(f["exponent"], p["exponent"])
                      for f, p in zip(report["fits"], partner["fits"])},
        "prefactor": err(report["prefactor_check"]["estimate"],
                         partner["prefactor_check"]["estimate"]),
    }
    return traj, series, report, errors


def _resolution_block(cfg: dict, errors: dict) -> dict:
    """summary.json's record of the Richardson estimates, errors keyed by cbar."""
    return {"dy": cfg["dy"], "dtau": cfg["dtau"],
            "partner": {"dy": 2 * cfg["dy"], "dtau": 2 * cfg["dtau"]},
            "estimate": "|A(dy, dtau) - A(2 dy, 2 dtau)| / 3",
            "error": errors}


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
    pref = prefactor_check(series, alpha0, window)
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
    traj, series, report, errors = resolved_run(cbar, cfg)
    alpha0 = report["alpha0"]
    gp = g_profile(alpha0, cbar, traj.y)
    p1 = out / f"selfsim_series_cbar{cbar:.6g}.csv"
    write_series_csv(p1, series)
    p2 = out / f"trajectory_cbar{cbar:.6g}.csv"
    write_trajectory_csv(p2, traj, alpha0, gp.values)
    return [p1, p2], {"selfsim": report,
                      "resolution": _resolution_block(cfg, {f"{cbar:.6g}": errors})}


#: largest z at which a specfun row carries F2, H and their scaled forms: the
#: series converge within the default 500 terms up to z of about 351, and
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
    with open(path, "w") as fh:
        fh.write("z,F2,H,G,g\n")
        for z in zs:
            row = specfun_row(z, alpha, cbar)
            fh.write(",".join(f"{row[k]:.17g}" for k in ("z", "F2", "H", "G", "g")) + "\n")
    return [path], {"specfun": {"cbar": cbar, "g_slope0_alpha1": g_slope0(alpha, cbar)}}


def _pipe_mc(cfg, out: Path):
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
    reports = []
    errors = {}
    files = []
    for cbar in (0.0, CBAR_CRITICAL, 10.0):
        _, series, report, errors[f"{cbar:.6g}"] = resolved_run(cbar, cfg)
        p = out / f"selfsim_series_cbar{cbar:.6g}.csv"
        write_series_csv(p, series)
        files.append(p)
        reports.append(report)
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
        "resolution": _resolution_block(cfg, errors),
    }
    return files, summary


_PIPELINES = {
    "solve": _pipe_solve,
    "selfsim": _pipe_selfsim,
    "specfun": _pipe_specfun,
    "mc": _pipe_mc,
    "reproduce-theorem": _pipe_reproduce_theorem,
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_experiment(config, out_dir, pipelines=()):
    """Execute the named pipelines and persist artifacts plus a manifest.

    config may be a dict of overrides, a path to a key=value file, or None for
    the defaults.  Returns the output directory path.
    """
    cfg = make_config(config) if config is None or isinstance(config, dict) else load_config(config)
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
