"""Spans around calls into bbmlab's modules, recorded from outside the package.

A traced repetition replaces the module attributes that callers look up at
call time (``bbmlab.pipeline.evolve_W``, ``bbmlab.mc.estimate``, ...) with
wrappers that record one span per call: name, start, end, parent span and
run id, plus work counts computed from the call's inputs.  Nothing in the
package is edited and the original attributes are restored on exit.  Spans
stay in memory and are written out once the repetition ends.

Only calls that cross a module boundary are wrapped: a call a module makes
to its own functions (``specfun.g_profile`` evaluating ``G_explicit``) is
part of the caller's span.  No wrapped function calls another wrapped one,
so the spans of one layer never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from contextlib import contextmanager


def _evolve_W_counts(a):
    W0 = a["W0"]
    steps = a["startup_steps"] + max(math.ceil((a["tau_end"] - W0.tau) / a["dtau"] - 1e-12), 0)
    return {"node_steps": W0.values.size * steps}


def _pde_evolve_counts(a):
    f0, cfg = a["f0"], a["cfg"]
    dt = cfg.effective_dt(f0.grid)
    rest = a["t_end"] - f0.time - cfg.startup_steps * dt / 2.0
    steps = cfg.startup_steps + max(math.ceil(rest / dt - 1e-9), 0)
    return {"node_steps": (f0.grid.nx + 1) * steps}


# (module, attribute, span name, counts from the bound arguments).  Node
# steps are computed from the inputs (nodes times steps), not counted inside.
HOOKS = [
    ("bbmlab.cli", "main", "cli.main", None),
    ("bbmlab.cli", "run_experiment", "pipeline.run_experiment", None),
    ("bbmlab.pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("bbmlab.pipeline", "evolve", "pde.evolve", _pde_evolve_counts),
    ("bbmlab.pipeline", "to_selfsimilar", "oscillator.to_selfsimilar", None),
    ("bbmlab.pipeline", "evolve_W", "oscillator.evolve_W", _evolve_W_counts),
    ("bbmlab.pipeline", "observables_from_trajectory", "oscillator.observables_from_trajectory",
     lambda a: {"samples": len(a["traj"])}),
    ("bbmlab.pipeline", "estimate_alpha0", "rates.estimate_alpha0", None),
    ("bbmlab.pipeline", "fit_rate", "rates.fit_rate", None),
    ("bbmlab.pipeline", "prefactor_check", "rates.prefactor_check", None),
    ("bbmlab.pipeline", "G_explicit", "specfun.G_explicit", lambda a: {"points": 1}),
    ("bbmlab.pde", "evolve", "pde.evolve", _pde_evolve_counts),
    ("bbmlab.specfun", "g_profile", "specfun.g_profile", lambda a: {"cbar": float(a["cbar"])}),
    ("bbmlab.specfun", "solve_g_spectral", "specfun.solve_g_spectral",
     lambda a: {"modes": a["n_modes"]}),
    ("bbmlab.mc", "estimate", "mc.estimate", lambda a: {"replicas": a["cfg"].n_replicas}),
    ("bbmlab.mc", "survival_probability", "mc.survival_probability",
     lambda a: {"replicas": a["cfg"].n_replicas}),
]


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"run": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, counts=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            c = {}
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                c = counts(bound.arguments)
            with self.span(name, **c):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Swap every hooked attribute for a traced wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, counts in HOOKS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, counts))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], extra: dict) -> dict:
    """Per-layer metrics of one traced repetition.

    spans[0] is the root span around the whole workload.  ``extra`` holds the
    values the workload itself measures (final particles counted by its
    payoff, bytes written, the rates health values).  A layer the workload
    does not call reports 0.
    """
    selfs = self_times(spans)
    dur, calls, cnt = {}, {}, {}
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] = dur.get(s["name"], 0.0) + d
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for k, v in s["counts"].items():
            if k != "cbar":
                key = f"{s['name']}.{k}"
                cnt[key] = cnt.get(key, 0) + v

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    # the first g_profile call for a cbar builds its tail: that one is cold
    seen = set()
    cold_s = warm_s = 0.0
    cold_calls = 0
    for s in spans:
        if s["name"] == "specfun.g_profile":
            if s["counts"]["cbar"] in seen:
                warm_s += s["end"] - s["start"]
            else:
                seen.add(s["counts"]["cbar"])
                cold_s += s["end"] - s["start"]
                cold_calls += 1

    rates = [n for n in dur if n.startswith("rates.")]
    m = {}
    g = dur.get
    m["oscillator.evolve_W.s"] = g("oscillator.evolve_W", 0.0)
    m["oscillator.evolve_W.node_steps"] = cnt.get("oscillator.evolve_W.node_steps", 0)
    m["oscillator.evolve_W.ns_per_node_step"] = per(
        m["oscillator.evolve_W.s"], m["oscillator.evolve_W.node_steps"], 1e9)
    obs = "oscillator.observables_from_trajectory"
    m[f"{obs}.s"] = g(obs, 0.0)
    m[f"{obs}.samples"] = cnt.get(f"{obs}.samples", 0)
    m[f"{obs}.us_per_sample"] = per(m[f"{obs}.s"], m[f"{obs}.samples"], 1e6)
    m["oscillator.to_selfsimilar.s"] = g("oscillator.to_selfsimilar", 0.0)
    m["pde.evolve.s"] = g("pde.evolve", 0.0)
    m["pde.evolve.calls"] = calls.get("pde.evolve", 0)
    m["pde.evolve.node_steps"] = cnt.get("pde.evolve.node_steps", 0)
    m["pde.evolve.ns_per_node_step"] = per(m["pde.evolve.s"], m["pde.evolve.node_steps"], 1e9)
    m["specfun.g_profile.cold_s"] = cold_s
    m["specfun.g_profile.cold_calls"] = cold_calls
    m["specfun.g_profile.warm_s"] = warm_s
    m["specfun.solve_g_spectral.s"] = g("specfun.solve_g_spectral", 0.0)
    m["specfun.solve_g_spectral.modes"] = cnt.get("specfun.solve_g_spectral.modes", 0)
    m["specfun.G_explicit.s"] = g("specfun.G_explicit", 0.0)
    m["specfun.G_explicit.points"] = cnt.get("specfun.G_explicit.points", 0)
    m["mc.estimate.s"] = g("mc.estimate", 0.0)
    m["mc.estimate.replicas"] = cnt.get("mc.estimate.replicas", 0)
    m["mc.estimate.final_particles"] = extra.get("mc.estimate.final_particles", 0)
    m["mc.estimate.replicas_per_s"] = per(m["mc.estimate.replicas"], m["mc.estimate.s"])
    m["mc.survival_probability.s"] = g("mc.survival_probability", 0.0)
    m["mc.survival_probability.replicas"] = cnt.get("mc.survival_probability.replicas", 0)
    m["rates.s"] = sum(dur[n] for n in rates)
    m["rates.calls"] = sum(calls[n] for n in rates)
    m["rates.alpha0_rel_gap"] = extra.get("rates.alpha0_rel_gap", 0.0)
    m["rates.prefactor_rel_err"] = extra.get("rates.prefactor_rel_err", 0.0)
    m["pipeline.self_s"] = sum(t for s, t in zip(spans, selfs)
                               if s["name"] in ("cli.main", "pipeline.run_experiment"))
    m["pipeline.bytes_written"] = extra.get("pipeline.bytes_written", 0)
    m["bench.self_s"] = selfs[0]
    m["trace.wall_s"] = spans[0]["end"] - spans[0]["start"]
    m["trace.self_sum_s"] = sum(selfs)
    return m
