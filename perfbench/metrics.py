"""Names, units and bounds of every metric the benchmark reports.

BENCHMARK.json at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``), so the manifest and
the harness cannot disagree about a name or a unit.
"""

RUN_SECONDS = 40

WORKLOADS = {
    "theorem": "the headline reproduce-theorem CLI run at default resolution; "
               "about 80% self-similar stepper, no specfun tail and no Monte Carlo",
    "profile": "g profiles for seeded cbar values: the per-cbar mpmath tail dominates; "
               "oscillator steppers and Monte Carlo are bypassed",
    "manytoone": "criterion-8 many-to-one check: Monte Carlo final-state and per-step "
                 "paths plus the physical PDE reference; no self-similar frame",
}

#: workloads that make no random draws: they ignore --seed
DETERMINISTIC = {"theorem"}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

# name, unit, better.  Times and work counts are "lower"; counts fixed by the
# inputs (replicas, samples, modes, points) are the bases of the ratios and
# are marked "higher" only because the schema asks for a direction.
PER_LAYER = [
    ("oscillator.evolve_W.s", "s", "lower"),
    ("oscillator.evolve_W.node_steps", "count", "lower"),
    ("oscillator.evolve_W.ns_per_node_step", "ns", "lower"),
    ("oscillator.observables_from_trajectory.s", "s", "lower"),
    ("oscillator.observables_from_trajectory.samples", "count", "higher"),
    ("oscillator.observables_from_trajectory.us_per_sample", "us", "lower"),
    ("oscillator.to_selfsimilar.s", "s", "lower"),
    ("pde.evolve.s", "s", "lower"),
    ("pde.evolve.calls", "count", "lower"),
    ("pde.evolve.node_steps", "count", "lower"),
    ("pde.evolve.ns_per_node_step", "ns", "lower"),
    ("specfun.g_profile.cold_s", "s", "lower"),
    ("specfun.g_profile.cold_calls", "count", "lower"),
    ("specfun.g_profile.warm_s", "s", "lower"),
    ("specfun.solve_g_spectral.s", "s", "lower"),
    ("specfun.solve_g_spectral.modes", "count", "higher"),
    ("specfun.G_explicit.s", "s", "lower"),
    ("specfun.G_explicit.points", "count", "higher"),
    ("mc.estimate.s", "s", "lower"),
    ("mc.estimate.replicas", "count", "higher"),
    ("mc.estimate.final_particles", "count", "higher"),
    ("mc.estimate.replicas_per_s", "1/s", "higher"),
    ("mc.survival_probability.s", "s", "lower"),
    ("mc.survival_probability.replicas", "count", "higher"),
    ("rates.s", "s", "lower"),
    ("rates.calls", "count", "lower"),
    ("rates.alpha0_rel_gap", "ratio", "lower"),
    ("rates.prefactor_rel_err", "ratio", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.bytes_written", "bytes", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The BENCHMARK.json document for this harness."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
