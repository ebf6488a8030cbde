"""Smoke test of the benchmark harness at a tiny size (about two minutes).

    python3 -m pytest -q perfbench/smoke_test.py

It checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that the traced self times add up to
the traced wall time; that a check fed a deliberately wrong reference counts
one failed op; and that without the package sources the benchmark exits
with a non-zero code and prints no result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402

# spans that are leaves or whose self time is reported: together they cover
# the traced wall time exactly once
SELF_TIMES = ["oscillator.evolve_W.s", "oscillator.observables_from_trajectory.s",
              "oscillator.to_selfsimilar.s", "pde.evolve.s", "specfun.g_profile.cold_s",
              "specfun.g_profile.warm_s", "specfun.solve_g_spectral.s", "specfun.G_explicit.s",
              "mc.estimate.s", "mc.survival_probability.s", "rates.s", "pipeline.self_s",
              "bench.self_s"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_metrics():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == metrics.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        wall = m["trace.wall_s"]
        assert sum(m[k] for k in SELF_TIMES) == pytest.approx(wall, rel=1e-9)
        assert m["trace.self_sum_s"] == pytest.approx(wall, rel=1e-9)
    else:
        assert all(v > 0 for v in m.values())


def test_wrong_reference_counts_one_failed_op(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "YULE_MEAN", math.e ** 3)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    inputs = workloads.build_manytoone(5, 0, "tiny", SCRATCH / "manytoone")
    ops = workloads.Ops()
    workloads.run_manytoone(inputs, ops)
    assert ops.failed == 1
    [bad] = [r for r in ops.records if not r["ok"]]
    assert bad["op"] == "mc.estimate yule" and bad["layer"] == "mc"
    assert bad["params"]["replicas"] == inputs.yule_cfg.n_replicas
    shutil.rmtree(SCRATCH)


def test_without_sources_exits_nonzero():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "theorem", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    shutil.rmtree(SCRATCH)
