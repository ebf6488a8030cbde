"""bbmlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (perfbench/rep.py), one at a
time, with BLAS/OpenMP threads pinned to 1.  Repetitions start until the
next one is predicted to end after --seconds: at least MIN_REPS of them, or
two pairs when traced.
The end-to-end metrics are medians over untraced repetitions.  With
--trace 1, untraced and traced repetitions alternate on the same inputs: the
per-layer metrics are medians over the traced ones and trace_overhead_s is
the difference of the two median wall times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give every metric with its
unit, the failed ops and the environment; the same record, with every
repetition, is written to .perfbench_out/<workload>-seed<seed>-trace<t>.json.

``--write-benchmark-json`` writes BENCHMARK.json from perfbench/metrics.py.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
#: a run must end within 180 s; no repetition starts after this many seconds
BUDGET_S = 150.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


class RepFailed(RuntimeError):
    """A repetition exited abnormally or printed no result."""


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "threads": PINNED}


def run_rep(workload, seed, rep, trace, scale, timeout) -> dict:
    env = {**os.environ, **PINNED}
    cmd = [sys.executable, str(Path(__file__).with_name("rep.py")),
           "--workload", workload, "--seed", str(seed), "--rep", str(rep),
           "--trace", str(trace), "--scale", scale, "--out", str(OUT),
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition {rep} timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition {rep} exited with code {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_reps(args) -> list[dict]:
    """Repetitions as (untraced, traced-or-None) pairs sharing their inputs."""
    start = time.monotonic()
    pairs = []
    durations = []
    min_pairs = 2 if args.trace else MIN_REPS
    while True:
        elapsed = time.monotonic() - start
        if len(pairs) >= min_pairs and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed > BUDGET_S:
            break
        t = time.monotonic()
        rep = len(pairs)
        plain = run_rep(args.workload, args.seed, rep, 0, args.scale, BUDGET_S + 25 - elapsed)
        traced = None
        if args.trace:
            traced = run_rep(args.workload, args.seed, rep, 1, args.scale,
                             BUDGET_S + 25 - (time.monotonic() - start))
        pairs.append((plain, traced))
        durations.append(time.monotonic() - t)
    return pairs


def summarize(args, pairs) -> tuple[dict, list[dict]]:
    reps = [r for pair in pairs for r in pair if r is not None]
    failures = [op for r in reps for op in r["ops"] if not op["ok"]]
    plain = [p for p, _ in pairs]
    if args.trace:
        traced = [t for _, t in pairs]
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name, *_ in metrics.PER_LAYER if name != "trace_overhead_s"}
        values["trace_overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
    else:
        values = {name: statistics.median(p[name] for p in plain)
                  for name, *_ in metrics.END_TO_END}
    result = {"correct": not failures,
              "attempted": sum(len(r["ops"]) for r in reps),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in values.items()}}
    return result, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bbmlab benchmark")
    ap.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the harness's own smoke test")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from perfbench/metrics.py and exit")
    args = ap.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(metrics.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "bbmlab" / "__init__.py").is_file():
        print(f"no bbmlab sources under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    try:
        pairs = run_reps(args)
    except RepFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    result, failures = summarize(args, pairs)

    seed_used = args.workload not in metrics.DETERMINISTIC
    seed_note = "" if seed_used else " (deterministic: seed ignored)"
    print(f"workload {args.workload}  seed {args.seed}{seed_note}  scale {args.scale}  "
          f"trace {args.trace}  repetitions {len(pairs)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<55} {m['value']:.6g} {m['unit']}")
    print(f"  ops_failed {result['failed']} of ops_total {result['attempted']}")
    for op in failures:
        print(f"  FAILED {op['op']} [layer {op['layer']}] {json.dumps(op['params'])}: "
              f"{'; '.join(op['problems'])}")
    print("  environment " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed,
              "seed_used": seed_used, "scale": args.scale,
              "trace": args.trace, "seconds": args.seconds, "environment": env,
              "result": result, "failures": failures,
              "repetitions": [{"untraced": p, "traced": t} for p, t in pairs]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
