"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so that every repetition pays
the cold imports and caches that a command-line user pays.  It prints one
JSON line: setup_s (process start to inputs built), wall_s (first call into
bbmlab to last output checked), peak_rss_mb, the ops and, when traced, the
per-layer metrics.  Spans go to <out>/<run id>.spans.jsonl.

    python3 perfbench/rep.py --workload theorem --seed 1 --rep 0 --trace 0 \
        --scale full --out .perfbench_out --t0 <time.monotonic() at spawn>
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import bbmlab
    if Path(bbmlab.__file__).resolve().parent != ROOT / "src" / "bbmlab":
        print(f"bbmlab imported from {bbmlab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads
    import spans

    work = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-rep{args.rep}-trace{args.trace}"
    scratch = Path(args.out) / run_id
    if scratch.exists():
        shutil.rmtree(scratch)
    inputs = work.build(args.seed, args.rep, args.scale, scratch)
    setup_s = time.monotonic() - args.t0

    ops = workloads.Ops()
    layers = None
    if args.trace:
        tracer = spans.Tracer(run_id)
        with tracer.installed():
            with tracer.span("bench"):
                work.run(inputs, ops)
        wall_s = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    else:
        t = time.perf_counter()
        work.run(inputs, ops)
        wall_s = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    extra = work.extra(inputs)
    if args.trace:
        layers = spans.layer_metrics(tracer.spans, extra)
        tracer.write(Path(args.out) / f"{run_id}.spans.jsonl")
    shutil.rmtree(scratch)
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                      "ops": ops.records, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
