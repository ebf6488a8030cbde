"""Command-line interface.

Subcommands: solve, selfsim, specfun, mc, fit, reproduce-theorem.
Global flags: --config PATH (key=value file), --out DIR, --seed N.
Exit codes: 2 invalid config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .drift import CBAR_CRITICAL
from .mc import McConfig, estimate
from .oscillator import LossOfSupport
from .pde import NumericalFailure
from .pipeline import ConfigError, load_config, run_experiment, _DEFAULTS
from .specfun import F2, F2_scaled, G_explicit, H, H_scaled, SeriesDiverged, g_slope0

#: largest z at which `bbmlab specfun` prints F2, H and their scaled forms: their
#: series converge within the default 500 terms up to z of about 351 (G and g
#: use the closed-form tail at every z)
_SERIES_Z_MAX = 300.0


def _build_parser():
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override mc.seed")

    p = argparse.ArgumentParser(prog="bbmlab", parents=[common],
                                description="branching Brownian motion with drift and "
                                            "absorption: numerical laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    for name in ("solve", "selfsim", "fit", "reproduce-theorem"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--cbar", type=float, default=None,
                        help="drift correction coefficient (default: 3*sqrt(pi))")

    sp = sub.add_parser("specfun", help="evaluate F2, H, G, g at a point")
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--cbar", type=float, default=CBAR_CRITICAL)

    sp = sub.add_parser("mc", help="many-to-one Monte Carlo estimate")
    sp.add_argument("--drift", type=float, default=2.0)
    sp.add_argument("--x0", type=float, default=1.5)
    sp.add_argument("--t-end", type=float, default=3.0)
    sp.add_argument("--replicas", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0, dest="mc_seed")
    sp.add_argument("--a", type=float, default=1.0, help="payoff support start")
    sp.add_argument("--b", type=float, default=2.0, help="payoff support end")
    return p


def _require_finite(**flags):
    """ConfigError naming the first given flag whose value is NaN or infinite."""
    for name, value in flags.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    out_dir = getattr(args, "out", "bbmlab_out")
    seed = getattr(args, "seed", None)
    try:
        if args.command == "specfun":
            if (args.z is None) == (args.y is None):
                raise ConfigError("specfun: give exactly one of --z or --y")
            _require_finite(z=args.z, y=args.y, alpha=args.alpha, cbar=args.cbar)
            if args.z is not None and args.z < 0:
                raise ConfigError(f"specfun: --z must be >= 0, got {args.z!r}")
            z = args.z if args.z is not None else args.y * args.y / 4.0
            if not math.isfinite(z):
                raise ConfigError(f"specfun: y^2/4 overflows float64 at --y {args.y!r}")
            G = G_explicit(z, args.alpha, args.cbar)
            out = {"z": z, "F2": None, "H": None, "F2_scaled": None, "H_scaled": None,
                   "G": G, "g": math.exp(-z / 2.0) * G,
                   "g_slope0": g_slope0(args.alpha, args.cbar)}
            if z <= _SERIES_Z_MAX:
                out.update(F2=F2(z), H=H(z), F2_scaled=F2_scaled(z).mantissa,
                           H_scaled=H_scaled(z).mantissa)
            print(json.dumps(out, indent=2, allow_nan=False))
            return 0

        if args.command == "mc":
            _require_finite(drift=args.drift, x0=args.x0, t_end=args.t_end, a=args.a, b=args.b)
            if args.x0 <= 0 or args.t_end < 0:
                raise ConfigError("mc: need --x0 > 0 and --t-end >= 0")
            try:
                cfg = McConfig(drift=args.drift, n_replicas=args.replicas, seed=args.mc_seed)
            except ValueError as exc:
                raise ConfigError(f"mc: {exc}") from exc
            lo, hi = args.a, args.b
            payoff = lambda p: ((p >= lo) & (p <= hi)).astype(float)
            mean, stderr = estimate(args.x0, args.t_end, payoff, cfg)
            print(json.dumps({"mean": mean, "stderr": stderr, "replicas": args.replicas,
                              "config": {"drift": args.drift, "x0": args.x0,
                                         "t_end": args.t_end, "seed": args.mc_seed,
                                         "payoff_support": [lo, hi]}}, indent=2))
            return 0

        cfg = load_config(config_path) if config_path else dict(_DEFAULTS)
        if getattr(args, "cbar", None) is not None:
            cfg["cbar"] = args.cbar
        if seed is not None:
            cfg["mc.seed"] = seed
        run_experiment(cfg, out_dir, [args.command])
        print(f"artifacts written to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, LossOfSupport, SeriesDiverged) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
