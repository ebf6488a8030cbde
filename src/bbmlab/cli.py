"""Command-line interface.

Subcommands: solve, selfsim, specfun, mc, reproduce-theorem.  All but
specfun run their pipeline through run_experiment; --config PATH (key=value
file), --seed N and the subcommand's flags set config keys (_FLAG_KEYS), --out
DIR takes the artifacts and mc prints its mc_result.json; reproduce-theorem
runs cbar = 0, 3 sqrt(pi) and 10 and takes no --cbar.  specfun prints one
pipeline.specfun_row and takes none of the global flags.  Exit codes: 2
invalid config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .drift import CBAR_CRITICAL
from .pde import NumericalFailure
from .pipeline import ConfigError, load_config, make_config, run_experiment, specfun_row
from .specfun import g_slope0

#: flag (argparse dest) -> the config key it sets
_FLAG_KEYS = {"cbar": "cbar", "seed": "mc.seed", "drift": "mc.drift", "x0": "mc.x0",
              "t_end": "mc.t_end", "replicas": "mc.replicas", "a": "v0.a", "b": "v0.b"}


def _build_parser():
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
    common.add_argument("--seed", default=argparse.SUPPRESS, help="sets mc.seed")

    p = argparse.ArgumentParser(prog="bbmlab", parents=[common],
                                description="branching Brownian motion with drift and "
                                            "absorption: numerical laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    for name in ("solve", "selfsim"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--cbar", default=argparse.SUPPRESS,
                        help="sets cbar, the drift correction coefficient")
    sub.add_parser("reproduce-theorem", parents=[common],
                   help="rate table for cbar in {0, 3 sqrt(pi), 10}")

    sp = sub.add_parser("specfun", help="evaluate F2, H, G, g at a point")
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--cbar", type=float, default=CBAR_CRITICAL)

    sp = sub.add_parser("mc", parents=[common], help="many-to-one Monte Carlo estimate")
    for dest in ("drift", "x0", "t_end", "replicas", "a", "b"):
        sp.add_argument("--" + dest.replace("_", "-"), default=argparse.SUPPRESS,
                        help=f"sets {_FLAG_KEYS[dest]}")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = getattr(args, "out", "bbmlab_out")
    try:
        if args.command == "specfun":
            for flag in ("config", "out", "seed"):  # given before the subcommand
                if hasattr(args, flag):
                    raise ConfigError(f"specfun takes no --{flag}")
            if (args.z is None) == (args.y is None):
                raise ConfigError("specfun: give exactly one of --z or --y")
            for flag in ("z", "y", "alpha", "cbar"):
                value = getattr(args, flag)
                if value is not None and not math.isfinite(value):
                    raise ConfigError(f"--{flag} must be finite, got {value!r}")
            for flag in ("z", "y"):
                value = getattr(args, flag)
                if value is not None and value < 0:
                    raise ConfigError(f"specfun: --{flag} must be >= 0, got {value!r}")
            z = args.z if args.z is not None else args.y * args.y / 4.0
            if not math.isfinite(z):
                raise ConfigError(f"specfun: y^2/4 overflows float64 at --y {args.y!r}")
            out = {**specfun_row(z, args.alpha, args.cbar),
                   "g_slope0": g_slope0(args.alpha, args.cbar)}
            bad = [f"{k} = {v!r}" for k, v in out.items() if v is not None and not math.isfinite(v)]
            if bad:
                raise NumericalFailure(f"specfun: non-finite {', '.join(bad)} at z = {z!r}, "
                                       f"alpha = {args.alpha!r}, cbar = {args.cbar!r}")
            print(json.dumps(out, indent=2, allow_nan=False))
            return 0

        base = load_config(args.config) if hasattr(args, "config") else None
        flags = {key: getattr(args, dest) for dest, key in _FLAG_KEYS.items() if hasattr(args, dest)}
        run_experiment(make_config(flags, base), out_dir, [args.command])
        if args.command == "mc":
            print((Path(out_dir) / "mc_result.json").read_text())
        else:
            print(f"artifacts written to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
