"""Refinement study of the self-similar run: prints the tables of resolution_study.md.

    PYTHONPATH=src python docs/resolution_study.py > tables.md

For cbar in {0, 3 sqrt(pi), 10} and every (dy, dtau) pair of the grid below it
runs pipeline.selfsimilar_run and pipeline.rate_report at the default config
otherwise, and prints alpha_0 by both methods, every fit exponent, the
prefactor estimate and the wall time of the run (handoff, march, readout and
fits).  alpha_0 is also given relative to the finest pair.  That grid holds dx
at its default, so for each cbar it then prints the errors of alpha_0 and the
prefactor, against a run that refines every step, at the defaults, with dx
alone refined and with dy and dtau alone refined.  Last, for each cbar, it
prints the Richardson estimates of pipeline.resolved_runs at the defaults
against the actual distance from that run.
"""

import time

from bbmlab.drift import CBAR_CRITICAL
from bbmlab.pipeline import make_config, rate_report, resolved_runs, selfsimilar_run

DYS = (0.01, 0.025, 0.05, 0.1)
DTAUS = (0.002, 0.005, 0.01, 0.02)
#: the reference of the last two tables: every step of the defaults refined fourfold
FINE = {"dx": 0.0025, "dy": 0.0125, "dtau": 0.0025}
#: the runs of the step table: the defaults, dx alone refined, dy and dtau alone refined
PARTIAL = {"defaults": {}, "dx refined": {"dx": FINE["dx"]},
           "dy, dtau refined": {"dy": FINE["dy"], "dtau": FINE["dtau"]}}


def report(overrides):
    """rate_report of the selfsimilar_run of the defaults plus overrides, over its fit window."""
    cfg = make_config(overrides)
    return rate_report(*selfsimilar_run(cfg), cfg["fit.window"])


def main():
    for cbar in (0.0, CBAR_CRITICAL, 10.0):
        rows = []
        for dy in DYS:
            for dtau in DTAUS:
                t0 = time.perf_counter()
                rep = report({"cbar": cbar, "dy": dy, "dtau": dtau})
                rows.append((dy, dtau, rep, time.perf_counter() - t0))
        finest = rows[0][2]["alpha0"]
        fits = [f"{f['observable']} {f['model']}" for f in rows[0][2]["fits"]]
        print(f"\n### cbar = {cbar:.6g}\n")
        print("| dy | dtau | alpha_0 (spectral) | rel. to finest | alpha_0 (slope) | "
              + " | ".join(fits) + " | prefactor | wall s |")
        print("|" + "---|" * (7 + len(fits)))
        for dy, dtau, rep, wall in rows:
            methods = rep["alpha0_methods"]
            exps = " | ".join(f"{f['exponent']:.5f}" for f in rep["fits"])
            print(f"| {dy} | {dtau} | {methods['spectral_projection']['value']:.8g} | "
                  f"{abs(rep['alpha0'] - finest) / abs(finest):.1e} | "
                  f"{methods['slope_extrapolation']['value']:.8g} | {exps} | "
                  f"{rep['prefactor_check']['estimate']:.6g} | {wall:.2f} |")

    fines = {cbar: report({"cbar": cbar, **FINE})
             for cbar in (0.0, CBAR_CRITICAL, 10.0)}
    print("\n| cbar | run | alpha_0 rel. error | prefactor | prefactor error |\n"
          "|---|---|---|---|---|")
    for cbar, fine in fines.items():
        for name, steps in PARTIAL.items():
            rep = report({"cbar": cbar, **steps})
            pre, fine_pre = rep["prefactor_check"]["estimate"], fine["prefactor_check"]["estimate"]
            print(f"| {cbar:.6g} | {name} | "
                  f"{abs(rep['alpha0'] - fine['alpha0']) / abs(fine['alpha0']):.2e} | "
                  f"{pre:.6g} | {abs(pre - fine_pre):.1e} |")

    print("\n| cbar | quantity | actual | estimate |\n|---|---|---|---|")
    resolved = resolved_runs([{"cbar": cbar} for cbar in fines])
    for (cbar, fine), (_, rep, _, errors) in zip(fines.items(), resolved):
        rows = [("alpha_0", rep["alpha0"], fine["alpha0"], errors["alpha0"])]
        for f, g in zip(rep["fits"], fine["fits"]):
            name = f"{f['observable']}.{f['model']}"
            rows.append((f"{name} exponent", f["exponent"], g["exponent"],
                         errors["exponents"][name]))
        rows.append(("prefactor", rep["prefactor_check"]["estimate"],
                     fine["prefactor_check"]["estimate"], errors["prefactor"]))
        for quantity, a, b, estimate in rows:
            print(f"| {cbar:.6g} | {quantity} | {abs(a - b):.1e} | {estimate:.1e} |")


if __name__ == "__main__":
    main()
