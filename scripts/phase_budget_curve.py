#!/usr/bin/env python3
"""Measure one phase solver's rate and time against its per-iteration budget.

For each budget the script sets the module constant
``pipeline.<SOLVER>_BUDGET`` in this process (the library has no flag for
it) and solves, with the solver's scheme and its ``scheme_seed_key``
generator:
- the desk panel of perfbench's ``desk_sweep``: ``desk_config()`` at 8, 16
  and 32 elements per surface (as the CLI's ``n_phase_shifts`` sweep maps
  them), masters 1 and 1000001, 12 seeds each;
- ``--full-seeds`` full-scale draws (``full_config()``) of each
  ``--full-masters`` master.

Each draw is ``realize_channels(cfg, default_geometry(cfg), master, seed)``.
Per draw it prints the final rate on the true channels (bits), the solve's
wall time, the phase work summed over the outer iterations (sweeps, FISTA
steps or SDR solves), the outer iterations and whether the solve hit
``max_outer``. Run as a script, BLAS runs at one thread, as in perfbench.

Without ``--budgets`` the library runs as it is, so one checkout of the
script measures a tree that lacks the constant:

    PYTHONPATH=../parent/src python scripts/phase_budget_curve.py aso --out parent.json
    PYTHONPATH=src python scripts/phase_budget_curve.py aso --budgets 1 2 3 5 10 \\
        --baseline parent.json --out curve.json

With ``--baseline`` each budget's summary also compares its rates, draw by
draw, with the first run in that file: the draws higher and lower, the
worst loss and the mean change.
"""

import os

if __name__ == "__main__":
    # Before numpy loads; an import (the tests) leaves the environment alone.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from cfirs import channel as chan
from cfirs import pipeline
from cfirs.config import desk_config, full_config
from cfirs.pipeline import SchemeSpec


def panels(args) -> list:
    """(panel name, config, master, seed) of every draw, in run order."""
    base = desk_config()
    out = []
    for n in args.desk_sizes:
        n_h = base.n_h if n % base.n_h == 0 else 1
        cfg = base.with_(n=n, n_h=n_h, n_v=n // n_h)
        out += [(f"desk n={n}", cfg, m, s)
                for m in args.desk_masters for s in range(args.desk_seeds)]
    full = full_config()
    out += [("full", full, m, s) for m in args.full_masters for s in range(args.full_seeds)]
    return out


def solve(cfg, scheme, master: int, seed: int) -> dict:
    ((_, trace),) = pipeline.solve_realization(
        cfg, chan.default_geometry(cfg), [scheme], master, seed)
    return {
        "bits": trace.final_sum_rate_true / np.log(2.0),
        "ms": trace.wall_s * 1e3,
        "work": sum(s.phase_work for s in trace.steps),
        "iterations": trace.iterations,
        "capped": not trace.converged,
    }


def run(args, scheme, budget) -> list:
    name = f"{scheme.solver.upper()}_BUDGET"
    old = getattr(pipeline, name, None)
    if budget is not None:
        setattr(pipeline, name, budget)
    try:
        draws = []
        for panel, cfg, master, seed in panels(args):
            rec = dict(panel=panel, master=master, seed=seed, **solve(cfg, scheme, master, seed))
            print(f"{budget!s:>6} {panel:>10} {master:>8} {seed:>3}  {rec['bits']:.6f} bits  "
                  f"{rec['ms']:9.1f} ms  work {rec['work']:5d}  iters {rec['iterations']:3d}"
                  f"{'  capped' if rec['capped'] else ''}", flush=True)
            draws.append(rec)
        return draws
    finally:
        if budget is not None:
            setattr(pipeline, name, old)


def summary(draws, baseline=None) -> dict:
    """Per panel: mean rate, summed time, mean work and iterations, capped
    solves, and against ``baseline`` (draws of the same keys) the draws
    higher and lower, the worst loss and the mean change in bits."""
    base = {(d["panel"], d["master"], d["seed"]): d["bits"] for d in baseline or []}
    out = {}
    for panel in dict.fromkeys(d["panel"] for d in draws):
        group = [d for d in draws if d["panel"] == panel]
        row = {
            "solves": len(group),
            "bits_mean": float(np.mean([d["bits"] for d in group])),
            "ms_total": float(sum(d["ms"] for d in group)),
            "work_mean": float(np.mean([d["work"] for d in group])),
            "iterations_mean": float(np.mean([d["iterations"] for d in group])),
            "capped": sum(d["capped"] for d in group),
        }
        diffs = [float(d["bits"] - base[k]) for d in group
                 if (k := (d["panel"], d["master"], d["seed"])) in base]
        if diffs:
            row.update(higher=sum(x > 0 for x in diffs), lower=sum(x < 0 for x in diffs),
                       worst=float(min(diffs)), mean_change=float(np.mean(diffs)))
        out[panel] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("solver", choices=("aso", "qcr", "sdr"))
    parser.add_argument("--budgets", type=int, nargs="*", default=[],
                        help="budgets to set (none: run the library as it is)")
    parser.add_argument("--desk-sizes", type=int, nargs="*", default=[8, 16, 32])
    parser.add_argument("--desk-masters", type=int, nargs="*", default=[1, 1_000_001])
    parser.add_argument("--desk-seeds", type=int, default=12)
    parser.add_argument("--full-masters", type=int, nargs="*", default=[5, 7])
    parser.add_argument("--full-seeds", type=int, default=8)
    parser.add_argument("--baseline", type=Path, help="an earlier --out file to compare with")
    parser.add_argument("--out", type=Path, help="write every run's draws and summary as JSON")
    args = parser.parse_args(argv)
    scheme = SchemeSpec(solver=args.solver)
    name = f"{args.solver.upper()}_BUDGET"
    if args.budgets and not hasattr(pipeline, name):
        parser.error(f"this cfirs has no pipeline.{name} to set")
    if any(b < 1 for b in args.budgets) or min(args.desk_seeds, args.full_seeds) < 0:
        parser.error("budgets must be >= 1 and seed counts >= 0")
    baseline = json.loads(args.baseline.read_text())["runs"][0]["draws"] if args.baseline else None
    # Lazy set-up inside numpy and the package happens before any timing.
    warm = desk_config(n=4, n_h=2, n_v=2, max_outer=2)
    solve(warm, scheme, 0, 0)
    runs = []
    for budget in args.budgets or [None]:
        draws = run(args, scheme, budget)
        runs.append({"budget": budget, "summary": summary(draws, baseline), "draws": draws})
        print(json.dumps({"budget": budget, "summary": runs[-1]["summary"]}, indent=1), flush=True)
    if args.out:
        args.out.write_text(json.dumps({"solver": args.solver, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
