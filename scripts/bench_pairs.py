#!/usr/bin/env python3
"""Summarize paired benchmark runs of two checkouts into a BENCH_<n>.json.

A pair is one ``perfbench/run.py --workload W --seed S --trace 0`` run in
each of two checkouts, a parent and a change, at the same seed. Each run
leaves its record in ``<checkout>/.perfbench_out/W-seedS-trace0.json``.
Pairs run in seed order, and ``--first`` names the side that ran first in
the first pair; the sides then alternate.

For each workload the output holds:
- each pair's values of the end-to-end metrics that BENCHMARK.json gates,
  plus ``failed`` and ``attempted``;
- per metric, both sides' medians and quartiles, the relative change of
  the medians and of each pair, and the change's wins and ties;
- per metric, ``within_bound``: the median moved the worse way by no more
  than the metric's bound.

With ``--claim WORKLOAD:METRIC`` it also checks a claimed gain: the change
is better on at least nine pairs in ten, and its median is better by more
than the parent's interquartile range.

Example (each checkout ran the same seeds of both workloads):

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads desk_sweep full_qcr --first parent --out BENCH_23.json
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# Per-run fields of a record's conditions; the rest must agree across runs.
PER_RUN = ("workload", "seed", "git_sha")


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def _records(checkout: Path, workload: str) -> dict:
    """{seed: record} of a checkout's untraced runs of one workload."""
    out = {}
    for path in (checkout / ".perfbench_out").glob(f"{workload}-seed*-trace0.json"):
        seed = int(re.fullmatch(rf"{workload}-seed(\d+)-trace0\.json", path.name).group(1))
        out[seed] = json.loads(path.read_text())
    return out


def _pair_values(record: dict, metrics) -> dict:
    values = {name: _sig(record["end_to_end"][name]) for name in metrics}
    values.update(failed=record["run"]["failed"], attempted=record["run"]["attempted"])
    return values


def _summary(pairs, spec: dict) -> dict:
    """One metric's reading over the pairs; ``spec`` is its BENCHMARK.json entry."""
    name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
    parent = np.array([p["parent"][name] for p in pairs])
    change = np.array([p["change"][name] for p in pairs])
    pq1, pmed, pq3 = np.percentile(parent, [25, 50, 75])
    cq1, cmed, cq3 = np.percentile(change, [25, 50, 75])
    rel = (change - parent) / parent
    gain = sign * (change - parent)
    median_rel = (cmed - pmed) / pmed
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent_median": _sig(pmed), "parent_q1": _sig(pq1), "parent_q3": _sig(pq3),
        "parent_iqr": _sig(pq3 - pq1),
        "change_median": _sig(cmed), "change_q1": _sig(cq1), "change_q3": _sig(cq3),
        "change_iqr": _sig(cq3 - cq1),
        "median_change_rel": _sig(median_rel),
        "pair_change_rel": {k: _sig(f(rel)) for k, f in
                            (("min", np.min), ("median", np.median), ("max", np.max))},
        "wins": int((gain > 0).sum()), "ties": int((gain == 0).sum()), "pairs": len(pairs),
        # The gate: the median moved the worse way by no more than the bound.
        "within_bound": bool(-sign * median_rel <= spec["bound"]),
    }


def _claim_check(summary: dict) -> dict:
    sign = 1.0 if summary["better"] == "higher" else -1.0
    diff = summary["change_median"] - summary["parent_median"]
    return {
        "pairs": summary["pairs"], "wins": summary["wins"], "median_diff": _sig(diff),
        "parent_iqr": summary["parent_iqr"],
        "met": summary["wins"] >= 0.9 * summary["pairs"] and sign * diff > summary["parent_iqr"],
    }


def build(parent: Path, change: Path, workloads, first: str) -> dict:
    """The BENCH document's measured part: conditions and per-workload pairs."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [s["name"] for s in specs]
    doc = {"workloads": {}}
    conditions = None
    for workload in workloads:
        runs = {side: _records(path, workload) for side, path in zip(SIDES, (parent, change))}
        unpaired = sorted(set(runs["parent"]) ^ set(runs["change"]))
        if unpaired:
            raise ValueError(f"{workload}: seeds {unpaired} ran on one side only")
        if not runs["parent"]:
            raise ValueError(f"{workload}: no paired runs")
        seeds = sorted(runs["parent"])
        pairs = []
        for i, seed in enumerate(seeds):
            for side in SIDES:
                cond = {k: v for k, v in runs[side][seed]["conditions"].items() if k not in PER_RUN}
                if conditions is None:
                    conditions = cond
                elif cond != conditions:
                    raise ValueError(f"{workload} seed {seed} ({side}) ran under {cond}, "
                                     f"not {conditions}")
            pairs.append({
                "seed": seed, "first": SIDES[(SIDES.index(first) + i) % 2],
                **{side: _pair_values(runs[side][seed], names) for side in SIDES},
            })
        doc["workloads"][workload] = {
            "seeds": seeds,
            "pairs": pairs,
            "summary": {s["name"]: _summary(pairs, s) for s in specs},
        }
    doc["conditions"] = conditions
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first", choices=SIDES, required=True,
                        help="the side that ran first in the first pair")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="check a claimed gain on this metric")
    parser.add_argument("--parent-rev", default="", help="the parent's revision")
    parser.add_argument("--change-rev", default="", help="the change's revision")
    args = parser.parse_args(argv)

    try:
        measured = build(args.parent, args.change, args.workloads, args.first)
        if args.claim:
            workload, _, metric = args.claim.partition(":")
            claimed = measured["workloads"][workload]["summary"][metric]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = measured["conditions"]["seconds"]
    doc = {
        "claim": f"a gain in {workload} {metric}" if args.claim else "none",
        "parent": args.parent_rev,
        "change": args.change_rev,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "procedure": f"pair i runs seed i in both checkouts, one run at a time; the {args.first} "
                     "runs first in the first pair, and the sides alternate",
        "quartiles": "numpy.percentile, linear interpolation",
        "wins": "pairs where the change is better than the parent by the metric's direction; "
                "ties count for neither",
        "within_bound": "the change's median is worse than the parent's by at most the "
                        "metric's bound in BENCHMARK.json",
        **measured,
    }
    if args.claim:
        doc["claim_check"] = {
            "rule": f"{workload} {metric}: change better on at least 9 of 10 pairs and median "
                    "difference above the parent's interquartile range",
            "all_pairs": _claim_check(claimed),
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: {s['parent_median']:g} -> {s['change_median']:g} "
                  f"(parent IQR {s['parent_iqr']:g}, wins {s['wins']}/{s['pairs']}, "
                  f"within bound: {s['within_bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
