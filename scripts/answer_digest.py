#!/usr/bin/env python3
"""Write a digest of the solver's answers, so two source trees compare by ``diff``.

The digest is one JSON file with three sections:
- ``solves``: per solve, every ``RunTrace.sum_rate`` entry, the final rate
  on the true channels (float hex), ``iterations``, ``converged``, and per
  outer iteration the dual iterations, whether the dual converged, the phase
  step's work, whether it was refused and whether the extrapolated phases
  were kept, so equal digests mean the same answers from the same work. The
  solves are aso, qcr, sdr, discrete-M4, random and none on the desk draws
  of master 5, full-scale qcr and aso at ``max_outer`` 6 on master 1, and
  desk aso and qcr at ``n_starts`` 3 on master 5 (2 seeds), each drawn and
  solved by ``pipeline.solve_realization``.
- ``sweeps``: the ``results.csv`` rows, without ``wall_ms``, of five desk CLI
  sweeps at master 7: ``n_phase_shifts`` {8, 16} with the seven preset
  schemes (3 seeds), ``iterations`` {1, 2, 5, 12} with aso and discrete-M2
  (2 seeds), ``ue_center_x`` {50, 125} with aso and none (2 seeds),
  ``csi_error_rho`` {0, 0.1} with aso (2 seeds) and
  ``reflecting_efficiency`` {0.5, 1} with aso, qcr and random at UE
  positions fixed by the spec's ``geometry.ue_positions`` (3 seeds).
- ``draws``: per channel configuration, sha256 of the ``direct``,
  ``irs_ue`` and ``bs_irs`` bytes of the ``realize_channels(cfg, ..., 3,
  seed)`` draws, of the channel generator's next draw after each, and of
  ``apply_csi_error`` at rho = 0 and 0.1 on each draw.

``--seeds`` caps every seed count above (solves and sweeps) and ``--draws``
sets the number of channel draws per configuration. The package is imported
from ``PYTHONPATH``, so one checkout of the script digests any source tree:

    PYTHONPATH=../parent/src python scripts/answer_digest.py --out parent.json
    PYTHONPATH=src python scripts/answer_digest.py --out change.json
    diff parent.json change.json

For a change meant to move rates at rounding level only,
``--compare parent.json change.json --rtol R`` allows the rates (the solves'
``sum_rate`` and ``final_sum_rate_true``, the sweep rows' ``sum_rate_bits``)
to differ by R relative, and every other field must be equal. A sweep row's
rate is printed to 12 significant digits, so it may also differ by one unit
in its last digit. It prints the largest relative rate difference and exits
0, or prints the first mismatch and exits 1.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from cfirs import channel as chan
from cfirs import expcli, pipeline
from cfirs.config import desk_config, full_config
from cfirs.pipeline import SchemeSpec

DESK_SCHEMES = [SchemeSpec(solver=s) for s in ("aso", "qcr", "sdr")] + [
    SchemeSpec(solver="discrete", levels=4), SchemeSpec(solver="random"),
    SchemeSpec(solver="none")]
PRESET_SCHEMES = [{"solver": "aso"}, {"solver": "qcr"}, {"solver": "sdr"},
                  {"solver": "discrete", "levels": 2}, {"solver": "discrete", "levels": 4},
                  {"solver": "random"}, {"solver": "none"}]
# (sweep, values, schemes, seeds, the spec's geometry block or None)
SWEEPS = [
    ("n_phase_shifts", [8, 16], PRESET_SCHEMES, 3, None),
    ("iterations", [1, 2, 5, 12], [{"solver": "aso"}, {"solver": "discrete", "levels": 2}], 2,
     None),
    ("ue_center_x", [50, 125], [{"solver": "aso"}, {"solver": "none"}], 2, None),
    ("csi_error_rho", [0, 0.1], [{"solver": "aso"}], 2, None),
    ("reflecting_efficiency", [0.5, 1], [{"solver": "aso"}, {"solver": "qcr"}, {"solver": "random"}],
     3, {"ue_positions": [[95.0, 104.0, 1.5], [108.0, 97.0, 1.5]]}),
]


def draw_configs() -> dict:
    return {
        "desk": desk_config(),
        "desk_n32": desk_config(n=32, n_h=4, n_v=8),
        "full": full_config(),
        "r0": desk_config(r=0),
        "rician_1e12": desk_config(beta_g=1e12, beta_s=1e12),
        "rician_0": desk_config(beta_g=0.0, beta_s=0.0),
        "one_link": desk_config(l=1, k=1, r=1),
    }


def _solve_record(trace) -> dict:
    return {
        "sum_rate": [float(x).hex() for x in trace.sum_rate],
        "final_sum_rate_true": float(trace.final_sum_rate_true).hex(),
        "iterations": trace.iterations,
        "converged": bool(trace.converged),
        "dual_iterations": [int(x) for x in trace.dual_iterations],
        "dual_converged": [bool(s.dual_converged) for s in trace.steps],
        "phase_work": [int(s.phase_work) for s in trace.steps],
        "phase_refused": [bool(s.phase_refused) for s in trace.steps],
        "extrapolated": [bool(s.extrapolated) for s in trace.steps],
    }


def solves(seeds: int) -> dict:
    out = {}
    aso, qcr = SchemeSpec(solver="aso"), SchemeSpec(solver="qcr")
    # (name, config, schemes, master seed, starts, seeds)
    panels = [("desk", desk_config(), DESK_SCHEMES, 5, 1, seeds),
              ("full", full_config(max_outer=6), [qcr, aso], 1, 1, seeds),
              ("desk n_starts=3", desk_config(), [aso, qcr], 5, 3, min(2, seeds))]
    for name, cfg, schemes, master, n_starts, n_seeds in panels:
        for seed in range(n_seeds):
            # A pair, or a triple (with wall_ms) in older trees.
            for scheme, trace, *_ in pipeline.solve_realization(
                    cfg, chan.default_geometry(cfg), schemes, master, seed, n_starts=n_starts):
                out[f"{name} {scheme.label} seed {seed}"] = _solve_record(trace)
    return out


def sweeps(seeds: int) -> dict:
    out = {}
    base = dataclasses.asdict(desk_config())
    with tempfile.TemporaryDirectory() as tmp:
        for sweep, values, schemes, n_seeds, geometry in SWEEPS:
            doc = {"base": base, "sweep": sweep, "sweep_values": values, "schemes": schemes,
                   "n_seeds": min(n_seeds, seeds), "master_seed": 7}
            if geometry is not None:
                doc["geometry"] = geometry
            results = expcli.run_spec(expcli.ExperimentSpec.from_dict(doc), Path(tmp) / sweep)
            with results.open(newline="") as fh:
                out[sweep] = [",".join(v for k, v in row.items() if k != "wall_ms")
                              for row in csv.DictReader(fh)]
    return out


def draws(n_draws: int) -> dict:
    out = {}
    for name, cfg in draw_configs().items():
        digests = {key: hashlib.sha256() for key in
                   ("direct", "irs_ue", "bs_irs", "next_draw", "csi_rho_0", "csi_rho_0.1")}
        for seed in range(n_draws):
            # The steps of pipeline.realize_channels, so the generator is at hand.
            rng = np.random.default_rng(pipeline.channel_seed_key(3, seed))
            geometry = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
            channels = chan.sample_channels(cfg, geometry, chan.sample_angles(cfg, rng), rng)
            for family in ("direct", "irs_ue", "bs_irs"):
                digests[family].update(np.ascontiguousarray(getattr(channels, family)).tobytes())
            digests["next_draw"].update(rng.standard_normal(4).tobytes())
            for rho in (0, 0.1):
                est = chan.apply_csi_error(channels, rho, np.random.default_rng(seed))
                for blocks in (est.direct, est.irs_ue, est.bs_irs):
                    digests[f"csi_rho_{rho}"].update(np.ascontiguousarray(blocks).tobytes())
        out[name] = {key: h.hexdigest() for key, h in digests.items()}
    return out


RATE_FIELDS = ("sum_rate", "final_sum_rate_true")
# The digest's sweep rows are the results.csv columns without wall_ms.
SWEEP_RATE = [c for c in expcli.RESULT_COLUMNS if c != "wall_ms"].index("sum_rate_bits")


def _fields(doc: dict):
    """(rates, others) of a digest, each keyed by where the field sits. A
    rate maps to (its float, the absolute slack of its printing)."""
    rates, others = {}, {"draws": doc["draws"]}
    for name, record in doc["solves"].items():
        for field, value in record.items():
            if field in RATE_FIELDS:
                for i, x in enumerate(value if isinstance(value, list) else [value]):
                    rates[f"solves/{name}/{field}/{i}"] = (float.fromhex(x), 0.0)
            else:
                others[f"solves/{name}/{field}"] = value
    for sweep, rows in doc["sweeps"].items():
        for i, row in enumerate(rows):
            cells = row.split(",")
            rate = float(cells.pop(SWEEP_RATE))
            others[f"sweeps/{sweep}/{i}"] = cells
            # One unit in the last digit of "%.12g".
            slack = 10.0 ** (math.floor(math.log10(abs(rate))) - 11) if rate else 0.0
            rates[f"sweeps/{sweep}/{i}/sum_rate_bits"] = (rate, slack)
    return rates, others


def compare(a: dict, b: dict, rtol: float):
    """(first mismatch or None, largest relative rate difference) between
    two digests: rates within ``rtol`` relative, every other field equal."""
    (rates_a, others_a), (rates_b, others_b) = _fields(a), _fields(b)
    for fa, fb in ((others_a, others_b), (rates_a, rates_b)):
        if fa.keys() != fb.keys():
            return f"{sorted(fa.keys() ^ fb.keys())[0]}: in one digest only", math.nan
    for where, x in others_a.items():
        if x != others_b[where]:
            return f"{where}: {x!r} != {others_b[where]!r}", math.nan
    worst = 0.0
    for where, (x, slack) in rates_a.items():
        y = rates_b[where][0]
        scale = max(abs(x), abs(y))
        rel = abs(x - y) / scale if scale else 0.0
        if abs(x - y) > rtol * scale + slack:
            return f"{where}: {x!r} and {y!r} differ by {rel:.3g} relative", worst
        worst = max(worst, rel)
    return None, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="the digest file to write")
    action.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two digest files")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative rate tolerance of --compare")
    parser.add_argument("--seeds", type=int, default=3, help="cap on every seed count")
    parser.add_argument("--draws", type=int, default=40, help="channel draws per configuration")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.draws < 1:
        parser.error("--seeds and --draws must be >= 1")
    if not 0.0 <= args.rtol < math.inf:
        parser.error("--rtol must be >= 0 and finite")
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        mismatch, worst = compare(a, b, args.rtol)
        if mismatch is not None:
            print(f"mismatch: {mismatch}")
            return 1
        print(f"digests agree; largest relative rate difference {worst:.3g}")
        return 0
    doc = {"solves": solves(args.seeds), "sweeps": sweeps(args.seeds), "draws": draws(args.draws)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
