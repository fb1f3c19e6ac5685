#!/usr/bin/env python3
"""Build and run one of the preset experiment sweeps.

Each preset writes an experiment spec (JSON) into the output directory and
executes it through the cfirs CLI machinery, producing results.csv,
summary.csv, and manifest.json. Presets mirror the trend studies of the
full-scale scenario at desk scale; use --full for the large configuration
(six BSs, three 60-element IRSs, four UEs) if you have the patience.

Examples:
    python scripts/run_sweep.py phase_shifts --seeds 20 --out results/fig_n
    python scripts/run_sweep.py csi_error --seeds 10
    python scripts/run_sweep.py convergence --full --threads 4
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from cfirs import expcli
from cfirs.config import desk_config, full_config

ALL_SCHEMES = [
    {"solver": "aso"},
    {"solver": "qcr"},
    {"solver": "sdr"},
    {"solver": "discrete", "levels": 2},
    {"solver": "discrete", "levels": 4},
    {"solver": "random"},
    {"solver": "none"},
]

PRESETS = {
    "convergence": {
        "sweep": "iterations",
        "sweep_values": [1, 2, 3, 5, 8, 12, 20, 30],
        "schemes": [{"solver": "aso"},
                    {"solver": "discrete", "levels": 2},
                    {"solver": "discrete", "levels": 4}],
    },
    "phase_shifts": {
        "sweep": "n_phase_shifts",
        "sweep_values": [8, 16, 32, 64],
        "schemes": ALL_SCHEMES,
    },
    "ue_location": {
        "sweep": "ue_center_x",
        "sweep_values": [50, 75, 100, 125, 150],
        "schemes": [{"solver": "aso"}, {"solver": "random"}, {"solver": "none"}],
    },
    "pathloss": {
        "sweep": "irs_pathloss_exponent",
        "sweep_values": [2.2, 2.5, 2.8, 3.1, 3.4],
        "schemes": [{"solver": "aso"}, {"solver": "random"}, {"solver": "none"}],
    },
    "efficiency": {
        "sweep": "reflecting_efficiency",
        "sweep_values": [0.2, 0.4, 0.6, 0.8, 1.0],
        "schemes": [{"solver": "aso"}, {"solver": "random"}, {"solver": "none"}],
    },
    "csi_error": {
        "sweep": "csi_error_rho",
        "sweep_values": [0.0, 0.02, 0.05, 0.1, 0.2],
        "schemes": [{"solver": "aso"}],
    },
    "discrete_levels": {
        "sweep": "discrete_levels",
        "sweep_values": [2, 4, 8, 16],
        "schemes": [{"solver": "discrete", "levels": 2}, {"solver": "aso"}],
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("preset", choices=sorted(PRESETS))
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--master-seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--full", action="store_true", help="full-scale scenario")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args()

    out_dir = Path(args.out) if args.out else Path("results") / args.preset
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "base": dataclasses.asdict(full_config() if args.full else desk_config()),
        "n_seeds": args.seeds,
        "master_seed": args.master_seed,
        "output_dir": str(out_dir),
        **PRESETS[args.preset],
    }
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"spec: {spec_path}")

    results = expcli.run(spec_path, threads=args.threads)
    print(f"results: {results}")
    summary = expcli.summarize(results)
    print(f"summary: {summary}")
    print(summary.read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
