"""Experiment command line: parameter sweeps persisted as CSV.

Subcommands::

    cfirs run <spec.json> [--out DIR] [--threads N] [--seed S]
    cfirs summarize <results.csv> [--out FILE]

The spec file is a single JSON document (see ``ExperimentSpec.from_dict``)
describing the base scenario, one sweep parameter with its values, the
schemes to compare, and the seed count; every sweep value is mapped to its
(config, geometry, schemes) at parse time, so a bad value fails before any
solve. ``pipeline.solve_realization`` runs each (value, realization) unit
and ``pipeline.result_row`` shapes each solve; this module puts the sweep
parameter and value in front. Results land in ``results.csv`` (one row per
(sweep value, scheme, seed)) next to a ``manifest.json`` echoing the
configuration. Exit codes: 0 success, 2 spec/input error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import channel as chan
from . import pipeline
from .channel import Geometry
from .config import SystemConfig
from .pipeline import SchemeSpec

SWEEPS = (
    "iterations",
    "n_phase_shifts",
    "ue_center_x",
    "irs_pathloss_exponent",
    "reflecting_efficiency",
    "csi_error_rho",
    "discrete_levels",
)
INTEGER_SWEEPS = ("iterations", "n_phase_shifts", "discrete_levels")

RESULT_COLUMNS = ("sweep_param", "value") + pipeline.ROW_COLUMNS


class SpecError(ValueError):
    """Raised for anything wrong with an experiment spec or input file."""


def _is_number(x, integral: bool = False) -> bool:
    """Whether x is a JSON number, and a whole one if ``integral``."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return number and (not integral or float(x).is_integer())


@dataclass
class ExperimentSpec:
    base: SystemConfig
    geometry: Geometry
    fixed_ue: bool
    sweep: str
    sweep_values: list
    schemes: list
    n_seeds: int
    master_seed: int
    output_dir: str
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise SpecError("spec root must be a JSON object")
        for key in ("base", "sweep", "sweep_values", "schemes"):
            if key not in doc:
                raise SpecError(f"spec.{key}: required field missing")
        try:
            base = SystemConfig(**doc["base"])
        except (TypeError, ValueError) as exc:
            raise SpecError(f"spec.base: {exc}") from exc
        sweep = doc["sweep"]
        if sweep not in SWEEPS:
            raise SpecError(f"spec.sweep: {sweep!r} is not one of {SWEEPS}")
        values = doc["sweep_values"]
        if not isinstance(values, list) or not values:
            raise SpecError("spec.sweep_values: must be a non-empty list")
        if not isinstance(doc["schemes"], list) or not doc["schemes"]:
            raise SpecError("spec.schemes: must be a non-empty list")
        schemes = []
        for idx, item in enumerate(doc["schemes"]):
            if not isinstance(item, dict):
                raise SpecError(f"spec.schemes[{idx}]: must be an object")
            try:
                schemes.append(SchemeSpec(**item))
            except (TypeError, ValueError) as exc:
                raise SpecError(f"spec.schemes[{idx}]: {exc}") from exc
        labels = [s.label for s in schemes]
        if len(set(labels)) != len(labels):
            raise SpecError("spec.schemes: labels must be unique")
        if sweep == "iterations" and any(s.csi_error_rho > 0 for s in schemes):
            # Its rows read the rate trace, which is taken on the channels
            # optimized, not on the true ones every other sweep reports.
            raise SpecError("spec.schemes: the iterations sweep needs csi_error_rho = 0")
        n_seeds, master_seed = doc.get("n_seeds", 1), doc.get("master_seed", 0)
        if not _is_number(n_seeds, integral=True) or n_seeds < 1:
            raise SpecError("spec.n_seeds: must be an integer >= 1")
        if not _is_number(master_seed, integral=True) or master_seed < 0:
            raise SpecError("spec.master_seed: must be an integer >= 0")
        geometry, fixed_ue = _parse_geometry(doc.get("geometry"), base)
        spec = cls(
            base=base,
            geometry=geometry,
            fixed_ue=fixed_ue,
            sweep=sweep,
            sweep_values=list(values),
            schemes=schemes,
            n_seeds=int(n_seeds),
            master_seed=int(master_seed),
            output_dir=doc.get("output_dir", "results"),
            raw=doc,
        )
        for value in spec.sweep_values:
            try:
                _sweep_config(spec, value)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"spec.sweep_values: {value!r}: {exc}") from exc
        if len(set(spec.sweep_values)) != len(spec.sweep_values):
            raise SpecError("spec.sweep_values: values must be distinct")
        return spec


def _parse_geometry(doc, base: SystemConfig):
    if doc is None:
        return chan.default_geometry(base), False
    if not isinstance(doc, dict):
        raise SpecError("spec.geometry: must be an object")
    try:
        center = float(doc.get("ue_center_x", 100.0))
        radius = float(doc.get("ue_radius", 10.0))
        geo = chan.default_geometry(base, ue_center_x=center, ue_radius=radius)
        bs = np.asarray(doc.get("bs_positions", geo.bs_positions), float)
        irs = np.asarray(doc.get("irs_positions", geo.irs_positions), float)
        fixed_ue = "ue_positions" in doc
        ue = np.asarray(doc.get("ue_positions", geo.ue_positions), float)
        geo = Geometry(
            bs_positions=bs, irs_positions=irs, ue_positions=ue,
            ue_center_x=center, ue_radius=radius,
        )
        geo.validate(base)
        return geo, fixed_ue
    except (TypeError, ValueError) as exc:
        raise SpecError(f"spec.geometry: {exc}") from exc


def _sweep_config(spec: ExperimentSpec, value):
    """(config, geometry, schemes) for one sweep value; ValueError if invalid."""
    if not _is_number(value, integral=spec.sweep in INTEGER_SWEEPS):
        kind = "an integer" if spec.sweep in INTEGER_SWEEPS else "a number"
        raise ValueError(f"{spec.sweep} values must be {kind}")
    base, geometry, schemes = spec.base, spec.geometry, spec.schemes
    if spec.sweep == "iterations":
        if value < 1:
            raise ValueError("iteration caps must be >= 1")
        # One run to the largest cap with the stop rule off; each row is
        # that run cut at its cap.
        horizon = max(int(v) for v in spec.sweep_values)
        return base.with_(max_outer=horizon, eps3=0.0), geometry, schemes
    if spec.sweep == "n_phase_shifts":
        n = int(value)
        n_h = base.n_h if base.n_h >= 1 and n % base.n_h == 0 else 1
        return base.with_(n=n, n_h=n_h, n_v=n // n_h), geometry, schemes
    if spec.sweep == "ue_center_x":
        if spec.fixed_ue:
            raise ValueError("cannot move UEs fixed by geometry.ue_positions")
        return base, dataclasses.replace(geometry, ue_center_x=float(value)), schemes
    if spec.sweep == "irs_pathloss_exponent":
        return base.with_(pathloss_irs=float(value)), geometry, schemes
    if spec.sweep == "reflecting_efficiency":
        return base.with_(alpha=float(value)), geometry, schemes
    if spec.sweep == "csi_error_rho":
        swept = [dataclasses.replace(s, csi_error_rho=float(value)) for s in schemes]
        return base, geometry, swept
    # discrete_levels
    swept = [
        dataclasses.replace(s, levels=int(value)) if s.solver == "discrete" else s
        for s in schemes
    ]
    return base, geometry, swept


def _run_unit(spec: ExperimentSpec, value, seed_index: int):
    """All schemes on one (sweep value, realization) pair -> list of rows:
    ``pipeline.result_row`` with the sweep parameter and value in front. An
    ``iterations`` sweep writes one row per cap, from the trace cut at that
    cap under the base config's stop rule, with the time up to the cap."""
    config, geometry, schemes = _sweep_config(spec, value)
    rows = []
    for scheme, trace, wall_ms in pipeline.solve_realization(
        config, geometry, schemes, spec.master_seed, seed_index, fixed_ue=spec.fixed_ue
    ):
        if spec.sweep == "iterations":
            cuts = (trace.upto(cap, spec.base.eps3) for cap in map(int, spec.sweep_values))
            solves = [(cut.iterations, cut, cut.steps[-1].elapsed * 1e3) for cut in cuts]
        else:
            solves = [(value, trace, wall_ms)]
        rows.extend(dict(sweep_param=spec.sweep, value=v,
                         **pipeline.result_row(scheme, seed_index, t, ms)) for v, t, ms in solves)
    return rows


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def run_spec(spec: ExperimentSpec, out_dir: Path, threads: int = 1) -> Path:
    """Execute the sweep and write results.csv + manifest.json into out_dir."""
    # The iterations sweep solves each realization once, to its largest cap.
    values = spec.sweep_values[:1] if spec.sweep == "iterations" else spec.sweep_values
    unit_values = [v for v in values for _ in range(spec.n_seeds)]
    unit_seeds = list(range(spec.n_seeds)) * len(values)
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_run_unit, itertools.repeat(spec), unit_values, unit_seeds))
    else:
        chunks = list(map(_run_unit, itertools.repeat(spec), unit_values, unit_seeds))
    rows = [row for chunk in chunks for row in chunk]

    value_order = {v: i for i, v in enumerate(spec.sweep_values)}
    scheme_order = {s.label: i for i, s in enumerate(spec.schemes)}
    rows.sort(key=lambda r: (value_order[r["value"]], scheme_order[r["scheme"]], r["seed"]))

    out_dir.mkdir(parents=True, exist_ok=True)
    results = out_dir / "results.csv"
    with results.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in RESULT_COLUMNS])
    manifest = {
        "version": __version__,
        "master_seed": spec.master_seed,
        "sweep": spec.sweep,
        "sweep_values": spec.sweep_values,
        "schemes": [s.label for s in spec.schemes],
        "n_seeds": spec.n_seeds,
        "rows": len(rows),
        "spec": spec.raw,
        "seed_split": "SeedSequence(master, spawn_key=(0, seed)) for channels; "
                      "(1, seed, sha256(label)[:8]) per scheme",
    }
    with (out_dir / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results


def summarize(results_csv: Path, out_path: Path = None) -> Path:
    """Per (sweep value, scheme) mean / standard error -> summary CSV."""
    by_value = {}
    sweep_param = ""
    try:
        fh = open(results_csv, newline="")
    except OSError as exc:
        raise SpecError(f"{results_csv}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "sum_rate_bits" not in reader.fieldnames:
            raise SpecError(f"{results_csv}: missing header with sum_rate_bits column")
        for lineno, row in enumerate(reader, start=2):
            try:
                value, scheme = row["value"], row["scheme"]
                rate = float(row["sum_rate_bits"])
                sweep_param = row["sweep_param"]
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"{results_csv}: row {lineno}: {exc}") from exc
            by_value.setdefault(value, []).append({"scheme": scheme, "sum_rate_bits": rate})
    groups = [
        (value, scheme, stats)
        for value, rows in by_value.items()
        for scheme, stats in pipeline.aggregate(rows).items()
    ]

    def sort_key(group):
        value, scheme, _ = group
        try:
            return (0, float(value), scheme)
        except ValueError:
            return (1, 0.0, scheme)

    if out_path is None:
        out_path = Path(results_csv).with_name("summary.csv")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sweep_param", "value", "scheme", "n_seeds", "mean_sum_rate_bits", "stderr_sum_rate_bits"]
        )
        for value, scheme, stats in sorted(groups, key=sort_key):
            writer.writerow([
                sweep_param, value, scheme, stats["count"],
                _fmt(stats["mean"]), _fmt(stats["stderr"]),
            ])
    return out_path


def run(spec_file, out_dir=None, threads: int = 1, master_seed=None) -> Path:
    """Load and execute a spec file; raises SpecError on bad input."""
    path = Path(spec_file)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"{spec_file}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{spec_file}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if master_seed is not None and isinstance(doc, dict):
        doc = dict(doc, master_seed=int(master_seed))
    spec = ExperimentSpec.from_dict(doc)
    target = Path(out_dir) if out_dir is not None else Path(spec.output_dir)
    return run_spec(spec, target, threads=threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cfirs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("spec", help="path to the JSON experiment spec")
    p_run.add_argument("--out", default=None, help="output directory (overrides spec)")
    p_run.add_argument("--threads", type=int, default=1, help="parallel workers")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sum = sub.add_parser("summarize", help="aggregate a results.csv")
    p_sum.add_argument("results", help="path to results.csv")
    p_sum.add_argument("--out", default=None, help="summary file path")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            results = run(args.spec, out_dir=args.out, threads=args.threads, master_seed=args.seed)
            print(results)
        else:
            out = summarize(Path(args.results), Path(args.out) if args.out else None)
            print(out)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
