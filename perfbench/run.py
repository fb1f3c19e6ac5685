#!/usr/bin/env python3
"""cfirs benchmark: paired-seed solve throughput, sum rate and per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 30 --trace 0

Workloads (reference.json says why each is here): ``desk_sweep`` and
``full_qcr``, which BENCHMARK.json gates, and ``full_aso`` and ``relax``,
whose solve times follow the channel draw too closely to gate at this run
length. The package is imported from ``src/`` of the checkout that holds
this file, never from an installed copy; without it the command exits with
status 2 and prints no result. BLAS is pinned to one thread before numpy is
imported and everything runs in this one process.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions in spans and reports the per-layer metrics. Either
way every solve's output is checked outside the timed intervals, a summary
with every metric by name and unit is printed, a full record is written to
``.perfbench_out/`` in the checkout, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
# Stop adding units when the next one would end after this many seconds of
# wall time, whatever --seconds asks for, so a run ends well within 180 s.
HARD_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "rate_bits.mean": "bits",
}


def _import_package():
    """Put the checkout's ``src`` first on the path and import cfirs from it."""
    if not (SRC / "cfirs" / "__init__.py").is_file():
        raise ImportError(f"no cfirs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfirs

    if SRC not in Path(cfirs.__file__).resolve().parents:
        raise ImportError(f"cfirs was imported from {cfirs.__file__}, not from {SRC}")
    return cfirs


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_conditions(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure_setup(workload: str) -> list:
    """Wall seconds from spawning a fresh interpreter until it has imported
    numpy and cfirs and built the workload's configs, spec and geometry."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def _tail(samples_ms):
    """(value, label): the highest listed percentile with >= 10 solves beyond
    it, or the maximum when there are too few solves for any of them.

    The listed percentiles need 10000, 500, 100 and 20 solves. They are
    spaced so that the solve counts one workload reaches at a fixed run
    length (desk_sweep: 700 to 1200) never straddle a threshold, which
    would switch the percentile from run to run.
    """
    import numpy as np

    n = len(samples_ms)
    for pct in (99.9, 98.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return float(np.percentile(samples_ms, pct)), f"p{pct:g}"
    return float(max(samples_ms)), "max"


def run_workload(workload, seed: int, seconds: float, tracer=None):
    """Run the panel units, then more units while ``seconds`` last.

    Returns (solves, panel_ids, stats). Every solve goes through a wrapper on
    ``pipeline.joint_optimize`` that times the original call and keeps its
    output until the unit ends; the outputs are then checked and dropped.
    """
    from cfirs import pipeline
    from tracing import NO_SPAN
    from workloads import check_solve

    original = pipeline.joint_optimize
    inner = tracer.wrap(original, "pipeline.joint_optimize") if tracer else original
    pending = []
    counter = [0]

    def joint_optimize(channels, config, scheme, rng, *args, **kwargs):
        sid = counter[0]
        counter[0] += 1
        if tracer:
            tracer.solve = sid
        t0 = time.perf_counter()
        try:
            result = inner(channels, config, scheme, rng, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.solve = NO_SPAN
        pending.append((sid, config, scheme, result, elapsed))
        return result

    solves, panel_ids, unit_s, errors, check_failures = [], set(), [], [], []
    failed = attempted = 0
    start = time.perf_counter()
    pipeline.joint_optimize = joint_optimize
    try:
        index = 0
        while True:
            if index >= workload.panel_units:
                wall = time.perf_counter() - start
                estimate = sum(unit_s) / len(unit_s)
                if wall + estimate > min(seconds, HARD_LIMIT_S):
                    break
            unit = workload.unit(seed, index)
            t0 = time.perf_counter()
            try:
                unit.run()
            except Exception as exc:  # noqa: BLE001 - a failing unit must not end the run
                errors.append(f"{unit.label}: {type(exc).__name__}: {exc}")
            unit_s.append(time.perf_counter() - t0)
            attempted += unit.expected
            failed += max(0, unit.expected - len(pending))
            for sid, config, scheme, result, elapsed in pending:
                problems = check_solve(config, scheme, result)
                if problems:
                    failed += 1
                    check_failures.append(f"{unit.label} solve {sid} ({scheme.label}): {'; '.join(problems)}")
                trace = result[2]
                solves.append({
                    "id": sid,
                    "unit": index,
                    "scheme": scheme.label,
                    "ms": elapsed * 1e3,
                    "rate_bits": trace.final_sum_rate_true / math.log(2.0),
                    "iterations": trace.iterations,
                    "converged": bool(trace.converged),
                    "dual_iters": int(sum(trace.dual_iterations)),
                    "stage_s": dict(trace.stage_seconds),
                })
                if index < workload.panel_units:
                    panel_ids.add(sid)
            pending.clear()
            index += 1
    finally:
        pipeline.joint_optimize = original
    stats = {
        "units": len(unit_s),
        "unit_s": unit_s,
        "measured_s": sum(unit_s),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "check_failures": check_failures,
    }
    return solves, panel_ids, stats


def end_to_end(solves, panel_ids, stats, setup_samples) -> tuple:
    """(metrics, extra): the gated end-to-end metrics and the ones printed
    beside them (per-scheme rates, failure and convergence shares, tail label)."""
    import numpy as np

    times = [s["ms"] for s in solves]
    panel = [s for s in solves if s["id"] in panel_ids]
    tail, tail_label = _tail(times) if times else (0.0, "none")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "solves_per_s": len(solves) / stats["measured_s"] if stats["measured_s"] > 0 else 0.0,
        "solve_ms.p50": float(np.median(times)) if times else 0.0,
        "solve_ms.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rate_bits.mean": float(np.mean([s["rate_bits"] for s in panel])) if panel else 0.0,
    }
    rates = {}
    for s in panel:
        rates.setdefault(s["scheme"], []).append(s["rate_bits"])
    extra = {
        "solve_ms.tail.percentile": tail_label,
        "solve_ms.samples": len(times),
        "failed_frac": stats["failed"] / stats["attempted"] if stats["attempted"] else 1.0,
        "converged_frac": float(np.mean([s["converged"] for s in solves])) if solves else 0.0,
        "panel_solves": len(panel),
        **{f"rate_bits.{label.lower()}": float(np.mean(v)) for label, v in rates.items()},
    }
    return metrics, extra


def _setup_probe(workload: str) -> int:
    import workloads

    workloads.make(workload, OUT / "work").unit(0, 0)
    print(time.monotonic())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args.workload)

    import layers
    from tracing import Tracer

    conditions = run_conditions(args)
    setup_samples = measure_setup(args.workload)
    workload = workloads.make(args.workload, OUT / "work")
    workloads.warm_up()

    tracer = Tracer() if args.trace else None
    if tracer:
        layers.instrument(tracer)
    try:
        solves, panel_ids, stats = run_workload(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.restore()

    e2e, extra = end_to_end(solves, panel_ids, stats, setup_samples)
    record = {
        "conditions": conditions,
        "workload": {"name": workload.name, **workload.describe()},
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "extra": extra,
        "run": stats,
    }
    correct = stats["failed"] == 0 and not stats["errors"]
    if tracer:
        per_layer = layers.metrics(tracer, solves, panel_ids, stats["measured_s"])
        missing = layers.missing_metrics(tracer)
        record.update(per_layer=per_layer, missing=missing)
        # Spans of a solve nest inside its pipeline span, so layer self
        # times must add up to the traced solve time.
        if solves and abs(per_layer["trace.accounted_frac"] - 1.0) > 1e-6:
            correct = False
        reported = {k: (v, layers.PER_LAYER[k]) for k, v in per_layer.items()}
    else:
        reported = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    record["correct"] = correct

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.save(stem.with_suffix(".spans.npz"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(OUT / "work", ignore_errors=True)

    print(f"# cfirs benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"numpy={conditions['numpy']} python={conditions['python']} blas={conditions['blas']} "
          f"nproc={conditions['nproc']} git={conditions['git_sha'][:12]}")
    print(f"# {stats['units']} units, {len(solves)} solves in {stats['measured_s']:.3f} s; "
          f"attempted={stats['attempted']} failed={stats['failed']}")
    for line in stats["errors"] + stats["check_failures"]:
        print(f"# FAILED {line}")
    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")
    if not tracer:
        print(f"# solve_ms.tail is {extra['solve_ms.tail.percentile']} of "
              f"{extra['solve_ms.samples']} solves")
        for name, value in extra.items():
            if name.startswith(("rate_bits.", "failed_frac", "converged_frac")):
                unit = "bits" if name.startswith("rate_bits.") else "ratio"
                print(f"{name} = {value:.6g} {unit}")
    else:
        for name in record["missing"]:
            print(f"# missing: {name} (its function is gone or changed; reported as 0)")
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
