"""Self-tests of the benchmark: determinism, wrapper hygiene, contract files.

Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()  # cfirs from this checkout's src, as the benchmark imports it

import layers  # noqa: E402
import workloads  # noqa: E402
from cfirs import irs_opt, model, pipeline, tx_opt  # noqa: E402
from tracing import Tracer  # noqa: E402

COUNTS = (
    "irs_opt.aso_sweeps", "irs_opt.discrete_sweeps", "tx_opt.dual_iters", "tx_opt.form_solves",
    "irs_opt.qcr_iters", "pipeline.outer_iters", "irs_opt.cmcqp_bytes",
)


def _panel_run(name, tmp_path, seed=3):
    workload = workloads.make(name, tmp_path, tiny=True)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        solves, panel_ids, stats = run.run_workload(workload, seed, 0.0, tracer)
    finally:
        tracer.restore()
    e2e, extra = run.end_to_end(solves, panel_ids, stats, [1.0])
    per_layer = layers.metrics(tracer, solves, panel_ids, stats["measured_s"])
    return e2e, extra, per_layer, stats


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rates_and_counts_repeat_exactly(name, tmp_path):
    first = _panel_run(name, tmp_path / "a")
    second = _panel_run(name, tmp_path / "b")
    for e2e, extra, per_layer, stats in (first, second):
        assert stats["failed"] == 0 and not stats["errors"]
        assert per_layer["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    rates = {k: v for k, v in first[1].items() if k.startswith("rate_bits.")}
    assert rates == {k: v for k, v in second[1].items() if k.startswith("rate_bits.")}
    assert first[0]["rate_bits.mean"] == second[0]["rate_bits.mean"]
    counts = [k for k, unit in layers.PER_LAYER.items() if unit in ("count", "bytes", "ratio")]
    assert set(COUNTS) <= set(counts)
    counts.remove("trace.spans")  # counts every span of a run, not only the panel's
    counts.remove("trace.accounted_frac")
    assert {k: first[2][k] for k in counts} == {k: second[2][k] for k in counts}
    assert first[2]["pipeline.outer_iters"] > 0


def test_tiny_relax_exercises_both_relaxations(tmp_path):
    _, extra, per_layer, _ = _panel_run("relax", tmp_path)
    assert per_layer["irs_opt.qcr_solve.calls"] > 0 and per_layer["irs_opt.sdr_solve.calls"] > 0
    assert set(extra) >= {"rate_bits.sdr", "rate_bits.qcr"}


def test_wrappers_are_restored():
    before = (pipeline.joint_optimize, model.sinr, irs_opt.aso_solve, vars(tx_opt.QuadraticForm)["solve"])
    tracer = Tracer()
    layers.instrument(tracer)
    assert model.sinr is not before[1]
    tracer.restore()
    after = (pipeline.joint_optimize, model.sinr, irs_opt.aso_solve, vars(tx_opt.QuadraticForm)["solve"])
    assert after == before


def test_missing_layer_function_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(irs_opt, "discrete_sweep")
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        solves, panel_ids, stats = run.run_workload(
            workloads.make("full_aso", tmp_path, tiny=True), 1, 0.0, tracer)
    finally:
        tracer.restore()
    assert stats["failed"] == 0
    missing = layers.missing_metrics(tracer)
    assert {"irs_opt.discrete_sweep.ms", "irs_opt.discrete_sweeps"} <= set(missing)
    assert layers.metrics(tracer, solves, panel_ids, stats["measured_s"])["irs_opt.aso_sweeps"] > 0


def test_hook_that_cannot_read_a_result_marks_metrics_missing():
    tracer = Tracer()
    traced = tracer.wrap(lambda x: x + 1, "irs_opt.aso_solve",
                         hook=lambda args, kwargs, out: {"sweeps": len(out[1]) - 1})
    assert traced(1) == 2
    assert "irs_opt.aso_sweeps" in layers.missing_metrics(tracer)


def test_failed_check_counts_and_run_continues(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "check_solve", lambda config, scheme, result: ["forced"])
    solves, _, stats = run.run_workload(workloads.make("desk_sweep", tmp_path, tiny=True), 1, 0.0)
    assert stats["failed"] == stats["attempted"] == len(solves) == 4


def test_contract_files_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    reference = json.loads((HERE / "reference.json").read_text())
    assert set(reference["workloads"]) == set(workloads.WORKLOADS)
    mapped = {m for row in reference["layer_map"] for m in row["metrics"]}
    assert mapped <= set(layers.PER_LAYER)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
