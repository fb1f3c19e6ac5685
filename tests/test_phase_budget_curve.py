"""``scripts/phase_budget_curve.py`` solves its panel at each budget it sets."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import pipeline
from cfirs.config import desk_config
from cfirs.pipeline import SchemeSpec

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "phase_budget_curve.py"
_spec = importlib.util.spec_from_file_location("phase_budget_curve", SCRIPT)
curve = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(curve)

TINY = ["--desk-sizes", "8", "--desk-masters", "1", "--desk-seeds", "1", "--full-seeds", "0"]


def test_one_tiny_draw(tmp_path, monkeypatch):
    budget = pipeline.ASO_BUDGET + 1
    out = tmp_path / "curve.json"
    assert curve.main(["aso", "--budgets", str(budget), *TINY, "--out", str(out)]) == 0
    # The constant is back at its value once the run ends.
    assert pipeline.ASO_BUDGET == budget - 1
    (run,) = json.loads(out.read_text())["runs"]
    assert run["budget"] == budget
    (draw,) = run["draws"]
    assert (draw["panel"], draw["master"], draw["seed"]) == ("desk n=8", 1, 0)
    # The record is the solve of the desk_sweep panel at that budget.
    monkeypatch.setattr(pipeline, "ASO_BUDGET", budget)
    cfg = desk_config(n=8, n_h=4, n_v=2)
    ((_, trace),) = pipeline.solve_realization(
        cfg, chan.default_geometry(cfg), [SchemeSpec(solver="aso")], 1, 0)
    assert draw["bits"] == trace.final_sum_rate_true / np.log(2.0)
    assert draw["work"] == sum(s.phase_work for s in trace.steps) <= budget * trace.iterations
    assert (draw["iterations"], draw["capped"]) == (trace.iterations, not trace.converged)
    assert run["summary"]["desk n=8"]["solves"] == 1

    # Without --budgets the library runs at its own budget; against the run
    # above as the baseline, the one draw counts as higher, lower or tied.
    again = tmp_path / "again.json"
    assert curve.main(["aso", *TINY, "--baseline", str(out), "--out", str(again)]) == 0
    (run,) = json.loads(again.read_text())["runs"]
    row = run["summary"]["desk n=8"]
    assert run["budget"] is None
    assert row["higher"] + row["lower"] <= 1
    assert row["mean_change"] == run["draws"][0]["bits"] - draw["bits"]


def test_solver_without_a_budget_exits_2():
    with pytest.raises(SystemExit) as exc:
        curve.main(["sdr", "--budgets", "2", *TINY])
    assert exc.value.code == 2
