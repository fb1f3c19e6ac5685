"""``scripts/answer_digest.py`` writes one digest of solves, sweep rows and draws."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from cfirs import channel as chan
from cfirs import pipeline
from cfirs.config import desk_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "answer_digest.py"
_spec = importlib.util.spec_from_file_location("answer_digest", SCRIPT)
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)


def test_one_seed_panel(tmp_path):
    out = tmp_path / "digest.json"
    assert answer_digest.main(["--out", str(out), "--seeds", "1", "--draws", "1"]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["solves"]) == sorted(
        [f"desk {label} seed 0" for label in ("ASO", "QCR", "SDR", "DISCRETE-M4", "RANDOM", "NONE")]
        + ["full QCR seed 0", "full ASO seed 0"])
    # The record is the solve's own trace, at float hex.
    cfg = desk_config()
    scheme = pipeline.SchemeSpec(solver="aso")
    channels = pipeline.realize_channels(cfg, chan.default_geometry(cfg), 5, 0)
    rng = np.random.default_rng(pipeline.scheme_seed_key(5, 0, scheme.label))
    trace = pipeline.joint_optimize(channels, cfg, scheme, rng)[2]
    record = doc["solves"]["desk ASO seed 0"]
    assert [float.fromhex(x) for x in record["sum_rate"]] == trace.sum_rate
    assert float.fromhex(record["final_sum_rate_true"]) == trace.final_sum_rate_true
    assert (record["iterations"], record["converged"]) == (trace.iterations, trace.converged)
    assert record["dual_iterations"] == trace.dual_iterations
    # The work of every step: the dual, the phase step and the extrapolation.
    for name in ("dual_converged", "phase_work", "phase_refused", "extrapolated"):
        assert record[name] == [getattr(s, name) for s in trace.steps], name
    assert sum(record["phase_work"]) > 0 and any(record["extrapolated"])
    full = doc["solves"]["full QCR seed 0"]
    assert full["iterations"] == len(full["dual_iterations"]) <= 6
    # One seed per sweep: n_phase_shifts 2 values x 7 schemes, iterations
    # 4 caps x 2 schemes, ue_center_x 2 x 2, csi_error_rho 2 x 1; no wall_ms.
    assert {k: len(v) for k, v in doc["sweeps"].items()} == {
        "n_phase_shifts": 14, "iterations": 8, "ue_center_x": 4, "csi_error_rho": 2}
    assert doc["sweeps"]["csi_error_rho"][0].split(",")[:4] == ["csi_error_rho", "0", "ASO", "0"]
    assert all(len(row.split(",")) == 7 for rows in doc["sweeps"].values() for row in rows)
    assert sorted(doc["draws"]) == sorted(answer_digest.draw_configs())
    for digests in doc["draws"].values():
        assert sorted(digests) == ["bs_irs", "csi_rho_0", "csi_rho_0.1", "direct", "irs_ue",
                                   "next_draw"]
    # Draws with no IRS have empty IRS families; the others differ by config.
    empty = hashlib.sha256(b"").hexdigest()
    assert doc["draws"]["r0"]["irs_ue"] == doc["draws"]["r0"]["bs_irs"] == empty
    assert len({d["direct"] for d in doc["draws"].values()}) > 1
