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


def _digest(rates=(4.5, 4.9), row_rate="4.92000000001", work=3, draws="ab"):
    """A synthetic digest: one solve, one sweep row and one draw."""
    return {
        "solves": {"desk ASO seed 0": {
            "sum_rate": [float(x).hex() for x in rates],
            "final_sum_rate_true": float(rates[-1]).hex(),
            "iterations": len(rates) - 1, "phase_work": [work]}},
        "sweeps": {"n_phase_shifts": [f"n_phase_shifts,8,ASO,0,{row_rate},1,true"]},
        "draws": {"desk": {"direct": draws}},
    }


def _compare(tmp_path, a, b, *rtol):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    return answer_digest.main(["--compare", *paths, *(["--rtol", rtol[0]] if rtol else [])])


def test_compare_within_tolerance(tmp_path, capsys):
    base = _digest()
    assert _compare(tmp_path, base, base) == 0
    # Rates 2.9e-15 apart agree at rtol 1e-12 and not exactly.
    near = _digest(rates=(4.5, 4.9 + 2.0 ** -46))
    assert _compare(tmp_path, base, near, "1e-12") == 0
    assert "largest relative rate difference 2.9e-15" in capsys.readouterr().out
    assert _compare(tmp_path, base, near) == 1
    assert "mismatch: solves/desk ASO seed 0/sum_rate/1" in capsys.readouterr().out
    assert _compare(tmp_path, base, _digest(rates=(4.5, 4.9 * (1 + 1e-10))), "1e-12") == 1
    # A sweep row's rate is printed to 12 digits: its last digit may move.
    assert _compare(tmp_path, base, _digest(row_rate="4.92000000002"), "1e-12") == 0
    assert _compare(tmp_path, base, _digest(row_rate="4.92000000004"), "1e-12") == 1
    assert "sweeps/n_phase_shifts/0/sum_rate_bits" in capsys.readouterr().out
    # Every other field must be equal, at any tolerance.
    for other in (_digest(work=4), _digest(draws="cd"), _digest(rates=(4.5, 4.9, 4.9))):
        assert _compare(tmp_path, base, other, "1") == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "mismatch: solves/desk ASO seed 0/sum_rate/2: in one digest only")
