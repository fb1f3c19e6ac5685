"""``scripts/bench_pairs.py`` reads paired benchmark records into a BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

CONDITIONS = {"python": "3.11", "numpy": "2.0", "blas": "openblas", "blas_threads": "1",
              "nproc": 2, "cpu_count": 2, "machine": "x86_64", "seconds": 55.0, "trace": 0}


def _write(checkout, workload, seed, speed, rss, failed=0):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "conditions": dict(CONDITIONS, workload=workload, seed=seed, git_sha="unknown"),
        "end_to_end": {"setup_s": 0.2, "solves_per_s": speed, "solve_ms.p50": 1e3 / speed,
                       "solve_ms.tail": 2e3 / speed, "peak_rss_mb": rss, "rate_bits.mean": 4.9},
        "run": {"failed": failed, "attempted": 100},
    }
    (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_pairs_summary_and_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        _write(parent, "desk_sweep", seed, 80.0 + seed, 40.0)
        # Faster on nine pairs, slower on one; 20 % more memory on every pair.
        _write(change, "desk_sweep", seed, (80.0 + seed) * (0.9 if seed == 3 else 1.5), 48.0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workloads",
                             "desk_sweep", "--first", "parent", "--out", str(out),
                             "--claim", "desk_sweep:solves_per_s"]) == 0
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["desk_sweep"]
    assert entry["seeds"] == list(range(1, 11))
    assert [p["first"] for p in entry["pairs"][:3]] == ["parent", "change", "parent"]
    assert entry["pairs"][0]["parent"]["attempted"] == 100
    speed = entry["summary"]["solves_per_s"]
    assert (speed["wins"], speed["ties"], speed["pairs"]) == (9, 0, 10)
    assert speed["parent_median"] == 85.5 and speed["parent_iqr"] == 4.5
    assert speed["within_bound"]
    assert entry["summary"]["solve_ms.p50"]["wins"] == 9
    assert entry["summary"]["rate_bits.mean"]["ties"] == 10
    rss = entry["summary"]["peak_rss_mb"]
    assert rss["median_change_rel"] == pytest.approx(0.2) and not rss["within_bound"]
    assert doc["claim_check"]["all_pairs"]["met"]
    assert doc["conditions"] == CONDITIONS


def test_unpaired_run_or_unknown_claim_exits_2(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write(parent, "full_qcr", seed, 8.0, 42.0)
    _write(change, "full_qcr", 1, 8.0, 42.0)
    argv = ["--parent", str(parent), "--change", str(change), "--workloads", "full_qcr",
            "--first", "change", "--out", str(tmp_path / "BENCH.json")]
    assert bench_pairs.main(argv) == 2
    assert "seeds [2]" in capsys.readouterr().err
    _write(change, "full_qcr", 2, 8.0, 42.0)
    assert bench_pairs.main(argv + ["--claim", "full_qcr:solve_ms"]) == 2
    assert bench_pairs.main(argv) == 0
