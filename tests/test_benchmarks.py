"""The kernel microbenchmarks still run against the package.

``benchmarks/`` lies outside the test paths, so a renamed or deleted name
that a benchmark uses would otherwise go unnoticed. This runs each benchmark
once, untimed, in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_benchmarks_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
