"""The kernel microbenchmarks and the benchmark's self-tests still run
against the package.

``benchmarks/`` and ``perfbench/`` lie outside the test paths, so a renamed
or deleted name, or a changed return type, that either uses would otherwise
go unnoticed. Each suite runs once, in a fresh interpreter; the kernel
benchmarks run untimed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_pytest(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def test_kernel_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    _run_pytest("benchmarks", "--benchmark-disable")


def test_perfbench_self_tests_run():
    _run_pytest("perfbench")
