"""The kernel microbenchmarks and the benchmark's self-tests still run
against the package.

``benchmarks/`` and ``perfbench/`` lie outside the test paths, so a renamed
or deleted name, or a changed return type, that either uses would otherwise
go unnoticed. Each suite runs once, in a fresh interpreter; the kernel
benchmarks run untimed. The benchmark's instrumentation is also checked on
its own, without a workload, for per-layer metrics it can no longer read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# The per-layer metrics the instrumentation already reports missing: their
# functions (fp_core.update_y, fp_core.eval_f3) left the package before this
# guard existed.
KNOWN_MISSING = {
    "fp_core.update_y.us", "fp_core.update_y.calls",
    "fp_core.eval_f3.ms", "fp_core.eval_f3.calls",
}

_MISSING_METRICS = """
import json
import layers
from tracing import Tracer
tracer = Tracer()
layers.instrument(tracer)
tracer.restore()
print(json.dumps(layers.missing_metrics(tracer)))
"""

_FULL_PRESET_MATCHES = """
import workloads
from cfirs.config import SystemConfig, full_config
print(SystemConfig(**workloads.FULL_BASE) == full_config())
"""


def _run(*args, path=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), *path, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return done.stdout


def _run_pytest(*args):
    _run("-m", "pytest", *args, "-q", "-p", "no:cacheprovider")


def test_kernel_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    _run_pytest("benchmarks", "--benchmark-disable")


def test_perfbench_self_tests_run():
    _run_pytest("perfbench")


def test_benchmark_reads_every_per_layer_metric():
    # A renamed or deleted package function that a per-layer metric reads
    # would turn that metric into a silent 0 in every benchmark run.
    out = _run("-c", _MISSING_METRICS, path=(str(ROOT / "perfbench"),))
    missing = json.loads(out.strip().splitlines()[-1])
    assert set(missing) <= KNOWN_MISSING, sorted(set(missing) - KNOWN_MISSING)


def test_benchmark_full_preset_is_full_config():
    # The benchmark keeps its own copy of the full-scale preset; a change to
    # either copy alone would make the full-scale workloads measure another
    # scenario than the package's full_config.
    out = _run("-c", _FULL_PRESET_MATCHES, path=(str(ROOT / "perfbench"),))
    assert out.strip().splitlines()[-1] == "True"
