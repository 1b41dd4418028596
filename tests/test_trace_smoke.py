"""One short traced run of the benchmark per workload.

The tracer binds library names from outside the source (``perfbench/tracer.py``),
so a renamed or deleted function breaks the benchmark, not the library's own
tests.  Each run checks every invocation's output against the benchmark's
reference and must report every per-layer metric that ``BENCHMARK.json``
declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_benchmark_run(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stdout.splitlines()[-2]
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
