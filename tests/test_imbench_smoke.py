"""Smoke test of the benchmark's traced run.

``imbench/tracing.py`` wraps engine functions by module attribute, so a
rename in ``src/`` breaks the traced benchmark without failing any unit
test.  One short traced series of the DTC workload catches that.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_benchmark_run():
    proc = subprocess.run(
        [sys.executable, "imbench/run.py", "--workload", "dtc-disorder",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["observables.temporal_contract.calls"]["value"] >= 1
