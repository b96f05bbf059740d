"""Smoke tests of the benchmark's traced runs.

``imbench/tracing.py`` wraps engine functions by module attribute, so a
rename in ``src/`` breaks the traced benchmark without failing any unit
test, and a refactor that calls around a wrapped name leaves its layer
reading 0.  One short traced series of the DTC workload, and one of the
fresh impurity series that grows its IMs, catch both.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_metrics(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "imbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_benchmark_run():
    metrics = _traced_metrics("dtc-disorder")
    # every layer the tracer wraps on this path saw the run: a refactor that
    # routes around a wrapper reads 0 here
    for name in ("observables.temporal_contract.calls",
                 "mps.apply_mpo_zipup.calls", "tensor.svd_truncate.calls",
                 "influence.disorder_apply.s"):
        assert metrics[name] > 0, name


def test_traced_fresh_impurity_run():
    """The grown route: the CLI calls the wrapped library series, the
    impurity slice and the zip-up on every step."""
    metrics = _traced_metrics("impurity-fresh")
    for name in ("observables.series.s", "influence.impurity_im.s",
                 "mps.apply_mpo_zipup.calls"):
        assert metrics[name] > 0, name
