"""Self-test of the benchmark's output checks; no solve, a few seconds.

    python3 imbench/selftest.py

Each saved CSV in ``fixtures/`` (one engine run per workload, seed 1) must
pass its workload's checks, and each copy with one planted defect must fail
the clause meant to catch it.  The test also checks that the metric names in
``BENCHMARK.json`` are the ones the benchmark prints.  Exits 0 when all hold.
"""
import json
import os
import sys

import numpy as np

import checks
import run
import tracing

FIXTURES = os.path.join(checks.HERE, "fixtures")
SEED = 1


def shifted(s: checks.Series, k: int, by: float = 1e-3) -> checks.Series:
    v = s.v.copy()
    v[k] += by
    return s._replace(v=v)


def flipped(s: checks.Series, k: int) -> checks.Series:
    v = s.v.copy()
    v[k] = -v[k]
    return s._replace(v=v)


def peak_lost(s: checks.Series, which: int = 1) -> checks.Series:
    """Replace the ``which``-th local maximum, from the minimum before it to
    the minimum after it, by the straight line between those minima."""
    m = s.v.real
    inner = range(1, len(m) - 1)
    peaks = [i for i in inner if m[i] > m[i - 1] and m[i] > m[i + 1]]
    troughs = [i for i in inner if m[i] < m[i - 1] and m[i] < m[i + 1]]
    top = peaks[which]
    lo = max(i for i in troughs if i < top)
    hi = min(i for i in troughs if i > top)
    v = s.v.copy()
    v[lo:hi + 1] = np.linspace(v[lo], v[hi], hi - lo + 1)
    return s._replace(v=v)


# (workload, defect name, defect, tag of the clause that must fail)
DEFECTS = [
    ("floquet-chaotic", "C(2) shifted by 1e-3", lambda s: shifted(s, 2), "ed"),
    ("quench-confined", "m(0.4) shifted by 1e-3", lambda s: shifted(s, 10), "ed"),
    ("quench-confined", "second maximum lost", peak_lost, "maxima"),
    ("dtc-disorder", "C(2) shifted by 1e-3", lambda s: shifted(s, 2), "dense"),
    ("dtc-disorder", "sign of C(20) flipped", lambda s: flipped(s, 20), "sign"),
    ("impurity-fresh", "C(2) shifted by 1e-3", lambda s: shifted(s, 2), "dense"),
]


def check_metric_names() -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bad = []
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", tracing.UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != printed:
            bad.append(f"{key}: BENCHMARK.json declares {declared}, "
                       f"the benchmark prints {printed}")
    return bad


def main() -> int:
    sys.path.insert(0, run.SRC)
    failures = check_metric_names()
    for problem in failures:
        print(f"FAIL metric names: {problem}")
    for name, wl in checks.WORKLOADS.items():
        p = wl.params()
        ref = wl.reference(p)
        saved = checks.read_series(os.path.join(FIXTURES, name + ".csv"))
        clean = checks.check_series(wl, saved, p, ref, SEED)
        ok = not clean
        print(f"{'ok  ' if ok else 'FAIL'} {name}: saved CSV passes {clean}")
        failures += [] if ok else [name]
        for wname, what, defect, tag in DEFECTS:
            if wname != name:
                continue
            found = checks.check_series(wl, defect(saved), p, ref, SEED)
            ok = any(f.startswith(tag + ":") for f in found)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {what} -> {found}")
            failures += [] if ok else [f"{name}: {what}"]
    print("self-test", "passed" if not failures else f"FAILED: {failures}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
