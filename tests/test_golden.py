"""Golden outputs: the four benchmark workloads at seed 1 and a shrunk copy
of each bundled config (plus an ``entropy-scan`` over ``T_list`` with
``eps_kick``), rerun through ``cli.main`` and compared with the CSVs and
manifest ``"solves"`` blocks stored in ``tests/golden/``.

Text columns must match exactly.  Value columns may move by at most the
absolute bound given for their config below.  The bounds come from measured
sensitivity, and each is about ten times the largest move.  For the
workloads, a change of BLAS summation order moved the three converged ones
by at most 1e-14, and the stalled ``floquet-chaotic`` solve, which amplifies
round-off, by 6.6e-12 in C, 3.7e-9 in the entropies and 1.3e-7 in
``discarded_weight``.  The shrunk configs do not move under a change of BLAS
thread count; their bounds come from two other perturbations, gesvd instead
of gesdd in ``tensor._svd`` and ``h`` raised by one ulp.

A change that moves values on purpose regenerates the files in the same
commit, from the root of a checkout::

    PYTHONPATH=src python tests/test_golden.py

and quotes the per-column maxima this test prints on failure.  A change that
must move no value checks that it moves no byte either::

    PYTHONPATH=src python tests/test_golden.py --check

regenerates every config into a temporary directory, compares each file
with ``tests/golden/`` byte for byte, prints ``identical`` or ``moved`` per
file (a file on one side only counts as moved) and exits 1 on any move.  A
moved CSV or ``solves.json`` also gets the largest |new - old| of every
column (CSV) or field (``solves.json``) that moved, so a named value change
can be quoted from this one command.
"""
import filecmp
import json
import math
import os
import sys
import tempfile

import pytest

from temporal_im import cli

from helpers import cut_spy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CONFIGS = ("floquet-chaotic", "quench-confined", "dtc-disorder",
           "impurity-fresh", "fig2-small", "fig3-small", "fig4-small",
           "fig5-small", "entropy-dtc")
TEXT_COLUMNS = ("abscissa", "chi", "eps", "boundary", "seed")

# converged solves: BLAS order moved every column by <= 1e-14
_CONVERGED = {"value_re": 1e-13, "value_im": 1e-13, "entropy_halfcut": 1e-13,
              "entropy_max": 1e-13, "discarded_weight": 1e-13}
# converged disorder-averaged solves: the trace residual, which shares the
# entropies' bound, moved by <= 2.1e-14
_CONVERGED_DTC = dict(_CONVERGED, entropy_halfcut=2e-13, entropy_max=2e-13)
BOUNDS = {
    # stalled solve: BLAS order moved C by 6.6e-12, the entropies by 3.7e-9
    # and discarded_weight (values up to 8.5) by 1.3e-7
    "floquet-chaotic": {"value_re": 1e-10, "value_im": 1e-10,
                        "entropy_halfcut": 5e-8, "entropy_max": 5e-8,
                        "discarded_weight": 2e-6},
    "quench-confined": _CONVERGED,
    "dtc-disorder": _CONVERGED,
    "impurity-fresh": _CONVERGED,
    # stalled open-boundary solves: C moved by 1.4e-12, the entropies by
    # 5.5e-10 and discarded_weight by 1.3e-10; every other column <= 1e-14
    "fig2-small": {"value_re": 2e-11, "value_im": 2e-11,
                   "entropy_halfcut": 5e-9, "entropy_max": 5e-9,
                   "discarded_weight": 2e-9},
    "fig3-small": _CONVERGED,
    "fig4-small": _CONVERGED,
    "fig5-small": _CONVERGED_DTC,
    "entropy-dtc": _CONVERGED_DTC,
}
# manifest "solves" fields; the floats share their CSV counterpart's bound
# (the final deficit and the trace residual share the entropies')
SOLVE_COUNTS = ("solves", "converged", "max_iterations")
SOLVE_FLOATS = {"max_final_deficit": "entropy_max",
                "max_trace_residual": "entropy_max",
                "discarded_weight": "discarded_weight"}
# ...except where a field has a bound of its own: dtc-disorder's trace
# residual moved by 5.4e-14 under gesvd, 4.6e-14 under two BLAS threads and
# 3.5e-14 under h + 1 ulp; quench-confined's, with its cap-bound steps
# fitted, by 2.4e-13 under gesvd and 1.1e-14 to 7.7e-14 under J, g or
# h + 1 ulp
SOLVE_BOUNDS = {"dtc-disorder": {"max_trace_residual": 6e-13},
                "quench-confined": {"max_trace_residual": 1.7e-12}}


def _run(name: str, out: str) -> dict:
    cfg = os.path.join(GOLDEN, f"{name}.cfg")
    assert cli.main(["run", cfg, "--out", out]) == 0
    with open(os.path.join(out, "run_manifest.json")) as f:
        return json.load(f)


def _read_csv(path: str):
    with open(path) as f:
        header, *rows = f.read().splitlines()
    return header.split(","), [r.split(",") for r in rows]


def _value_gap(a: str, b: str) -> float:
    """|a - b|; 0 when both are nan, infinite when only one is."""
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return abs(x - y)


@pytest.mark.parametrize("name", CONFIGS)
def test_golden_outputs(tmp_path, name):
    out = str(tmp_path / name)
    man = _run(name, out)
    want_dir = os.path.join(GOLDEN, name)
    with open(os.path.join(want_dir, "solves.json")) as f:
        want_solves = json.load(f)
    assert sorted(man["files"]) == sorted(want_solves)
    bounds = BOUNDS[name]
    gaps = {}  # what -> (largest move, its bound)

    def note(what, gap, bound):
        gaps[what] = (max(gap, gaps.get(what, (0.0,))[0]), bound)
    for csv_name in man["files"]:
        head, rows = _read_csv(os.path.join(out, csv_name))
        want_head, want_rows = _read_csv(os.path.join(want_dir, csv_name))
        assert head == want_head == list(cli.CSV_COLUMNS)
        assert len(rows) == len(want_rows)
        for col in TEXT_COLUMNS:
            k = head.index(col)
            assert [r[k] for r in rows] == [r[k] for r in want_rows], col
        for col, bound in bounds.items():
            k = head.index(col)
            note(col, max(_value_gap(r[k], w[k]) for r, w in zip(rows, want_rows)),
                 bound)
        got, want = man["solves"][csv_name], want_solves[csv_name]
        for key in SOLVE_COUNTS:
            assert got[key] == want[key], key
        for key, col in SOLVE_FLOATS.items():
            note(f"solves.{key}", abs(got[key] - want[key]),
                 SOLVE_BOUNDS.get(name, {}).get(key, bounds[col]))
    print(f"{name}: " + ", ".join(f"{k} {g:.2g}" for k, (g, _) in gaps.items()))
    over = {k: g for k, (g, b) in gaps.items() if g > b}
    assert not over, f"{name} moved beyond its bounds: {over}"


# the least share of each workload's Gram and sketch asks that succeeds;
# None where the workload makes no such ask
ROUTES = {"floquet-chaotic": (0.8, None), "quench-confined": (None, None),
          "impurity-fresh": (None, None), "dtc-disorder": (0.9, None)}


@pytest.mark.parametrize("name, asks", [
    ("floquet-chaotic", True), ("quench-confined", False),
    ("impurity-fresh", False), ("dtc-disorder", True)])
def test_gram_attempts(tmp_path, monkeypatch, name, asks):
    """The zip-up asks for a Gram cut (``asks``) after a cap-bound cut
    whose spectrum was resolved, and for a sketched cut after one whose
    tail was below tau^2, on blocks at least 2.5 l wide.  Floquet's
    spectra at the cap are flat, and so are the DTC's: their zip-ups ask
    for Gram cuts only.  The quench's and the impurity's tails past the cap
    sit below tau (near 1e-8 s_0 on the quench), but their cap-bound steps
    are fits or their blocks too narrow to sketch: neither asks for either
    route, and both keep gesdd's outputs."""
    gram = cut_spy(monkeypatch, "_gram_cut")
    sketch = cut_spy(monkeypatch, "_sketch_cut")
    _run(name, str(tmp_path))
    print(f"{name}: {sum(gram)} of {len(gram)} Gram attempts and "
          f"{sum(sketch)} of {len(sketch)} sketches succeeded")
    for calls, share in zip((gram, sketch), ROUTES[name]):
        assert (len(calls) > 0) == (share is not None)
        if share is not None:
            assert sum(calls) >= share * len(calls)
    assert (len(gram) > 0) == asks


def regenerate(root: str = GOLDEN) -> None:
    """Write every golden CSV and ``solves.json`` from the current code into
    ``root``, one directory per config, replacing what is there."""
    for name in CONFIGS:
        out = os.path.join(root, name)
        for old in os.listdir(out) if os.path.isdir(out) else ():
            os.unlink(os.path.join(out, old))
        man = _run(name, out)
        os.unlink(os.path.join(out, "run_manifest.json"))
        with open(os.path.join(out, "solves.json"), "w") as f:
            json.dump(man["solves"], f, indent=2, sort_keys=True)
            f.write("\n")


def _moves(new: str, old: str) -> str:
    """The columns of a CSV, or the fields of a ``solves.json``, that differ
    between two versions of a file, each with its largest |new - old|
    ("text" where the entries are not numbers)."""
    if new.endswith(".json"):
        with open(new) as f, open(old) as g:
            a, b = json.load(f), json.load(g)
        if sorted(a) != sorted(b):
            return "different CSV names"
        cells = [(key, str(a[c][key]), str(b[c].get(key))) for c in a for key in a[c]]
    else:
        (head, rows), (want_head, want_rows) = _read_csv(new), _read_csv(old)
        if head != want_head or len(rows) != len(want_rows):
            return "different header or row count"
        cells = [(col, x, y) for r, w in zip(rows, want_rows)
                 for col, x, y in zip(head, r, w)]
    gaps = {}
    for col, x, y in cells:
        if x == y or gaps.get(col) == "text":
            continue
        try:
            gaps[col] = max(_value_gap(x, y), gaps.get(col, 0.0))
        except ValueError:
            gaps[col] = "text"
    return ", ".join(f"{c} {g}" if g == "text" else f"{c} {g:.2g}"
                     for c, g in gaps.items())


def check() -> int:
    """Regenerate into a temporary directory and compare bytes with the
    stored files; 0 when every file is identical, else 1."""
    moved = 0
    with tempfile.TemporaryDirectory() as root:
        regenerate(root)
        for name in CONFIGS:
            new_dir, old_dir = os.path.join(root, name), os.path.join(GOLDEN, name)
            for fname in sorted(set(os.listdir(new_dir)) | set(os.listdir(old_dir))):
                new, old = os.path.join(new_dir, fname), os.path.join(old_dir, fname)
                same = (os.path.isfile(new) and os.path.isfile(old)
                        and filecmp.cmp(new, old, shallow=False))
                moved += not same
                if same:
                    print(f"{name}/{fname}: identical")
                elif os.path.isfile(new) and os.path.isfile(old):
                    print(f"{name}/{fname}: moved ({_moves(new, old)})")
                else:
                    print(f"{name}/{fname}: moved (on one side only)")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    regenerate()
