"""Benchmark of the influence-matrix engine through ``temporal-im run``.

    python3 imbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run computes the workload's reference
values (outside any timing), then starts one fresh worker process per series
until S seconds have passed, one series after another.  Each worker imports
the engine from ``src/`` and makes one ``temporal_im.cli.main(["run", ...])``
call; the run then checks the CSV it wrote.  A series fails when the worker
exits non-zero or any output check fails.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` series, and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the run's series); with
``--trace 1`` the engine's layer boundaries are wrapped and the metrics are
the per-layer ones, again medians over series.

The seed reaches the program as the config's ``seed`` key, which the CLI
writes into every CSV row and which the checks read back.  The couplings are
fixed: none of these experiments draws random numbers (the DTC average is
exact), and the solver's iteration count jumps under small changes of the
couplings, so a seeded jitter would measure the stopping rule, not the engine.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

END_TO_END = {"series_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}
# A series that runs longer than this is stopped and counted as failed; it
# keeps a run inside 180 s.
SERIES_TIMEOUT_S = 120.0


def run_series(cfg: str, series_dir: str, trace: bool) -> dict:
    """One worker process; returns its result with the exit code it ended on."""
    shutil.rmtree(series_dir, ignore_errors=True)
    os.makedirs(series_dir)
    result_path = os.path.join(series_dir, "result.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TEMPORAL_IM_THREADS", None)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), cfg, series_dir,
            result_path, repr(time.monotonic()), SRC, "1" if trace else "0"]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT,
                              timeout=SERIES_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout"}
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        return {"exit_code": code or "0 without a result file"}
    result["exit_code"] = code
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "temporal_im", "__init__.py")):
        print(f"no engine source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload not in checks.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(checks.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = checks.WORKLOADS[args.workload]
    params = wl.params()
    reference = wl.reference(params)

    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg = os.path.join(run_dir, "input.cfg")
    with open(wl.config_path) as f, open(cfg, "w") as g:
        g.write(f.read() + f"seed = {args.seed}\n")

    series_dir = os.path.join(run_dir, "series")
    results, attempted = [], 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < args.seconds:
        attempted += 1
        res = run_series(cfg, series_dir, bool(args.trace))
        problems = []
        if res["exit_code"] != 0:
            problems.append(f"exit code {res['exit_code']}")
        else:
            try:
                s = checks.read_series(os.path.join(series_dir, wl.csv_name(params)))
                problems = checks.check_series(wl, s, params, reference, args.seed)
            except (OSError, ValueError) as exc:
                problems.append(f"csv: {exc}")
            if args.trace:
                lay = res["layers"]
                gap = abs(lay["trace.self_sum_s"] - lay["trace.series_s"])
                if gap > 0.05 * lay["trace.series_s"]:
                    problems.append(f"trace: self times sum to {lay['trace.self_sum_s']:.3f}"
                                    f" s, traced series {lay['trace.series_s']:.3f} s")
        if problems:
            for p in problems:
                print(f"series {attempted} FAILED: {p}", file=sys.stderr)
        else:
            print(f"series {attempted}: {res['series_s']:.3f} s wall, {res['cpu_s']:.3f} s cpu,"
                  f" setup {res['setup_s']:.3f} s, peak rss {res['peak_rss_mib']:.1f} MiB,"
                  " checks pass")
            results.append(res)
    # failed series count against the run; the figures come from the rest
    failed = attempted - len(results)

    units = tracing.UNITS if args.trace else END_TO_END
    figures = [r["layers"] if args.trace else r for r in results]
    metrics = {k: {"value": statistics.median(f[k] for f in figures), "unit": u}
               for k, u in units.items()} if results else {}
    print(json.dumps({"correct": failed == 0 and bool(results),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
