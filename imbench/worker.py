"""One benchmark series: a fresh process making one ``temporal-im run`` call.

Usage (from ``run.py``)::

    python3 imbench/worker.py CONFIG OUT_DIR RESULT_JSON SPAWN_TIME SRC_DIR TRACE

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start
and the import of ``temporal_im``: what a user pays on every run.  The call
gets no warm-up.  With TRACE = 1 the engine's layer boundaries are wrapped
first, and the spans go to OUT_DIR/trace.jsonl when the call has returned.
Exits with the CLI's exit code.
"""
import json
import os
import resource
import sys
import time


def peak_rss_mib() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's resident set at the moment it
    forked this process, since Linux carries it across exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    cfg, out_dir, result_path, spawned, src_dir, trace = argv
    from temporal_im import cli
    setup_s = time.monotonic() - float(spawned)
    engine = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(engine) != os.path.abspath(src_dir):
        print(f"imported temporal_im from {engine}, not from {src_dir}",
              file=sys.stderr)
        return 90

    run = cli.main
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = run(["run", cfg, "--out", out_dir])
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "exit_code": rc,
        "series_s": t1 - t0,
        "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "trace.jsonl"))
        layers = tracing.layer_metrics(tracer)
        layers["trace.series_s"] = result["series_s"]
        layers["cli.csv_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in os.listdir(out_dir) if f.endswith(".csv"))
        result["layers"] = layers
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
