"""Command-line front end: config-driven experiment runs, CSV emission,
run manifests, and a dense-vs-MPS cross-check battery.

Configs are flat ``key = value`` text with ``#`` comments.  Every run writes
one CSV per (experiment, chi[, boundary]) plus ``run_manifest.json``.  CSVs
are deterministic for a fixed config and seed; the manifest is not (it
records wall time).

Every subcommand runs BLAS on one thread and spends the cores on the
CSVs instead, one job each (see ``run_experiment``), so CSV bytes do not
depend on ``--threads`` or on the host's core count.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import __version__
from .models import Impurity, ModelSpec, trotter_steps, trotterize
from .influence import BOUNDARY_KINDS, NumericalInstabilityError
from .tensor import one_blas_thread

EXPERIMENTS = ("floquet-czz", "hamiltonian-impurity", "quench", "dtc",
               "entropy-scan")

CSV_COLUMNS = ("abscissa", "value_re", "value_im", "entropy_halfcut",
               "entropy_max", "discarded_weight", "chi", "eps", "boundary",
               "seed")

EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


class ConfigError(ValueError):
    """Malformed or incomplete experiment config."""


# ------------------------------------------------------------------- config

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}

_KEYS = {
    "experiment": str,
    "J": float, "g": float, "h": float, "eps": float, "eps_kick": float,
    "alpha": float, "beta": float,
    "T_max": int, "t_max": float, "t": float,
    "chi": "int_list", "eps_list": "float_list", "T_list": "int_list",
    "cutoff": float, "boundary": "str_list",
    "preserve_weak_bonds": "bool", "reuse_im": "bool",
    "seed": int, "out": str,
}

_REQUIRED = {
    "floquet-czz": ("J", "g", "h", "T_max", "chi"),
    "hamiltonian-impurity": ("J", "g", "h", "eps", "t_max", "alpha", "beta", "chi"),
    "quench": ("J", "g", "h", "eps", "t_max", "chi"),
    "dtc": ("eps_kick", "h", "T_max", "chi"),
    "entropy-scan": ("chi",),
}


@dataclass
class ExperimentConfig:
    experiment: str
    raw: Dict[str, object] = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.raw[name]
        except KeyError:
            raise AttributeError(name)

    def get(self, name, default=None):
        return self.raw.get(name, default)


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _parse_value(key: str, text: str):
    kind = _KEYS[key]
    try:
        if kind is str:
            return text
        if kind is int:
            return int(text)
        if kind is float:
            return _finite(float(text))
        if kind == "bool":
            return _BOOL[text.lower()]
        if kind == "int_list":
            return [int(x) for x in text.split(",") if x.strip()]
        if kind == "float_list":
            return [_finite(float(x)) for x in text.split(",") if x.strip()]
        if kind == "str_list":
            return [x.strip() for x in text.split(",") if x.strip()]
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc
    raise ConfigError(f"unhandled key kind for {key!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    raw: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = _parse_value(key, val)
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    exp = raw["experiment"]
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}")
    for need in _REQUIRED[exp]:
        if need not in raw:
            raise ConfigError(f"experiment {exp!r} requires key {need!r}")
    if exp in ("dtc", "entropy-scan") and "eps" in raw:
        raise ConfigError(f"experiment {exp!r} does not read 'eps'")
    for key in ("t", "eps_list", "T_list"):
        if exp != "entropy-scan" and key in raw:
            raise ConfigError(f"experiment {exp!r} does not read {key!r}")
    if exp == "entropy-scan":
        if ("eps_list" in raw) == ("T_list" in raw):
            raise ConfigError("entropy-scan needs exactly one of eps_list, T_list")
        if "eps_list" in raw and "t" not in raw:
            raise ConfigError("entropy-scan over eps_list needs fixed t")
        if "eps_list" in raw and not all(k in raw for k in ("J", "g", "h")):
            raise ConfigError("entropy-scan over eps_list needs J, g, h")
        if "T_list" in raw and not ("h" in raw and (
                "eps_kick" in raw or all(k in raw for k in ("J", "g")))):
            raise ConfigError("entropy-scan over T_list needs h and either "
                              "eps_kick or J, g")
    _check_ranges(exp, raw)
    if exp != "entropy-scan" and "boundary" in raw and not raw.get("reuse_im"):
        raise ConfigError(f"experiment {exp!r} reads 'boundary' only with "
                          "reuse_im = true: a fresh series is grown, and no "
                          "boundary state enters it")
    if raw.get("preserve_weak_bonds") and raw.get("cutoff", 0.0) != 0.0:
        raise ConfigError("preserve_weak_bonds = true means cutoff = 0; "
                          f"it contradicts cutoff = {raw['cutoff']}")
    return ExperimentConfig(exp, raw)


def _check_ranges(exp: str, raw: Dict[str, object]) -> None:
    """Reject empty or repeated lists, unknown boundary kinds, counts below
    1, a negative step or cutoff and time grids that are not whole steps."""
    for key in ("chi", "boundary", "T_list", "eps_list"):
        vals = raw.get(key)
        if vals is None:
            continue
        if not vals:
            raise ConfigError(f"{key} list is empty")
        if len(set(vals)) < len(vals):
            raise ConfigError(f"{key} list {vals} repeats a value")
    for kind in raw.get("boundary", ()):
        if kind not in BOUNDARY_KINDS:
            raise ConfigError(f"unknown boundary kind {kind!r}; "
                              f"choose from {', '.join(BOUNDARY_KINDS)}")
    for key in ("chi", "T_list"):
        if any(v < 1 for v in raw.get(key, ())):
            raise ConfigError(f"every {key} value must be >= 1")
    if raw.get("T_max", 1) < 1:
        raise ConfigError("T_max must be >= 1")
    for key in ("eps", "cutoff"):
        if raw.get(key, 0.0) < 0:
            raise ConfigError(f"{key} must be >= 0")
    grids = []
    if exp in ("quench", "hamiltonian-impurity"):
        grids = [("t_max", raw["t_max"], raw["eps"])]
    elif "eps_list" in raw:
        grids = [("t", raw["t"], e) for e in raw["eps_list"]]
    for name, t, eps in grids:
        try:
            trotter_steps(t, eps)
        except ValueError as exc:
            raise ConfigError(f"{name}/eps: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# -------------------------------------------------------------- CSV emission

@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator[TextIO]:
    """A text file that appears at ``path`` only when the block completes:
    written to a temporary file beside it, then renamed.  On failure the
    temporary file is removed and ``path`` is untouched."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _g17(x) -> str:
    return "%.17g" % float(x)


def write_series_csv(path: str, series, chi: int, eps: float, boundary: str,
                     seed: Optional[int]) -> None:
    """Atomic write (temp + rename), fixed column order, 17 digits."""
    ex = series.extras
    lines = [",".join(CSV_COLUMNS)]
    halfs, maxs, dws = ex["entropy_halfcut"], ex["entropy_max"], ex["discarded_weight"]
    seed_txt = "nan" if seed is None else str(int(seed))
    for i in range(len(series.abscissa)):
        v = complex(series.values[i])
        row = (_g17(series.abscissa[i]), _g17(v.real), _g17(v.imag),
               _g17(halfs[i]), _g17(maxs[i]), _g17(dws[i]),
               str(int(chi)), _g17(eps), boundary, seed_txt)
        lines.append(",".join(row))
    with _atomic_write(path) as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- experiments

def _spec_for(cfg: ExperimentConfig) -> ModelSpec:
    exp = cfg.experiment
    if exp == "floquet-czz":
        return ModelSpec(J=cfg.J, g=cfg.g, h=cfg.h, T=cfg.T_max,
                         eps=cfg.get("eps", 0.0))
    if exp == "hamiltonian-impurity":
        return trotterize(cfg.J, cfg.g, cfg.h, cfg.t_max, cfg.eps,
                          impurity=Impurity(alpha=cfg.alpha, beta=cfg.beta))
    if exp == "dtc":
        return ModelSpec(J=cfg.get("J", 1.0), g=math.pi / 2 - cfg.eps_kick,
                         h=cfg.h, T=cfg.T_max, disorder="uniform_J_0_2pi")
    raise ConfigError(f"no single spec for experiment {cfg.experiment!r}")


def _entropy_specs(cfg: ExperimentConfig) -> List[ModelSpec]:
    if "eps_list" in cfg.raw:
        return [trotterize(cfg.J, cfg.g, cfg.h, cfg.t, e) for e in cfg.eps_list]
    if "eps_kick" in cfg.raw:
        return [ModelSpec(J=cfg.get("J", 1.0), g=math.pi / 2 - cfg.eps_kick,
                          h=cfg.h, T=T, disorder="uniform_J_0_2pi")
                for T in cfg.T_list]
    return [ModelSpec(J=cfg.J, g=cfg.g, h=cfg.h, T=T) for T in cfg.T_list]


class SolveSummary:
    """Convergence record of the IMs behind one CSV, for the manifest.

    It is the ``im_sink`` of the CSV's series: each IM is folded in as it
    is made and not kept.  Fields are maxima, counts and an exactly rounded
    sum, so the order of the IMs does not matter.  Solves are the
    ``solve_im`` and ``grow_ims`` results.  A power-iteration solve adds
    every iteration's discarded weight and its final deficit.  A grown IM
    and an impurity IM each extend the IM before them by one slice, so
    they add only the last entry of their weight record, and neither
    records a deficit.  An impurity IM is not a solve.
    """

    def __init__(self):
        self.solves = self.converged = self.max_iterations = 0
        self.max_final_deficit = self.max_trace_residual = 0.0
        self._weights: List[float] = []

    def append(self, im) -> None:
        d = im.diagnostics
        self.max_trace_residual = max(self.max_trace_residual, d["trace_residual"][-1])
        if "deficit" in d:
            self.max_final_deficit = max(self.max_final_deficit, d["deficit"][-1])
            self._weights.extend(d["discarded_weight"])
        else:
            self._weights.append(d["discarded_weight"][-1])
        if "impurity_drift" in d:
            return
        self.solves += 1
        self.converged += bool(im.converged)
        self.max_iterations = max(self.max_iterations, im.iterations_applied)

    def as_dict(self) -> Dict[str, object]:
        return {"solves": self.solves, "converged": self.converged,
                "max_iterations": self.max_iterations,
                "max_final_deficit": self.max_final_deficit,
                "max_trace_residual": self.max_trace_residual,
                "discarded_weight": math.fsum(self._weights)}


def _series_jobs(cfg: ExperimentConfig):
    """((chi, boundary), job) pairs, one per output CSV, largest chi first.
    ``job(im_sink)`` computes the CSV's series through the library
    ``*_series`` function, looked up on ``observables`` when it runs."""
    from . import observables

    exp = cfg.experiment
    cutoff = cfg.get("cutoff", 0.0)
    reuse = cfg.get("reuse_im", False)
    if exp == "entropy-scan":
        specs = _entropy_specs(cfg)

        def job(chi, b, im_sink):
            return observables.entropy_series(specs, [chi], cutoff, boundary=b,
                                              im_sink=im_sink)
    elif exp == "quench":
        def job(chi, b, im_sink):
            return observables.quench_magnetization_series(
                cfg.J, cfg.g, cfg.h, cfg.t_max, cfg.eps, chi, cutoff,
                boundary=b, reuse_im=reuse, im_sink=im_sink)
    else:
        spec = _spec_for(cfg)

        def job(chi, b, im_sink):
            return observables.autocorrelator_series(
                spec, chi, cutoff, boundary=b, reuse_im=reuse,
                im_sink=im_sink)
    return [((chi, b), partial(job, chi, b)) for chi in sorted(cfg.chi, reverse=True)
            for b in cfg.get("boundary", ["open"])]


def _run_jobs(jobs, workers: int):
    """Run every CSV's job with a fresh ``SolveSummary`` as its sink;
    returns the series and the summaries, in job order.

    Jobs start in list order, largest chi first.  With more than one worker
    they run on a thread pool; each summary is only touched by its job's
    thread.  A failing job cancels the jobs not yet started.
    """
    summaries = [SolveSummary() for _ in jobs]
    calls = [partial(job, summary) for (_, job), summary in zip(jobs, summaries)]
    if workers == 1:
        return [call() for call in calls], summaries
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(call) for call in calls]
        try:
            for fut in concurrent.futures.as_completed(futs):
                fut.result()
        finally:
            for fut in futs:  # on failure: the jobs not yet started
                fut.cancel()
    return [fut.result() for fut in futs], summaries


def run_experiment(cfg: ExperimentConfig, out_dir: str, seed: Optional[int],
                   threads: Optional[int] = None
                   ) -> Tuple[List[str], int, Dict[str, dict]]:
    """Write the config's CSVs; returns their paths, the workers used and
    the ``SolveSummary`` of each CSV by file name.

    The unit of work is one CSV.  ``threads`` caps the workers (see
    ``_thread_count``); with one worker the jobs run serially on the
    calling thread.
    """
    jobs = _series_jobs(cfg)
    workers = _thread_count(threads, len(jobs))
    series, summaries = _run_jobs(jobs, workers)
    eps = cfg.get("eps", cfg.get("eps_kick", 0.0))
    if cfg.experiment == "entropy-scan" and "eps_list" in cfg.raw:
        eps = float("nan")  # per-row eps is the abscissa, no single value
    written = []
    solves: Dict[str, dict] = {}
    for ((chi, boundary), _), ser, summary in zip(jobs, series, summaries):
        suffix = f"_chi{chi}" + ("" if boundary == "open" else f"_{boundary}")
        path = os.path.join(out_dir, f"{cfg.experiment}{suffix}.csv")
        write_series_csv(path, ser, chi, eps, boundary, seed)
        written.append(path)
        solves[os.path.basename(path)] = summary.as_dict()
    return written, workers, solves


def write_manifest(out_dir: str, cfg: ExperimentConfig, seed: Optional[int],
                   wall: float, files: Sequence[str],
                   threads: Dict[str, Optional[int]],
                   solves: Dict[str, dict]) -> str:
    """``threads`` is the layout, ``{"jobs": workers, "blas": 1 or None}``;
    ``solves`` maps each CSV's file name to its solve summary."""
    path = os.path.join(out_dir, "run_manifest.json")
    doc = {"config": cfg.raw, "engine_version": __version__,
           "experiment": cfg.experiment, "files": [os.path.basename(f) for f in files],
           "seed": seed, "solves": solves, "threads": threads,
           "wall_time_s": wall}
    with _atomic_write(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    return path


# --------------------------------------------------------------- oracle-check

def _check(name: str, got: float, tol: float, report: list) -> None:
    ok = got <= tol
    report.append((name, ok, got, tol))
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: err={got:.3e} tol={tol:.0e}")


def oracle_check() -> int:
    """Dense-vs-MPS cross-check battery at T = 4 (T = 5 for the g = 0
    closed form); 0 when everything agrees."""
    from .influence import build_disorder_slice, build_transfer_slice, solve_im
    from .observables import autocorrelator_series, temporal_contract
    from .models import floquet_kernel
    from . import oracles

    report: list = []
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=4)
    spec2 = ModelSpec(J=0.8, g=0.45, h=0.3, T=4, eps=0.1)
    for s, tag in ((spec, "floquet"), (spec2, "trotter")):
        dense = oracles.dense_transfer_slice(s)
        mpo = build_transfer_slice(s).dense()
        _check(f"slice[{tag}] dense vs MPO", float(np.max(np.abs(dense - mpo))),
               1e-12, report)
        ref = oracles.dense_transfer_fixed_point(s)
        im = solve_im(s, chi_max=4 ** s.T, cutoff=0.0)
        got = im.psi.dense()
        _check(f"fixed point[{tag}] dense vs solve",
               float(np.max(np.abs(ref.amplitudes - got))), 1e-10, report)
        kern = floquet_kernel(s)
        one = temporal_contract(im, kern)
        _check(f"trace[{tag}] empty plan", abs(one - 1.0), 1e-10, report)
        ed = oracles.ed_chain_evolve(s, 2 * s.T + 1)
        ser = autocorrelator_series(s, chi_max=4 ** s.T)
        _check(f"czz[{tag}] IM vs chain ED",
               float(np.max(np.abs(ser.values - ed.values))), 1e-8, report)
        reuse = autocorrelator_series(s, chi_max=4 ** s.T, reuse_im=True)
        _check(f"czz[{tag}] reuse vs fresh",
               float(np.max(np.abs(ser.values - reuse.values))), 1e-9, report)
    dspec = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=3,
                      disorder="uniform_J_0_2pi")
    davg = oracles.dense_disorder_slice(dspec)
    quad = oracles.quadrature_disorder_slice(dspec, 64)
    _check("disorder slice: constraint vs quadrature",
           float(np.max(np.abs(davg - quad))), 1e-9, report)
    _check("disorder slice: MPO vs dense",
           float(np.max(np.abs(build_disorder_slice(dspec).dense() - davg))),
           1e-12, report)
    g0 = ModelSpec(J=0.47, g=0.0, h=0.29, T=5)
    im = solve_im(g0, chi_max=64, cutoff=0.0)
    ref = oracles.im_g0(g0.J, g0.T).amplitudes
    _check("g=0 IM vs closed form",
           float(np.max(np.abs(im.psi.dense() - ref))), 1e-10, report)
    return 0 if all(ok for _, ok, _, _ in report) else 1


# ----------------------------------------------------------------------- main

def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(arg: Optional[int], n_jobs: int) -> int:
    """Workers: ``--threads``, else the usable cores; never more than the
    jobs (one per CSV), never fewer than one."""
    if arg is None:
        arg = _usable_cores()
    return max(1, min(arg, n_jobs))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="temporal-im",
                                     description="influence-matrix engine")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: the config's out, else .)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=None,
                       help="CSVs computed at once (default: the "
                            "usable cores; at most the CSVs)")
    sub.add_parser("oracle-check", help="dense-vs-MPS cross checks")
    args = parser.parse_args(argv)
    with one_blas_thread() as blas:
        return _dispatch(args, blas)


def _dispatch(args: argparse.Namespace, blas: Optional[int]) -> int:
    try:
        if args.command == "oracle-check":
            return EXIT_UNSTABLE if oracle_check() else 0
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.get("out", ".")
        seed = args.seed if args.seed is not None else cfg.get("seed")
        t0 = time.monotonic()
        files, workers, solves = run_experiment(cfg, out_dir, seed, args.threads)
        write_manifest(out_dir, cfg, seed, time.monotonic() - t0, files,
                       {"jobs": workers, "blas": blas}, solves)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
