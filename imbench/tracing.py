"""Per-layer spans around the engine, installed from outside ``src/``.

The wrappers replace module attributes at the places where the engine looks
the names up: ``influence`` imports ``apply_mpo_zipup``, ``canonicalize``,
``overlap`` and ``entropy_profile`` by name, ``mps`` imports
``svd_truncate`` by name, ``observables`` imports ``solve_im`` and
``impurity_im`` by name, and ``cli`` and ``influence`` import the series
functions and ``temporal_contract`` from ``observables`` when they run.
Spans (name, start, end, parent) stay in memory and are written when the run
ends.  A span's self time is its duration minus the durations of its direct
children; spans nest strictly, so the self times of all spans add up to the
root span.
"""
from __future__ import annotations

import functools
import json
import math
import time
from typing import Callable, Dict, List, Optional

# Spans whose direct children are counted as called "from influence".
_INFLUENCE = ("influence.solve_im", "influence.impurity_im")
# Diagnostics passes of the power iteration.
_DIAGNOSTICS = ("mps.canonicalize", "mps.overlap", "mps.entropy_profile")
_SERIES = "observables.series"


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: int, start: float):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.attrs: Dict[str, float] = {}

    @property
    def s(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls on one thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``annotate(span, args, result)`` runs after
        the span has closed, so its cost lands in the parent's self time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(span, args, out)
            return out
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, sp in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": sp.name, "parent": sp.parent,
                                    "start": sp.start, "end": sp.end,
                                    **sp.attrs}) + "\n")


# ----------------------------------------------------------------- wrappers

def _svd_shape(span, args, out):
    m, n = args[0].shape
    span.attrs.update(m=m, n=n, kept=len(out.s))


def _zipup_length(span, args, out):
    span.attrs["T"] = args[1].T


def _solve_result(span, args, im):
    span.attrs.update(iterations=im.iterations_applied,
                      stalled=int(not im.converged),
                      max_bond=im.psi.max_bond(),
                      discarded=float(sum(im.diagnostics["discarded_weight"])))


def install(tracer: Tracer) -> None:
    """Wrap the engine's layer boundaries for the rest of the process."""
    from temporal_im import influence, mps, observables, tensor

    # Only tensor._svd's gesdd->gesvd fallback calls scipy.linalg.svd.
    tensor.scipy.linalg.svd = tracer.wrap("tensor.svd_fallback",
                                          tensor.scipy.linalg.svd)
    mps.svd_truncate = tracer.wrap("tensor.svd_truncate", mps.svd_truncate,
                                   _svd_shape)
    influence.apply_mpo_zipup = tracer.wrap(
        "mps.apply_mpo_zipup", influence.apply_mpo_zipup, _zipup_length)
    influence.canonicalize = tracer.wrap("mps.canonicalize", influence.canonicalize)
    influence.entropy_profile = tracer.wrap("mps.entropy_profile",
                                            influence.entropy_profile)
    # mps_norm reaches overlap through the mps module, _overlap_deficit
    # through influence: one wrapper serves both lookups.
    mps.overlap = influence.overlap = tracer.wrap("mps.overlap", mps.overlap)
    influence.DisorderSliceMpo.apply = tracer.wrap(
        "influence.disorder_apply", influence.DisorderSliceMpo.apply)
    observables.solve_im = tracer.wrap("influence.solve_im", observables.solve_im,
                                       _solve_result)
    observables.impurity_im = tracer.wrap("influence.impurity_im",
                                          observables.impurity_im)
    observables.temporal_contract = tracer.wrap("observables.temporal_contract",
                                                observables.temporal_contract)
    for fn in ("autocorrelator_series", "quench_magnetization_series"):
        setattr(observables, fn, tracer.wrap(_SERIES, getattr(observables, fn)))


# ------------------------------------------------------------------ metrics

# Unit of every per-layer metric, in the order the traced run reports them.
UNITS = {
    "tensor.svd_truncate.calls": "count",
    "tensor.svd_truncate.s": "s",
    "tensor.svd_truncate.gflop": "GFLOP",
    "tensor.svd_truncate.kept_ratio": "ratio",
    "tensor.svd_fallbacks": "count",
    "mps.apply_mpo_zipup.calls": "count",
    "mps.apply_mpo_zipup.s": "s",
    "mps.apply_mpo_zipup.self_s": "s",
    "mps.zipup.lr_svd_s": "s",
    "mps.zipup.rl_svd_s": "s",
    "mps.canonicalize.calls": "count",
    "mps.canonicalize.s": "s",
    "mps.overlap.calls": "count",
    "mps.overlap.s": "s",
    "mps.entropy_profile.calls": "count",
    "mps.entropy_profile.s": "s",
    "mps.diagnostics_s": "s",
    "influence.solve_im.calls": "count",
    "influence.solve_im.s": "s",
    "influence.solve_im.self_s": "s",
    "influence.solve_im.iterations": "count",
    "influence.solve_im.stalled": "count",
    "influence.disorder_apply.s": "s",
    "influence.disorder_apply.self_s": "s",
    "influence.impurity_im.s": "s",
    "influence.impurity_im.self_s": "s",
    "influence.normalize_trace_s": "s",
    "influence.max_bond": "count",
    "influence.discarded_weight": "ratio",
    "observables.series.s": "s",
    "observables.series.self_s": "s",
    "observables.temporal_contract.calls": "count",
    "observables.temporal_contract.s": "s",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.series_s": "s",
    "trace.self_sum_s": "s",
}

def _svd_gflop(m: int, n: int) -> float:
    """Real flops of a thin complex SVD with both factors, computed from the
    shape: Golub and Van Loan's R-SVD count 6 M k^2 + 20 k^3 (M = max, k =
    min), times 4 for complex arithmetic."""
    big, k = max(m, n), min(m, n)
    return 4.0 * (6.0 * big * k * k + 20.0 * k ** 3) * 1e-9


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer totals of one traced run, keyed by metric name."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_s[sp.parent] += sp.s
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    for i, sp in enumerate(spans):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        total[sp.name] = total.get(sp.name, 0.0) + sp.s
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.s - child_s[i]

    svds = [sp for sp in spans if sp.name == "tensor.svd_truncate"]
    lr = rl = 0.0
    svd_index: Dict[int, int] = {}
    for sp in svds:
        zip_span = spans[sp.parent] if sp.parent >= 0 else None
        if zip_span is None or zip_span.name != "mps.apply_mpo_zipup":
            continue
        k = svd_index.get(sp.parent, 0)
        svd_index[sp.parent] = k + 1
        if k < zip_span.attrs["T"] - 1:
            lr += sp.s
        else:
            rl += sp.s
    computed = sum(min(sp.attrs["m"], sp.attrs["n"]) for sp in svds)
    kept = sum(sp.attrs["kept"] for sp in svds)

    def from_influence(names) -> List[Span]:
        return [sp for sp in spans if sp.name in names and sp.parent >= 0
                and spans[sp.parent].name in _INFLUENCE]

    solves = [sp for sp in spans if sp.name == "influence.solve_im"]
    g = lambda d, k: d.get(k, 0)
    return {
        "tensor.svd_truncate.calls": len(svds),
        "tensor.svd_truncate.s": g(total, "tensor.svd_truncate"),
        "tensor.svd_truncate.gflop": sum(_svd_gflop(sp.attrs["m"], sp.attrs["n"])
                                         for sp in svds),
        "tensor.svd_truncate.kept_ratio": kept / computed if computed else 1.0,
        "tensor.svd_fallbacks": g(calls, "tensor.svd_fallback"),
        "mps.apply_mpo_zipup.calls": g(calls, "mps.apply_mpo_zipup"),
        "mps.apply_mpo_zipup.s": g(total, "mps.apply_mpo_zipup"),
        "mps.apply_mpo_zipup.self_s": g(self_s, "mps.apply_mpo_zipup"),
        "mps.zipup.lr_svd_s": lr,
        "mps.zipup.rl_svd_s": rl,
        "mps.canonicalize.calls": g(calls, "mps.canonicalize"),
        "mps.canonicalize.s": g(total, "mps.canonicalize"),
        "mps.overlap.calls": g(calls, "mps.overlap"),
        "mps.overlap.s": g(total, "mps.overlap"),
        "mps.entropy_profile.calls": g(calls, "mps.entropy_profile"),
        "mps.entropy_profile.s": g(total, "mps.entropy_profile"),
        "mps.diagnostics_s": sum(sp.s for sp in from_influence(_DIAGNOSTICS)),
        "influence.solve_im.calls": len(solves),
        "influence.solve_im.s": g(total, "influence.solve_im"),
        "influence.solve_im.self_s": g(self_s, "influence.solve_im"),
        "influence.solve_im.iterations": sum(sp.attrs["iterations"] for sp in solves),
        "influence.solve_im.stalled": sum(sp.attrs["stalled"] for sp in solves),
        "influence.disorder_apply.s": g(total, "influence.disorder_apply"),
        "influence.disorder_apply.self_s": g(self_s, "influence.disorder_apply"),
        "influence.impurity_im.s": g(total, "influence.impurity_im"),
        "influence.impurity_im.self_s": g(self_s, "influence.impurity_im"),
        "influence.normalize_trace_s": sum(
            sp.s for sp in from_influence(("observables.temporal_contract",))),
        "influence.max_bond": max((sp.attrs["max_bond"] for sp in solves), default=0),
        "influence.discarded_weight": sum(sp.attrs["discarded"] for sp in solves),
        "observables.series.s": g(total, _SERIES),
        "observables.series.self_s": g(self_s, _SERIES),
        "observables.temporal_contract.calls": g(calls, "observables.temporal_contract"),
        "observables.temporal_contract.s": g(total, "observables.temporal_contract"),
        "cli.main.self_s": g(self_s, "cli.main"),
        "trace.self_sum_s": math.fsum(self_s.values()),
    }
