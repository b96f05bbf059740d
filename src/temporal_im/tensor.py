"""Dense complex tensor primitives: truncated SVD, the folded-index tables,
and the BLAS thread pin the command line runs them under.

scipy is imported on first use only (``scipy_linalg``): it loads a second
OpenBLAS and costs a run about 0.3 s and 26 MiB (2-core x86 host), and the
engine needs it only for the rare gesvd fallback.

Folded-index convention used throughout the package: a physical leg of the
temporal chain has dimension 4 and enumerates the forward/backward z-value
pair as (up,up), (up,down), (down,up), (down,down) -> 0..3, with up = +1.
"""
from __future__ import annotations

import contextlib
import ctypes
import sys
import threading
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

# z eigenvalues of the forward and backward branch for folded index p = 0..3
FOLDED_SIGMA = np.array([+1.0, +1.0, -1.0, -1.0])
FOLDED_SIGMA_BAR = np.array([+1.0, -1.0, +1.0, -1.0])

# basis index (0 = up, 1 = down) of each branch, same ordering
FOLDED_FWD = np.array([0, 0, 1, 1])
FOLDED_BWD = np.array([0, 1, 0, 1])

# relative tolerance for treating neighbouring singular values as degenerate
_MULTIPLET_RTOL = 1e-12

# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy load:
# the scipy-openblas wheels (ILP64 for numpy, LP64 for scipy), then plain
# ILP64 and LP64 builds.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class DimensionError(ValueError):
    """Raised when tensor extents do not line up."""


class SvdFactors(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    discarded_weight: float


def _svd(m: np.ndarray):
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on nasty inputs; gesvd is slower but robust
        return scipy_linalg().svd(m, full_matrices=False, lapack_driver="gesvd")


def svd_truncate(m: np.ndarray, chi_max: int, cutoff: float = 0.0) -> SvdFactors:
    """SVD of a matrix, truncated by bond cap and relative cutoff.

    Values with s_k < cutoff * s_0 are dropped.  A degenerate multiplet
    straddling the cutoff boundary is kept whole (the kept set is extended by
    at most the multiplet size) so results do not depend on backend ordering
    of equal values.  The hard ``chi_max`` cap is applied afterwards and is
    absolute.  ``discarded_weight`` is the plain sum of squared dropped
    values.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be a positive integer")
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    u, s, vh = _svd(m)
    keep = len(s)
    if cutoff > 0.0 and keep > 0 and s[0] > 0.0:
        keep = int(np.sum(s >= cutoff * s[0]))
        keep = max(keep, 1)
        while 0 < keep < len(s) and s[keep] >= s[keep - 1] * (1.0 - _MULTIPLET_RTOL):
            keep += 1
    keep = min(keep, chi_max)
    if keep == len(s):  # nothing dropped: the factors are fresh and contiguous
        return SvdFactors(u, s, vh, 0.0)
    w = float(np.sum(s[keep:] ** 2))
    return SvdFactors(np.ascontiguousarray(u[:, :keep]), s[:keep].copy(),
                      np.ascontiguousarray(vh[:keep]), w)


# ------------------------------------------------------------ BLAS threads

def _openblas_libs() -> Dict[str, tuple]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process by library path, found through ``/proc/self/maps``; empty
    elsewhere."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return {}
    libs = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, put in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                libs[path] = (getattr(lib, get), getattr(lib, put))
                break
    return libs


# State of the open ``one_blas_thread`` blocks, guarded by _PIN_LOCK: how many
# are open, the libraries they hold at one thread, and the (set, count) pairs
# of libraries loaded while one was open, restored when the last one closes.
_PIN_LOCK = threading.Lock()
_pin_blocks = 0
_pinned_paths: set = set()
_late_pins: List[Tuple[Callable, int]] = []


@contextlib.contextmanager
def one_blas_thread() -> Iterator[Optional[int]]:
    """Run every loaded OpenBLAS on one thread inside the block.

    The engine's SVDs are 64 to 512 wide at the bundled bond dimensions;
    there OpenBLAS's own threads lose wall time or save little of it for
    twice the CPU, and independent jobs use the cores better.  Results then
    also do not depend on the host's core count.  Yields 1, or None when no OpenBLAS control was found
    (the block then runs unchanged).  The caller's counts are restored on
    exit.  An OpenBLAS that ``scipy_linalg`` loads inside the block runs on
    one thread too, and gets its count back when the outermost block exits.
    Setting ``OPENBLAS_NUM_THREADS`` instead would have no effect once
    numpy is loaded, and would leak into child processes.
    """
    global _pin_blocks
    with _PIN_LOCK:
        libs = _openblas_libs()
        saved = [(put, get()) for get, put in libs.values()]
        for put, _ in saved:
            put(1)
        _pin_blocks += 1
        _pinned_paths.update(libs)
    try:
        yield 1 if libs else None
    finally:
        with _PIN_LOCK:
            for put, n in saved:
                put(n)
            _pin_blocks -= 1
            if _pin_blocks == 0:
                for put, n in _late_pins:
                    put(n)
                _late_pins.clear()
                _pinned_paths.clear()


def scipy_linalg():
    """``scipy.linalg``, imported on first use.

    Its import loads scipy's own OpenBLAS; inside a ``one_blas_thread``
    block that library is pinned to one thread as well.
    """
    fresh = "scipy.linalg" not in sys.modules
    import scipy.linalg
    if fresh:
        with _PIN_LOCK:
            if _pin_blocks:
                for path, (get, put) in _openblas_libs().items():
                    if path not in _pinned_paths:
                        _late_pins.append((put, get()))
                        put(1)
                        _pinned_paths.add(path)
    return scipy.linalg


def __getattr__(name: str):
    """``tensor.scipy`` imports scipy on first access, so code that patches
    the fallback's ``scipy.linalg.svd`` through this module still works."""
    if name == "scipy":
        scipy_linalg()
        return sys.modules["scipy"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
