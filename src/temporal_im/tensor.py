"""Dense complex tensor primitives: truncated SVD, the folded-index tables,
and the BLAS thread pin the command line runs them under.

The engine needs numpy only.  A truncation is numpy's gesdd, retried through
a QR factorization on a block where it fails to converge (``_svd_retry``).
A cut that its caller expects the bond cap to decide may instead come from
the eigendecomposition of the block's smaller Gram matrix (``_gram_cut``),
where the spectrum at the cut is resolved (``_GRAM_TAU``).

Folded-index convention used throughout the package: a physical leg of the
temporal chain has dimension 4 and enumerates the forward/backward z-value
pair as (up,up), (up,down), (down,up), (down,down) -> 0..3, with up = +1.
"""
from __future__ import annotations

import contextlib
import ctypes
import threading
from typing import Dict, Iterator, NamedTuple, Optional

import numpy as np

# z eigenvalues of the forward and backward branch for folded index p = 0..3
FOLDED_SIGMA = np.array([+1.0, +1.0, -1.0, -1.0])
FOLDED_SIGMA_BAR = np.array([+1.0, -1.0, +1.0, -1.0])

# basis index (0 = up, 1 = down) of each branch, same ordering
FOLDED_FWD = np.array([0, 0, 1, 1])
FOLDED_BWD = np.array([0, 1, 0, 1])

# relative tolerance for treating neighbouring singular values as degenerate
_MULTIPLET_RTOL = 1e-12

# Resolution of the Gram cut.  eigh is backward stable, and forming the Gram
# matrix G of a block adds an error of the same size, so every computed
# eigenvalue of G is off by about eps * ||G|| = eps * s_0^2 (times a modest
# dimension factor).  A singular value s_k = sqrt(lambda_k) is then off by
# eps * s_0^2 / (2 s_k), relative eps / 2 * (s_0 / s_k)^2: full precision
# near s_0, noise below sqrt(eps) * s_0 ~ 1.5e-8 s_0.  The cut is taken from
# G only when the first dropped value is at least tau * s_0, so every value
# it keeps or drops is known to eps / (2 tau^2) = 1.1e-10 relative, and its
# absolute error, eps * s_0 / (2 tau) = 1.1e-13 s_0, is 1e-10 of the norm
# the truncation itself drops (at least tau * s_0).
_GRAM_TAU = 1e-3

# (get, set) thread-count symbols of the OpenBLAS builds numpy may load: the
# scipy-openblas wheels (ILP64, and LP64 for 32-bit-index builds), then plain
# ILP64 and LP64 builds.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class DimensionError(ValueError):
    """Raised when tensor extents do not line up."""


class NumericalInstabilityError(RuntimeError):
    """The computation lost control of its numbers: the power iteration's
    norm drifted after the light-cone horizon, an IM trace was degenerate,
    a slice broke the branch-swap symmetry, or an SVD failed."""


class SvdFactors(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    discarded_weight: float


def _svd(m: np.ndarray):
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        return _svd_retry(m)


def _svd_retry(m: np.ndarray):
    """SVD of a block on which gesdd failed to converge.

    gesdd runs on the triangular factor R of a Householder QR of ``m`` (of
    its transpose when ``m`` is wide), then on R's transpose, and the factors
    are mapped back.  A non-finite block, or one on which both tries fail,
    raises ``NumericalInstabilityError``.
    """
    if not np.isfinite(m).all():
        raise NumericalInstabilityError(
            f"SVD of a {m.shape[0]}x{m.shape[1]} block with non-finite entries")
    wide = m.shape[0] < m.shape[1]
    q, r = np.linalg.qr(m.T if wide else m)
    for flip in (False, True):
        try:
            u, s, vh = np.linalg.svd(r.T if flip else r, full_matrices=False)
        except np.linalg.LinAlgError:
            continue
        if flip:  # r = (u s vh)^T
            u, vh = vh.T, u.T
        u = q @ u
        if wide:
            u, vh = vh.T, u.T
        return np.ascontiguousarray(u), s, np.ascontiguousarray(vh)
    raise NumericalInstabilityError(
        f"SVD of a {m.shape[0]}x{m.shape[1]} block did not converge")


def _gram_cut(m: np.ndarray, chi_max: int, rel: float) -> Optional[SvdFactors]:
    """The cut of ``m`` to ``chi_max`` values from the eigendecomposition of
    its smaller Gram matrix, or None where gesdd must take it instead.

    A wide block a = m has G = a a^H, whose top ``chi_max`` eigenpairs
    (s_k^2, u_k) give the left factor; the right one is u_k^H a / s_k, and
    the dropped weight is the sum of the remaining eigenvalues.  A tall
    block is cut as a = m^T, and its factors map back by plain transposes,
    not conjugate ones.

    None when min(M, N) <= ``chi_max`` (nothing to cut), when G is not
    finite or eigh fails, when the first dropped value is below
    ``_GRAM_TAU * s_0`` (its tail is not resolved), or when the last kept
    value is not above ``rel * s_0`` by more than the error the resolution
    allows, so that gesdd's rule might keep fewer than ``chi_max`` values.
    Otherwise the kept count is ``chi_max``, as gesdd's rule would have it.
    """
    rows, cols = m.shape
    if min(rows, cols) <= chi_max:
        return None
    wide = rows <= cols
    a = m if wide else m.T
    g = np.dot(a, a.conj().T)
    if not np.isfinite(g).all():
        return None
    try:
        lam, vecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    lam = lam[::-1]
    s = np.sqrt(lam[:chi_max + 1].clip(0.0))
    slack = 1.0 + max(rows, cols) * np.finfo(s.dtype).eps / _GRAM_TAU ** 2
    if not (s[0] > 0.0 and s[chi_max] >= _GRAM_TAU * s[0]
            and s[chi_max - 1] >= rel * slack * s[0]):
        return None
    s = s[:chi_max]
    u = vecs[:, :-chi_max - 1:-1]
    vh = np.dot(u.conj().T, a) / s[:, None]
    w = float(np.sum(lam[chi_max:].clip(0.0)))
    if not wide:  # m^T = u s vh
        u, vh = vh.T, u.T
    return SvdFactors(np.ascontiguousarray(u), s, np.ascontiguousarray(vh), w)


def svd_truncate(m: np.ndarray, chi_max: int, cutoff: float = 0.0,
                 gram: bool = False) -> SvdFactors:
    """SVD of a matrix, truncated by bond cap and relative cutoff.

    Values with s_k < max(cutoff, max(M, N) * eps) * s_0 are dropped, for an
    M x N block and eps the machine epsilon of its dtype.  The second term is
    the round-off floor, the usual numerical-rank tolerance: below it a
    singular value is noise of the SVD itself, so ``cutoff = 0`` keeps every
    value above the round-off floor, and any cutoff at or above the floor
    acts alone.  A degenerate multiplet straddling the boundary is kept whole
    (the kept set is extended by at most the multiplet size) so results do
    not depend on backend ordering of equal values.  The hard ``chi_max`` cap
    is applied afterwards and is absolute.  ``discarded_weight`` is the plain
    sum of squared dropped values, those below the floor included.

    With ``gram`` set the caller expects the cap to decide the cut, and it
    is first taken from the block's Gram matrix (``_gram_cut``), 1.7x to 8x
    cheaper at the zip-up's shapes.  gesdd takes the block wherever that
    cut is not resolved (``_GRAM_TAU``) or the cap would not decide it, so
    the same number of values is kept either way.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be a positive integer")
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    # the floor in the precision of the singular values
    rel = max(cutoff, max(m.shape) * np.finfo(np.result_type(m.dtype, 1.0)).eps)
    if gram:
        cut = _gram_cut(m, chi_max, rel)
        if cut is not None:
            return cut
    u, s, vh = _svd(m)
    keep = len(s)
    if keep > 0 and s[0] > 0.0:
        keep = int(np.sum(s >= rel * s[0]))
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


# serializes the save, pin and restore of ``one_blas_thread`` blocks
_PIN_LOCK = threading.Lock()


@contextlib.contextmanager
def one_blas_thread() -> Iterator[Optional[int]]:
    """Run every loaded OpenBLAS on one thread inside the block.

    The engine's SVDs are 64 to 512 wide at the bundled bond dimensions;
    there OpenBLAS's own threads lose wall time or save little of it for
    twice the CPU, and independent jobs use the cores better.  Results then
    also do not depend on the host's core count.  Yields 1, or None when no
    OpenBLAS control was found (the block then runs unchanged).  The
    caller's counts are restored on exit.  Setting ``OPENBLAS_NUM_THREADS``
    instead would have no effect once numpy is loaded, and would leak into
    child processes.
    """
    with _PIN_LOCK:
        libs = _openblas_libs()
        saved = [(put, get()) for get, put in libs.values()]
        for put, _ in saved:
            put(1)
    try:
        yield 1 if libs else None
    finally:
        with _PIN_LOCK:
            for put, n in saved:
                put(n)


def __getattr__(name: str):
    """``tensor.scipy``, imported on first access.  The engine never uses
    it; it is kept for code that patches ``scipy.linalg.svd`` through this
    module."""
    if name == "scipy":
        import scipy.linalg
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
