"""Dense complex tensor primitives: truncated SVD, the folded-index tables,
and the BLAS thread pin the command line runs them under.

The engine needs numpy only.  Every cut goes through ``svd_truncate``:
screen, route, gesdd, retry.  The block is screened once for a NaN or an
infinity (``_screened``) before any route sees it.  A cut that its caller's
sweep (``SweepHint``) expects the bond cap to decide may then come from a
cheaper route: the eigendecomposition of the block's smaller Gram matrix
(``_gram_cut``) where the previous cut's spectrum was resolved at the cap
(``_GRAM_TAU``), or a sketch of its range with a fixed +-1 test matrix
(``_sketch_cut``) where that tail was far lower (``_SKETCH_TAIL``), on
blocks wide enough for the sketch to pay (``_SKETCH_SIDE``), until a
sketch in the sweep gives way.  A sketched cut is kept only under an
after-the-fact certificate: the cap decides its kept count for the block's
own singular values, its residual is at most ``_SKETCH_ETA`` times its
first dropped value, so its error is at most sqrt(1 + eta^2) times
gesdd's, and it reproduces the block on its kept right vectors to the
relative precision of the Gram cut's values.  Elsewhere numpy's gesdd
(``_gesdd``, its one call site) takes the block, retried through a QR
factorization where it fails (``_svd``).

Folded-index convention used throughout the package: a physical leg of the
temporal chain has dimension 4 and enumerates the forward/backward z-value
pair as (up,up), (up,down), (down,up), (down,down) -> 0..3, with up = +1.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
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

# Resolution of the Gram cut's kept block.  The same error in G rotates the
# last kept eigenvector into the first dropped one by about
# eps * s_0^2 / (lambda_{chi-1} - lambda_chi), which moves the kept block by
# about eps * s_0 * r, r = s_0 s_{chi-1} / (lambda_{chi-1} - lambda_chi); up
# to 11 eps s_0 r was measured on 20 to 128 wide blocks.  gesdd's own
# rotation there is s_0 / (s_{chi-1} + s_chi) times smaller.  The cut is
# taken from G only where r <= _GRAM_GAP.  On random 30 x 20 spectra the
# Gram block then stayed within 3.6e-13 s_0 of gesdd's, against 2.6e-11 s_0
# without the bound at r ~ 4e6; the DTC workload's cuts at the cap reach
# r = 8.5e3.  A pair degenerate across the cap, whose kept block round-off
# decides, goes to gesdd too.
_GRAM_GAP = 1e4

# The sketched cut (``_sketch_cut``) samples the block's range with
# l = chi + _SKETCH_OVERSAMPLE columns and keeps its cut only where the
# residual of the sampled range is at most _SKETCH_ETA times the first
# dropped value.  That bounds the error, not the kept subspace: on a flat
# tail (the DTC workload's, s_chi ~ 3e-4 s_0) a certified sketch keeps a
# subspace that differs from gesdd's by 1e-6 s_0, and which one depends on
# how round-off rotated the bond bases, so its outputs moved by 1e-9 under
# h + 1 ulp.  The cut is therefore also kept only where it reproduces the
# block on its kept right vectors to eps / (2 tau^2) s_0, the relative
# precision of the Gram cut's values.  On the confined quench's steep tails
# (s_chi ~ 1e-8 s_0) it does so to 4.6e-12 s_0 at worst.
_SKETCH_OVERSAMPLE = 12
_SKETCH_ETA = 0.3

# Where the sketched cut is asked for (``_hinted_cut``).  The block must be
# at least _SKETCH_SIDE * l on its smaller side: the sketch makes five
# passes over the block, and on one thread it cost 0.48 of gesdd's time on
# 128 x 128 and 256 x 256 blocks (l = 44 and 76), 0.7 to 0.8 on blocks 2.3
# to 2.7 l wide, and more than gesdd below 2 l.  The previous cut's tail
# must be below _SKETCH_TAIL * s_0, since the kept part must be reproduced
# to 1.1e-10 s_0: configs/fig5.cfg's DTC blocks, whose previous tails sit
# between _SKETCH_TAIL and _GRAM_TAU, certified 3 of 162 sketches.  A
# sketch that gives way costs half a gesdd on top of the gesdd that then
# takes the block, and the next blocks of a sweep are like it: on
# configs/fig4.cfg (chi = 64) 95% of the asks after a certified sketch
# certified, 1% of those after one that gave way.  So a sweep asks for no
# more sketches once one gives way.
_SKETCH_SIDE = 2.5
_SKETCH_TAIL = _GRAM_TAU ** 2

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


@dataclass
class SweepHint:
    """What a sweep of cuts tells ``svd_truncate`` about its next cut.

    Neighbouring bonds of a sweep have similar spectra: after a cut that
    kept ``chi_max`` values the cap likely decides the next one too.
    ``tail`` is that cut's s[-1] / s[0], None after a cut the cap did not
    decide; it picks the cheaper factorization to ask for.  ``sketch``
    turns False once a sketched cut gave way: the sweep's tails past the
    cap are then too flat to certify, and it asks for no more.  A sweep
    makes one hint and passes it to each of its cuts, and ``svd_truncate``
    updates it after every cut.
    """
    tail: Optional[float] = None
    sketch: bool = True


def _screened(m: np.ndarray) -> bool:
    """Whether the squared norm of ``m`` is finite.  No sum of squared
    moduli cancels a NaN or an infinity, and ``np.vdot`` warns on neither;
    a squared norm that overflows (entries above about 1e154) fails too."""
    return bool(np.isfinite(np.vdot(m, m)))


def _gesdd(m: np.ndarray):
    """gesdd's thin factors (u, s, vh) of ``m``, or None where it raises or
    returns non-finite values."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    return (u, s, vh) if np.isfinite(s).all() else None


def _svd(m: np.ndarray):
    """Thin SVD of ``m``.  gesdd takes a block that passes the screen; it
    can return NaN values for a block holding an infinity, or never return.
    Any other block, or one gesdd fails on, goes to the retry.  It raises
    ``NumericalInstabilityError`` on a NaN or an infinity entry, runs gesdd
    on the triangular factor R of a Householder QR of ``m`` (of its
    transpose when ``m`` is wide), then on R's transpose, maps the factors
    back, and raises where both fail.
    """
    f = _gesdd(m) if _screened(m) else None
    if f is not None:
        return f
    if not np.isfinite(m).all():
        raise NumericalInstabilityError(
            f"SVD of a {m.shape[0]}x{m.shape[1]} block with non-finite entries")
    wide = m.shape[0] < m.shape[1]
    q, r = np.linalg.qr(m.T if wide else m)
    for flip in (False, True):
        f = _gesdd(r.T if flip else r)
        if f is None:
            continue
        u, s, vh = f
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

    The block has passed the screen.  None when min(M, N) <= ``chi_max``
    (nothing to cut), when eigh fails, when the first dropped value is below
    ``_GRAM_TAU * s_0`` (its tail is not resolved), when the last kept
    value is not above ``rel * s_0`` by more than the error the resolution
    allows, so that gesdd's rule might keep fewer than ``chi_max`` values,
    or when the last kept and the first dropped value are too close for the
    kept block to be resolved (``_GRAM_GAP``).
    Otherwise the kept count is ``chi_max``, as gesdd's rule would have it.
    """
    rows, cols = m.shape
    if min(rows, cols) <= chi_max:
        return None
    wide = rows <= cols
    a = m if wide else m.T
    g = np.dot(a, a.conj().T)
    try:
        lam, vecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    lam = lam[::-1]
    s = np.sqrt(lam[:chi_max + 1].clip(0.0))
    slack = 1.0 + max(rows, cols) * np.finfo(s.dtype).eps / _GRAM_TAU ** 2
    if not (s[0] > 0.0 and s[chi_max] >= _GRAM_TAU * s[0]
            and s[chi_max - 1] >= rel * slack * s[0]
            and _GRAM_GAP * (lam[chi_max - 1] - lam[chi_max]) >= s[0] * s[chi_max - 1]):
        return None
    s = s[:chi_max]
    u = vecs[:, :-chi_max - 1:-1]
    vh = np.dot(u.conj().T, a) / s[:, None]
    w = float(np.sum(lam[chi_max:].clip(0.0)))
    if not wide:  # m^T = u s vh
        u, vh = vh.T, u.T
    return SvdFactors(np.ascontiguousarray(u), s, np.ascontiguousarray(vh), w)


@functools.lru_cache(maxsize=32)
def _sketch_matrix(rows: int, cols: int) -> np.ndarray:
    """The read-only rows x cols +-1 test matrix of ``_sketch_cut``.

    Entry k in row-major order is -1 where the top bit of the k-th output of
    a splitmix64 generator seeded with 0, mix((k + 1) * 0x9E3779B97F4A7C15),
    is set, and +1 otherwise.  It is a pure function of the shape, so a cut
    does not depend on the order of calls, on the thread or on
    ``numpy.random``, and the cache keeps one copy per shape.
    """
    z = np.arange(1, rows * cols + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    omega = 1.0 - 2.0 * (z >> np.uint64(63)).astype(np.float64)
    omega = omega.reshape(rows, cols)
    omega.flags.writeable = False
    return omega


def _sketch_cut(m: np.ndarray, chi_max: int, rel: float) -> Optional[SvdFactors]:
    """The cut of ``m`` to ``chi_max`` values from a sketch of its range, or
    None where gesdd must take it instead.

    A randomized range finder with one power step (Halko, Martinsson &
    Tropp, SIAM Rev. 53, 217 (2011), Alg. 4.4) on the fixed test matrix
    Omega of ``_sketch_matrix``, with l = chi_max + ``_SKETCH_OVERSAMPLE``
    columns: Q = qr(m D Omega), then Q = qr(m qr(m^H Q)), and gesdd of the
    l x N block B = Q^H m = U_B s_B V^H, taken as that of the tall B^H.  The
    cut keeps U = Q U_B, s_B and V^H to ``chi_max`` values.  D is diagonal:
    entry j is the phase (for real blocks the sign) that makes column j's
    overlap with the block's heaviest column positive.  The bond bases of a
    block carry signs that gesdd chose, and round-off can flip them.  D
    undoes a flip of a column basis vector, and a flip of a row basis vector
    flips the same row of every Q, so neither changes the cut.  Without D,
    h + 1 ulp moved the confined quench's C by 6.6e-11; with it, 3e-14.

    The residual E = m - Q B is orthogonal to Q, so m^H m = B^H B + E^H E
    and the k-th singular value of m lies in [s_B[k], sqrt(s_B[k]^2 +
    |E|^2)].  The cut is kept only under a certificate that holds for m's
    own singular values:

    - the cap decides the kept count: s_B[chi - 1] is at least ``rel`` times
      the bound sqrt(s_B[0]^2 + |E|_F^2) on m's largest value, with a margin
      of max(M, N) eps for the round-off of s_B, so gesdd's rule keeps
      ``chi_max`` values too;
    - |E|_F <= ``_SKETCH_ETA`` s_B[chi], so the error |E|_F^2 +
      sum s_B[chi:]^2, which is the discarded weight reported, is at most
      1 + eta^2 times gesdd's, sum of m's own dropped values squared;
    - |E V_chi|_F, the part of m on the kept right vectors that the sampled
      range misses, is at most eps / (2 tau^2) s_B[0], the relative
      precision of the Gram cut's values (``_GRAM_TAU``).  A flat tail,
      whose sketch keeps a subspace that differs from gesdd's at the
      truncation level, gives way here.

    None also when gesdd of B fails.  The block has passed the screen, and
    it must be larger than l on both sides; ``_hinted_cut`` asks only for
    blocks at least ``_SKETCH_SIDE`` l on each.
    """
    rows, cols = m.shape
    ell = chi_max + _SKETCH_OVERSAMPLE
    norms = np.linalg.norm(m, axis=0)
    overlap = np.dot(m[:, np.argmax(norms)].conj(), m)
    size = np.abs(overlap)
    phase = np.where(size > 0.0, overlap.conj(), 1.0) / np.where(size > 0.0, size, 1.0)
    mh = m.conj().T if np.iscomplexobj(m) else m.T
    q = np.linalg.qr(np.dot(m, _sketch_matrix(cols, ell) * phase[:, None]))[0]
    q = np.linalg.qr(np.dot(m, np.linalg.qr(np.dot(mh, q))[0]))[0]
    bh = np.dot(mh, q)
    f = _gesdd(bh)
    if f is None:
        return None
    v, s, ubh = f  # B = ubh^H s v^H
    resid = m - np.dot(q, bh.conj().T)
    e = float(np.linalg.norm(resid))
    v = v[:, :chi_max]
    eps = np.finfo(s.dtype).eps
    floor = max(rows, cols) * eps
    if not (s[0] > 0.0 and e <= _SKETCH_ETA * s[chi_max]
            and s[chi_max - 1] >= (rel + floor) * math.hypot(s[0], e)
            and np.linalg.norm(np.dot(resid, v)) <= eps / (2 * _GRAM_TAU ** 2) * s[0]):
        return None
    w = float(np.sum(s[chi_max:] ** 2)) + e * e
    return SvdFactors(np.dot(q, ubh[:chi_max].conj().T), s[:chi_max].copy(),
                      np.ascontiguousarray(v.conj().T), w)


def _hinted_cut(m: np.ndarray, chi_max: int, rel: float,
                hint: SweepHint) -> Optional[SvdFactors]:
    """The Gram or the sketched cut that ``hint`` asks for, or None where
    gesdd must take the block.

    A tail of at least ``_GRAM_TAU`` asks for the Gram cut.  A tail below
    ``_SKETCH_TAIL`` asks for the sketched cut, on a block at least
    ``_SKETCH_SIDE`` l on its smaller side, until one gives way in the
    sweep.  A tail in between, or none, asks for nothing.  A block that
    fails the screen reaches neither route.
    """
    tail = hint.tail
    if tail is not None and tail >= _GRAM_TAU:
        route = _gram_cut
    elif (tail is not None and tail < _SKETCH_TAIL and hint.sketch
          and min(m.shape) >= _SKETCH_SIDE * (chi_max + _SKETCH_OVERSAMPLE)):
        route = _sketch_cut
    else:
        return None
    if not _screened(m):
        return None
    cut = route(m, chi_max, rel)
    if route is _sketch_cut:
        hint.sketch = cut is not None
    return cut


def svd_truncate(m: np.ndarray, chi_max: int, cutoff: float = 0.0,
                 hint: Optional[SweepHint] = None) -> SvdFactors:
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

    ``hint`` is the caller's sweep (``SweepHint``), updated by this cut.
    Where it says the cap likely decides this cut, the cut is first asked of
    the Gram cut (``_gram_cut``, 1.7x to 8x cheaper than gesdd at the
    zip-up's shapes) or of the sketched cut (``_sketch_cut``, about 2x on
    large blocks with steep tails); see ``_hinted_cut``.  A block reaches
    either route only after it passed the screen (``_screened``).  gesdd
    takes the block wherever the cut asked for gives way, so the same
    number of values is kept either way.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be a positive integer")
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    # the floor in the precision of the singular values
    rel = max(cutoff, max(m.shape) * np.finfo(np.result_type(m.dtype, 1.0)).eps)
    cut = None if hint is None else _hinted_cut(m, chi_max, rel, hint)
    if cut is None:
        cut = _gesdd_cut(m, chi_max, rel)
    if hint is not None:
        s = cut.s
        hint.tail = s[-1] / s[0] if len(s) == chi_max and s[0] > 0.0 else None
    return cut


def _gesdd_cut(m: np.ndarray, chi_max: int, rel: float) -> SvdFactors:
    """``svd_truncate``'s rule on gesdd's factors."""
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
