"""Small helpers shared by test modules."""
import tracemalloc
from dataclasses import replace
from typing import Tuple

import numpy as np

from temporal_im.influence import InfluenceMatrix
from temporal_im.mps import TemporalMpo, TemporalMps, ZipupResult
from temporal_im.observables import Insertion, InsertionPlan
from temporal_im import tensor
from temporal_im.tensor import SweepHint, _openblas_libs, svd_truncate


def im_bits(im: InfluenceMatrix) -> tuple:
    """Everything ``im`` holds, compared bit for bit when two results are
    compared: each ``psi`` tensor's shape, dtype and bytes, ``norm_log``,
    ``canonical_center``, the iteration count, ``converged``,
    ``diagnostics``, ``spec`` and ``made_by``.  The impurity's alpha is set
    to 0 in the spec, since an IM does not depend on it."""
    psi, spec = im.psi, im.spec
    if spec.impurity is not None:
        spec = replace(spec, impurity=replace(spec.impurity, alpha=0.0))
    return ([(t.shape, t.dtype.str, t.tobytes()) for t in psi.tensors],
            float(psi.norm_log).hex(), psi.canonical_center,
            im.iterations_applied, im.converged, im.diagnostics, spec,
            im.made_by)


def czz_plan(T: int) -> InsertionPlan:
    """sigma^z at time 0 and time T, forward branch: the autocorrelator."""
    return InsertionPlan([Insertion(0, "forward", "z"),
                          Insertion(T, "forward", "z")])


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs, above what was traced when
    it started.  numpy reports its data buffers to tracemalloc, so this
    counts every array ``fn`` holds at once, not the allocator's heap."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def blas_threads() -> Tuple[int, ...]:
    """Current thread count of each loaded OpenBLAS; empty if none is found."""
    return tuple(get() for get, _ in _openblas_libs().values())


def failing_svd(monkeypatch, failures: int) -> list:
    """Make ``np.linalg.svd`` raise on its first ``failures`` calls; returns
    the BLAS thread counts seen at each call."""
    real_svd = np.linalg.svd
    seen = []

    def svd(*args, **kwargs):
        seen.append(blas_threads())
        if len(seen) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return seen


def cut_spy(monkeypatch, name: str) -> list:
    """Spy on the cut ``tensor.<name>`` (``_gram_cut`` or ``_sketch_cut``):
    one entry per call, True where it took the cut."""
    real, calls = getattr(tensor, name), []

    def cut(m, chi_max, rel):
        f = real(m, chi_max, rel)
        calls.append(f is not None)
        return f

    monkeypatch.setattr(tensor, name, cut)
    return calls


# ---- np.tensordot references of the contraction kernels in ``mps``; the
# kernels must match them bit for bit

def overlap_tensordot(a: TemporalMps, b: TemporalMps) -> complex:
    env = np.ones((1, 1), dtype=np.result_type(*a.tensors, *b.tensors))
    for ta, tb in zip(a.tensors, b.tensors):
        env = np.tensordot(env, tb, axes=(1, 0))
        env = np.tensordot(ta.conj(), env, axes=([0, 1], [0, 1]))
    return complex(env[0, 0]) * np.exp(a.norm_log + b.norm_log)


def _entropy_ref(s: np.ndarray) -> float:
    nrm = np.linalg.norm(s)
    lam = s / nrm if nrm > 0 else s
    w = lam ** 2
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def zipup_tensordot(op: TemporalMpo, psi: TemporalMps, chi_max: int,
                    cutoff: float = 0.0) -> ZipupResult:
    """``apply_mpo_zipup`` written with np.tensordot and np.linalg.norm.  Its
    first sweep passes ``svd_truncate`` one ``SweepHint``, as the kernel's
    does."""
    T, norm_log, discarded, out = psi.T, psi.norm_log, 0.0, []

    def event(m, hint=None):
        u, s, vh, w = svd_truncate(m, chi_max, cutoff, hint=hint)
        total = float(np.sum(s ** 2)) + w
        nonlocal discarded
        discarded += w / total if total > 0 else 0.0
        return u, s, vh

    zipper = np.ones((1, 1, 1), dtype=np.result_type(*op.tensors, *psi.tensors))
    hint = SweepHint()
    for i in range(T):
        tmp = np.tensordot(zipper, psi.tensors[i], axes=(2, 0))
        theta = np.tensordot(tmp, op.tensors[i], axes=([1, 2], [0, 2]))
        theta = theta.transpose(0, 2, 3, 1)
        c, _, wr, ar = theta.shape
        if i == T - 1:
            out.append(theta.reshape(c, 4, wr * ar))
            break
        u, s, vh = event(theta.reshape(c * 4, wr * ar), hint)
        out.append(u.reshape(c, 4, -1))
        sn = float(np.linalg.norm(s))
        if sn > 0:
            norm_log += np.log(sn)
            s = s / sn
        zipper = (s[:, None] * vh).reshape(-1, wr, ar)
    entropies = [0.0] * (T - 1)
    for i in range(T - 1, 0, -1):
        chi_l, _, chi_r = out[i].shape
        u, s, vh = event(out[i].reshape(chi_l, 4 * chi_r))
        entropies[i - 1] = _entropy_ref(s)
        out[i] = vh.reshape(-1, 4, chi_r)
        sn = float(np.linalg.norm(s))
        if sn > 0:
            norm_log += np.log(sn)
            s = s / sn
        out[i - 1] = np.tensordot(out[i - 1], u * s[None, :], axes=(2, 0))
    return ZipupResult(TemporalMps(out, norm_log=norm_log, canonical_center=0),
                       discarded, entropies)
