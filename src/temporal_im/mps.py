"""Matrix-product states and operators over the folded temporal chain.

Site tensors are (left bond, physical 4, right bond); boundary bonds have
extent 1.  Norms are tracked in log space (``norm_log``) instead of being
folded into the amplitudes, so the represented vector is

    exp(norm_log) * contraction(tensors).

That keeps long chains (T of a few hundred) inside double range and makes
the eigenvalue drift of the power iteration observable.

An MPO is applied to a state in two sweeps.  The left-to-right sweep
(``_sweep``) absorbs one site at a time and splits each block into a left
isometry and the carry to the next site; the right-to-left sweep
(``_compress_leftward``) cuts every bond once more, and its kept values
give the bond entropies of the returned state.  The two applications
differ only in the split: the zip-up (``apply_mpo_zipup``) cuts each
block to chi_max, so it can grow every bond up to the cap, and the fit
(``apply_mpo_fit``; Stoudenmire & White, NJP 12, 055026 (2010)) projects
it onto the input's right environments, so it keeps the input's bonds,
needs no SVD of the wide blocks, and certifies its own residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

import numpy as np

from .tensor import SweepHint, _svd, svd_truncate


@dataclass
class TemporalMps:
    tensors: List[np.ndarray]
    norm_log: float = 0.0
    canonical_center: Optional[int] = None

    @property
    def T(self) -> int:
        return len(self.tensors)

    def max_bond(self) -> int:
        return max((t.shape[0] for t in self.tensors[1:]), default=1)

    def dense(self) -> np.ndarray:
        """Full 4^T amplitude vector.  Small T only."""
        v = self.tensors[0]
        for t in self.tensors[1:]:
            v = np.tensordot(v, t, axes=(v.ndim - 1, 0))
        v = v.reshape(-1)
        return v * np.exp(self.norm_log)


@dataclass
class TemporalMpo:
    tensors: List[np.ndarray]  # (left bond, phys out 4, phys in 4, right bond)

    @property
    def T(self) -> int:
        return len(self.tensors)

    def dense(self) -> np.ndarray:
        """Full 4^T x 4^T matrix.  Small T only."""
        m = self.tensors[0]
        for t in self.tensors[1:]:
            # out axes first, in axes second, keep right bond last
            m = np.tensordot(m, t, axes=(m.ndim - 1, 0))
        # m has axes (1, o_0, i_0, o_1, i_1, ..., 1)
        m = m.reshape(m.shape[1:-1])
        T = len(self.tensors)
        perm = list(range(0, 2 * T, 2)) + list(range(1, 2 * T, 2))
        return m.transpose(perm).reshape(4 ** T, 4 ** T)


def product_mps(site_vectors: List[np.ndarray]) -> TemporalMps:
    tensors = [np.asarray(v, dtype=complex).reshape(1, 4, 1) for v in site_vectors]
    return TemporalMps(tensors)


def canonicalize(psi: TemporalMps, center: int) -> TemporalMps:
    """Return a copy in mixed-canonical form about ``center``.

    Left of the center all tensors are left isometries, right of it right
    isometries; the center carries the state norm, which is factored out
    into norm_log so tensors stay O(1).
    """
    T = psi.T
    if not 0 <= center < T:
        raise ValueError(f"center {center} outside chain of length {T}")
    tensors = list(psi.tensors)  # entries are replaced, never written into
    norm_log = psi.norm_log
    for i in range(center):
        chi_l, _, chi_r = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(chi_l * 4, chi_r))
        tensors[i] = q.reshape(chi_l, 4, -1)
        tensors[i + 1] = np.dot(r, tensors[i + 1].reshape(chi_r, -1)).reshape(len(r), 4, -1)
    for i in range(T - 1, center, -1):
        chi_l, _, chi_r = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(chi_l, 4 * chi_r).conj().T)
        tensors[i] = q.conj().T.reshape(-1, 4, chi_r)
        cl = tensors[i - 1].shape[0]
        tensors[i - 1] = np.dot(tensors[i - 1].reshape(cl * 4, chi_l),
                                r.conj().T).reshape(cl, 4, -1)
    nrm = float(np.linalg.norm(tensors[center]))
    if nrm > 0.0:
        tensors[center] = tensors[center] / nrm
        norm_log += np.log(nrm)
    return TemporalMps(tensors, norm_log=norm_log, canonical_center=center)


def overlap(a: TemporalMps, b: TemporalMps) -> complex:
    """<a|b> with conjugation on ``a``, including both norm_log factors."""
    if a.T != b.T:
        raise ValueError(f"length mismatch: {a.T} vs {b.T}")
    # real states keep the environment, and its matmuls, in float64
    env = np.ones((1, 1), dtype=np.result_type(*a.tensors, *b.tensors))
    for ta, tb in zip(a.tensors, b.tensors):
        env = np.dot(env, tb.reshape(len(tb), -1))                  # (ca, p cb')
        bra = ta.conj().transpose(2, 0, 1).reshape(ta.shape[2], -1)  # (ca', ca p)
        env = np.dot(bra, env.reshape(-1, tb.shape[2]))             # (ca', cb')
    return complex(env[0, 0]) * np.exp(a.norm_log + b.norm_log)


def mps_norm(psi: TemporalMps) -> float:
    return float(np.sqrt(abs(overlap(psi, psi))))


def _unit_norm(s: np.ndarray):
    """``s`` scaled to unit norm, and the log of its norm (0 for s = 0)."""
    sn = math.sqrt(s.dot(s))  # np.linalg.norm(s), bit for bit
    return (s / sn, np.log(sn)) if sn > 0 else (s, 0.0)


def _schmidt_entropy(s: np.ndarray) -> float:
    """Von Neumann entropy (natural log) of Schmidt values ``s`` scaled to
    unit norm (``_unit_norm``)."""
    w = s ** 2
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def entropy_profile(psi: TemporalMps) -> List[float]:
    """Entropies at every interior bond, computed in one canonical sweep."""
    T = psi.T
    if T == 1:
        return []
    c = canonicalize(psi, 0)
    out = []
    tensors = c.tensors
    carry = tensors[0]
    for i in range(T - 1):
        chi_l, _, chi_r = carry.shape
        u, s, vh = _svd(carry.reshape(chi_l * 4, chi_r))
        s = _unit_norm(s)[0]
        out.append(_schmidt_entropy(s))
        carry = np.tensordot(s[:, None] * vh, tensors[i + 1], axes=(1, 0))
    return out


@dataclass
class ZipupResult:
    psi: TemporalMps
    discarded_weight: float  # summed relative dropped fraction over all SVD events
    entropies: List[float]   # von Neumann entropy of bonds 1..T-1
    # what made psi: "zipup", "fit", or "fit_refused" (the zip-up that took
    # an application whose fit the caller refused)
    route: str = "zipup"


def _truncate_event(theta: np.ndarray, chi_max: int, cutoff: float,
                    hint: Optional[SweepHint] = None):
    """One cut of a sweep: the kept u, s, vh with s scaled to unit norm,
    the log of that norm, and the dropped fraction of the block's weight."""
    u, s, vh, w = svd_truncate(theta, chi_max, cutoff, hint=hint)
    total = float(np.sum(s ** 2)) + w
    frac = w / total if total > 0 else 0.0
    s, log_norm = _unit_norm(s)
    return u, s, vh, log_norm, frac


def _absorb(zipper: np.ndarray, A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """One site taken into the left-to-right sweep: the carry ``zipper``
    (c, wl, al) contracted with the state tensor ``A`` and the MPO tensor
    ``W`` into (c, pout, wr, ar)."""
    (c, wl, al), ar, wr = zipper.shape, A.shape[2], W.shape[3]
    # plain matrix products on the operand layouts np.tensordot builds, so
    # the rounding is tensordot's
    tmp = np.dot(zipper.reshape(c * wl, al), A.reshape(al, 4 * ar))  # (c wl, pin ar)
    tmp = tmp.reshape(c, wl, 4, ar).transpose(0, 3, 1, 2).reshape(c * ar, wl * 4)
    theta = np.dot(tmp, W.transpose(0, 2, 1, 3).reshape(wl * 4, 4 * wr))
    return theta.reshape(c, ar, 4, wr).transpose(0, 2, 3, 1)


def _sweep(op: TemporalMpo, psi: TemporalMps, split: Callable):
    """The left-to-right sweep of an MPO application, as (sites, norm_log,
    summed dropped fractions).

    Each site is absorbed into the carry (``_absorb``), and ``split`` turns
    the (c pout, wr ar) block into a left isometry, the next carry, the log
    of the norm taken off it, and the fraction of the block's weight it
    dropped.  The last site is kept whole.
    """
    if op.T != psi.T:
        raise ValueError(f"length mismatch: mpo {op.T} vs mps {psi.T}")
    norm_log = psi.norm_log
    discarded = 0.0
    out: List[np.ndarray] = []
    # the carry is (new bond, mpo bond, mps bond); real inputs keep the
    # sweep and its factorizations in float64
    zipper = np.ones((1, 1, 1), dtype=np.result_type(*op.tensors, *psi.tensors))
    for i, (A, W) in enumerate(zip(psi.tensors, op.tensors)):
        theta = _absorb(zipper, A, W)
        c, _, wr, ar = theta.shape
        if i == psi.T - 1:
            out.append(theta.reshape(c, 4, wr * ar))
            break
        u, carry, log_norm, frac = split(theta.reshape(c * 4, wr * ar))
        norm_log += log_norm
        discarded += frac
        out.append(u.reshape(c, 4, -1))
        zipper = carry.reshape(-1, wr, ar)
    return out, norm_log, discarded


def _compress_leftward(out: List[np.ndarray], norm_log: float,
                       discarded: float, cutoff: float) -> ZipupResult:
    """The right-to-left sweep that ends a zip-up and a fit.

    Every site of ``out`` left of the last is a left isometry, so when bond
    i is cut everything left of it is still left-isometric and everything
    right of it already right-isometric: the kept values are the Schmidt
    values of the returned state, up to the cutoff-level truncations the
    sweep makes further left afterwards, and ``entropies`` holds their von
    Neumann entropies.  No bond of ``out`` is wider than the cap already,
    so each cut is capped at its block's row count, which never binds; it
    drops only values below max(``cutoff``, round-off floor) * s_0, its
    dropped fractions added to ``discarded``.  Its blocks go to gesdd.  The
    result is canonical about site 0.
    """
    T = len(out)
    entropies = [0.0] * (T - 1)
    for i in range(T - 1, 0, -1):
        chi_l, _, chi_r = out[i].shape
        u, s, vh, log_norm, frac = _truncate_event(
            out[i].reshape(chi_l, 4 * chi_r), chi_l, cutoff)
        norm_log += log_norm
        discarded += frac
        entropies[i - 1] = _schmidt_entropy(s)
        out[i] = vh.reshape(-1, 4, chi_r)
        cl = out[i - 1].shape[0]
        out[i - 1] = np.dot(out[i - 1].reshape(cl * 4, chi_l), u * s[None, :]).reshape(cl, 4, -1)
    return ZipupResult(TemporalMps(out, norm_log=norm_log, canonical_center=0),
                       discarded, entropies)


def apply_mpo_zipup(op: TemporalMpo, psi: TemporalMps, chi_max: int,
                    cutoff: float = 0.0) -> ZipupResult:
    """Compressed application op|psi> by the zip-up method.

    The left-to-right sweep (``_sweep``) cuts each block to chi_max as it
    absorbs the MPO, so the peak intermediate bond stays <= chi * mpo bond
    and every bond ends at most chi_max wide; the right-to-left sweep
    (``_compress_leftward``) gives the entropies with no extra SVD.  The
    discarded weight is the summed relative dropped fraction of every cut.
    The cuts of the first sweep share one ``SweepHint``: after a cut that
    kept ``chi_max`` values the cap likely decides the next one too, and
    ``svd_truncate`` may then take it from the Gram matrix.
    """
    hint = SweepHint()

    def cut(block):
        u, s, vh, log_norm, frac = _truncate_event(block, chi_max, cutoff, hint)
        return u, s[:, None] * vh, log_norm, frac

    return _compress_leftward(*_sweep(op, psi, cut), cutoff)


@dataclass
class FitResult(ZipupResult):
    """``apply_mpo_fit``'s result.  ``discarded_weight`` is ``residual``
    plus the right-to-left sweep's dropped fractions."""
    residual: float = 0.0  # certified 1 - ||M_{T-1}||^2 / ||op psi||^2


# the certificate contracts each site in this many slices of the bra bond
_CERT_SLICES = 4


def _log_norm2_of_product(op: TemporalMpo, psi: TemporalMps) -> float:
    """log ||op psi||^2 without ``psi.norm_log``, from one double-layer
    sandwich <psi| op^H op |psi> swept left to right.

    The pair tensor sum_p' conj(W) (x) W over the output leg is built once
    per distinct MPO tensor, so a slice's interior sites share one, and
    applied through its SVD cut at the round-off floor: on a slice's
    interior it has rank 16 of 64, which halves that contraction.  The
    environment (a', w', w, a) is rescaled to unit norm at every site, its
    log kept apart, and each site is contracted in ``_CERT_SLICES`` slices
    of the bra bond, so that its two temporaries hold a quarter of
    chi^2 D^2 4 entries each (128 KiB at chi = 32, D = 4).
    """
    pairs: dict = {}
    env = np.ones((1, 1, 1, 1), dtype=np.result_type(*op.tensors, *psi.tensors))
    log_scale = 0.0
    for A, W in zip(psi.tensors, op.tensors):
        if id(W) not in pairs:
            wl, _, _, wr = W.shape
            # (pin' w'r wr, w'l wl pin), of rank 16 of 64 on a slice's interior
            pair = np.einsum("aobc,doef->bcfade", W.conj(), W).reshape(
                4 * wr * wr, wl * wl * 4)
            u, sv, vh = _svd(pair)
            rank = max(1, int(np.sum(sv >= max(pair.shape) * np.finfo(sv.dtype).eps * sv[0])))
            pairs[id(W)] = (u[:, :rank] * sv[:rank], vh[:rank])
        left, right = pairs[id(W)]
        bra, wll, _, al = env.shape
        wwl, ar = wll * wll, A.shape[2]
        Ah = A.conj() if np.iscomplexobj(A) else A
        new = np.zeros((ar, left.shape[0] // 4 * ar), dtype=env.dtype)
        rows = -(-bra // _CERT_SLICES)
        for j in range(0, bra, rows):
            k = min(rows, bra - j)
            x = np.dot(env[j:j + k].reshape(k * wwl, al), A.reshape(al, 4 * ar))
            # (k, pin' w'r wr, ar)
            y = np.matmul(left, np.matmul(right, x.reshape(k, wwl * 4, ar)))
            new += np.dot(Ah[j:j + k].reshape(k * 4, ar).T,
                          y.reshape(k * 4, -1))
        nrm = float(np.linalg.norm(new))
        if nrm == 0.0:
            return -math.inf
        env = (new / nrm).reshape(ar, W.shape[3], W.shape[3], ar)
        log_scale += math.log(nrm)
    return log_scale + math.log(abs(float(env.real.reshape(-1)[0])))


def _right_environments(op: TemporalMpo, psi: TemporalMps) -> Iterator[np.ndarray]:
    """<psi|op|psi> over sites i+1..T-1 for i = 0..T-2, each (bra, mpo,
    ket bond) of unit norm, built right to left on the first ``next`` (so
    after ``_sweep``'s length check) and let go once yielded."""
    envs: List[np.ndarray] = []
    env = np.ones((1, 1, 1), dtype=np.result_type(*op.tensors, *psi.tensors))
    for i in range(psi.T - 1, 0, -1):
        A, W = psi.tensors[i], op.tensors[i]
        al, _, ar = A.shape
        wl, wr = W.shape[0], W.shape[3]
        # (a p_in, a'r wr) -> (a, p_in, a'r, wr)
        t = np.dot(A.reshape(al * 4, ar), env.reshape(-1, ar).T)
        t = t.reshape(al, 4, -1, wr).transpose(0, 2, 1, 3).reshape(al * ar, 4 * wr)
        t = np.dot(t, W.reshape(wl, 4, 4 * wr).transpose(2, 0, 1).reshape(4 * wr, wl * 4))
        # (a, a'r, wl, pout) -> (a', wl, a) with the bra site
        t = t.reshape(al, ar, wl, 4).transpose(2, 0, 3, 1).reshape(wl * al, 4 * ar)
        env = np.dot(A.conj().reshape(al, 4 * ar), t.T).reshape(al, wl, al)
        nrm = float(np.linalg.norm(env))
        env = env / nrm if nrm > 0.0 else env
        envs.append(env)
    while envs:
        yield envs.pop()


def apply_mpo_fit(op: TemporalMpo, psi: TemporalMps,
                  cutoff: float = 0.0) -> FitResult:
    """op|psi> by one variational sweep warm-started from ``psi``.

    ``psi`` must be canonical at site 0, as every zip-up leaves it, so its
    sites right of 0 are right isometries.  Three steps:

    1. the right environments <psi|op|psi> of the input
       (``_right_environments``);
    2. the left-to-right sweep (``_sweep``) with a projection in place of
       the cut: each block, contracted with its right environment, gives by
       a thin QR the left isometry that brings the state closest to op|psi>
       with the sites right of it those of ``psi``, and the carry is the
       block projected on it.  The last site keeps its tensor M_{T-1};
    3. the zip-up's own right-to-left sweep (``_compress_leftward``).

    A bond is never wider than ``psi``'s, ``cutoff`` acts as in the
    zip-up, and the entropies are the Schmidt values of the returned state.
    After step 2 the state is the orthogonal projection of op|psi> onto the
    states with those left isometries, so its relative residual is exactly
    1 - ||M_{T-1}||^2 / ||op psi||^2, the latter from one double-layer
    sandwich (``_log_norm2_of_product``).  That is ``residual``; it reads a
    few 1e-14 either side of 0 where the fit is exact to round-off.
    """
    if psi.canonical_center != 0:
        raise ValueError("the fit starts from a state canonical at site 0")
    envs = _right_environments(op, psi)

    def project(block):
        q = np.linalg.qr(np.dot(block, next(envs).reshape(-1, block.shape[1]).T))[0]
        carry = np.dot(q.conj().T, block)
        nrm = float(np.linalg.norm(carry))
        if nrm == 0.0:
            return q, carry, 0.0, 0.0
        return q, carry / nrm, math.log(nrm), 0.0

    out, norm_log, _ = _sweep(op, psi, project)
    last = float(np.vdot(out[-1], out[-1]).real)
    kept = 2.0 * (norm_log - psi.norm_log) + (math.log(last) if last > 0 else -math.inf)
    residual = 1.0 - math.exp(kept - _log_norm2_of_product(op, psi))
    r = _compress_leftward(out, norm_log, residual, cutoff)
    return FitResult(r.psi, r.discarded_weight, r.entropies, "fit", residual)
