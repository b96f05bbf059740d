"""Matrix-product states and operators over the folded temporal chain.

Site tensors are (left bond, physical 4, right bond); boundary bonds have
extent 1.  Norms are tracked in log space (``norm_log``) instead of being
folded into the amplitudes, so the represented vector is

    exp(norm_log) * contraction(tensors).

That keeps long chains (T of a few hundred) inside double range and makes
the eigenvalue drift of the power iteration observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

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

    def bond_dims(self) -> List[int]:
        """Interior bond extents, bonds 1..T-1."""
        return [t.shape[0] for t in self.tensors[1:]]

    def max_bond(self) -> int:
        dims = self.bond_dims()
        return max(dims) if dims else 1

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


def _schmidt_entropy(s: np.ndarray) -> float:
    """Von Neumann entropy (natural log) of singular values ``s``, taken
    after normalising them so their squares sum to 1."""
    s = np.asarray(s, dtype=float)
    nrm = math.sqrt(s.dot(s))  # np.linalg.norm(s), bit for bit
    lam = s / nrm if nrm > 0 else s
    w = lam ** 2
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
        out.append(_schmidt_entropy(s))
        sn = np.linalg.norm(s)
        nxt = np.tensordot((s / sn)[:, None] * vh, tensors[i + 1], axes=(1, 0))
        carry = nxt
    return out


@dataclass
class ZipupResult:
    psi: TemporalMps
    discarded_weight: float  # summed relative dropped fraction over all SVD events
    entropies: List[float]   # von Neumann entropy of bonds 1..T-1


def _truncate_event(theta: np.ndarray, chi_max: int, cutoff: float,
                    hint: Optional[SweepHint] = None):
    u, s, vh, w = svd_truncate(theta, chi_max, cutoff, hint=hint)
    total = float(np.sum(s ** 2)) + w
    frac = w / total if total > 0 else 0.0
    return u, s, vh, frac


def apply_mpo_zipup(op: TemporalMpo, psi: TemporalMps, chi_max: int,
                    cutoff: float = 0.0) -> ZipupResult:
    """Compressed application op|psi> by the zip-up method.

    Left-to-right sweep with truncation while the MPO is being absorbed
    (peak intermediate bond stays <= chi * mpo bond), then one right-to-left
    compression sweep.  Total discarded weight is the accumulated relative
    dropped fraction over all truncation events.

    The result is canonical about site 0 and ``entropies`` holds the von
    Neumann entropy of every bond, taken from the kept singular values of
    the right-to-left sweep: no extra SVD, no extra pass.  When bond i is cut
    everything left of it is still the first sweep's left isometries and
    everything right of it is already right-isometric, so those values are
    Schmidt values.  The first sweep leaves every bond at most chi_max wide,
    so the second sweep never meets the cap and drops only values below
    max(``cutoff``, round-off floor) * s_0 (see ``svd_truncate``).  The
    reported spectra are therefore the ones after that bond's truncation,
    those of the returned state, up to the cutoff-level truncations the
    sweep makes further left afterwards.

    The cuts of the first sweep share one ``SweepHint``: after a cut that
    kept ``chi_max`` values the cap likely decides the next one too, and
    ``svd_truncate`` may then take it from the Gram matrix or a sketch.  The
    second sweep's blocks have a side of at most chi_max, so it, and with it
    the entropies, use gesdd.
    """
    if op.T != psi.T:
        raise ValueError(f"length mismatch: mpo {op.T} vs mps {psi.T}")
    T = psi.T
    norm_log = psi.norm_log
    discarded = 0.0
    out: List[np.ndarray] = []
    # zipper carries (new bond, mpo bond, mps bond); real inputs keep the
    # sweep and its SVDs in float64
    zipper = np.ones((1, 1, 1), dtype=np.result_type(*op.tensors, *psi.tensors))
    hint = SweepHint()
    for i in range(T):
        A = psi.tensors[i]
        W = op.tensors[i]
        (c, wl, al), ar, wr = zipper.shape, A.shape[2], W.shape[3]
        # plain matrix products on the operand layouts np.tensordot builds,
        # so the rounding is tensordot's
        tmp = np.dot(zipper.reshape(c * wl, al), A.reshape(al, 4 * ar))  # (c wl, pin ar)
        tmp = tmp.reshape(c, wl, 4, ar).transpose(0, 3, 1, 2).reshape(c * ar, wl * 4)
        theta = np.dot(tmp, W.transpose(0, 2, 1, 3).reshape(wl * 4, 4 * wr))
        theta = theta.reshape(c, ar, 4, wr).transpose(0, 2, 3, 1)  # (c, pout, wr, ar)
        if i == T - 1:
            out.append(theta.reshape(c, 4, wr * ar))
            break
        u, s, vh, frac = _truncate_event(theta.reshape(c * 4, wr * ar), chi_max,
                                         cutoff, hint)
        discarded += frac
        out.append(u.reshape(c, 4, -1))
        sn = math.sqrt(s.dot(s))  # np.linalg.norm(s), bit for bit
        if sn > 0:
            norm_log += np.log(sn)
            s = s / sn
        zipper = (s[:, None] * vh).reshape(-1, wr, ar)
    # right-to-left compression sweep
    entropies = [0.0] * (T - 1)
    for i in range(T - 1, 0, -1):
        chi_l, _, chi_r = out[i].shape
        u, s, vh, frac = _truncate_event(out[i].reshape(chi_l, 4 * chi_r), chi_max, cutoff)
        discarded += frac
        entropies[i - 1] = _schmidt_entropy(s)
        out[i] = vh.reshape(-1, 4, chi_r)
        sn = math.sqrt(s.dot(s))  # np.linalg.norm(s), bit for bit
        if sn > 0:
            norm_log += np.log(sn)
            s = s / sn
        cl = out[i - 1].shape[0]
        out[i - 1] = np.dot(out[i - 1].reshape(cl * 4, chi_l), u * s[None, :]).reshape(cl, 4, -1)
    return ZipupResult(TemporalMps(out, norm_log=norm_log, canonical_center=0),
                       discarded, entropies)
