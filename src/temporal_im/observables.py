"""Local observables from influence-matrix contractions.

The probed site's folded trajectory is summed against the IM, which faces
it from both sides (the chain is reflection symmetric), and the site's own
per-period factors.  Operator insertions are specified by an
InsertionPlan: time 0 acts right after the initial state, time 0 < tau < T
between periods (for the symmetric splitting: between the two half kicks),
time T right before the trace.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .influence import InfluenceMatrix, grow_ims, impurity_im, solve_im
from .models import (ID2, PAULI, LocalKernel, ModelSpec, floquet_kernel,
                     trotterize)
from .mps import TemporalMps
from .tensor import FOLDED_BWD, FOLDED_FWD

OpLike = Union[str, np.ndarray]


@dataclass(frozen=True)
class Insertion:
    time: int
    branch: str  # forward | backward | both
    op: OpLike


@dataclass
class InsertionPlan:
    """Operator insertions on the probed site.  Multiple entries at the same
    (time, branch) compose in list order."""
    entries: List[Insertion] = field(default_factory=list)

    def validate(self, T: int) -> None:
        for e in self.entries:
            if not 0 <= e.time <= T:
                raise ValueError(f"insertion time {e.time} outside 0..{T}")
            if e.branch not in ("forward", "backward", "both"):
                raise ValueError(f"unknown branch {e.branch!r}")
            m = _op_matrix(e.op)
            nrm = np.linalg.norm(m, 2)
            if abs(nrm - 1.0) > 1e-8:
                raise ValueError(f"operator norm {nrm:.3g} is not 1")


@dataclass
class ResultSeries:
    abscissa: np.ndarray
    values: np.ndarray
    extras: Dict[str, object] = field(default_factory=dict)


def _op_matrix(op: OpLike) -> np.ndarray:
    if isinstance(op, str):
        if op not in PAULI:
            raise ValueError(f"unknown operator name {op!r}")
        return PAULI[op]
    m = np.asarray(op, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("operator must be 2x2")
    return m


# --------------------------------------------- actions on the probed site
#
# Everything that happens to the probed site between its initial state and
# the trace acts on its 2x2 matrix as X -> L X R: an operator O on the
# forward branch is (O, 1), on the backward branch (1, O^dag), on both
# (O, O^dag), and a kick K is (K, K^dag).  The three forms a contraction
# needs all follow from that pair.

Action = Tuple[np.ndarray, np.ndarray]


def _action(e: Insertion) -> Action:
    """(L, R) of one insertion."""
    O = _op_matrix(e.op)
    if e.branch == "forward":
        return O, ID2
    if e.branch == "backward":
        return ID2, O.conj().T
    return O, O.conj().T


def _unitary(U: np.ndarray) -> Action:
    """(U, U^dag): ``U`` on both branches, as a kick acts."""
    return U, U.conj().T


def _superop(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Folded 4x4 superoperator of X -> L X R on the (fwd, bwd) pair."""
    return np.einsum("ac,bd->abcd", L, R.T).reshape(4, 4)


def _link(kern: LocalKernel, actions: Sequence[Action]) -> np.ndarray:
    """Superoperator from one period to the next, with ``actions`` applied
    in list order after the kick, or between its halves when it is split."""
    if not actions:
        return _superop(*_unitary(kern.kick))
    sup = _superop(*actions[0])
    for a in actions[1:]:
        sup = _superop(*a) @ sup
    if kern.split:
        Sh = _superop(*_unitary(kern.head))
        return Sh @ sup @ Sh
    return sup @ _superop(*_unitary(kern.kick))


def _cap(kern: LocalKernel, actions: Sequence[Action]) -> np.ndarray:
    """Final cap on folded indices, trace built in: Tr(M X) after the tail
    kick and then ``actions``, with the readout dual M -> R M L taken in
    reverse order (the last action is outermost)."""
    M = ID2
    for L, R in reversed([_unitary(kern.tail)] + list(actions)):
        M = R @ M @ L
    return M[FOLDED_BWD, FOLDED_FWD]


def kernel_factors(kern: LocalKernel, T: int, plan: Optional[InsertionPlan] = None):
    """Per-site folded factors of the probed spin.

    Returns (w0, dh, links, F): the dressed initial vector (initial state
    with time-0 insertions and the head transform), the per-step field
    phases, the T-1 step superoperators with any stroboscopic insertions
    folded in, and the final cap.
    """
    at: List[List[Action]] = [[] for _ in range(T + 1)]
    for e in [] if plan is None else plan.entries:
        at[e.time].append(_action(e))
    rho = kern.rho0
    for L, R in at[0] + [_unitary(kern.head)]:
        rho = L @ rho @ R
    S = _link(kern, [])
    links = [_link(kern, at[t]) if at[t] else S for t in range(1, T)]
    return rho.reshape(4), kern.field_phases, links, _cap(kern, at[T])


def _env_step(E: np.ndarray, link: np.ndarray, dh: np.ndarray,
              A: np.ndarray) -> np.ndarray:
    """Advance the (left bond, right bond, open folded index) environment
    by one site of the IM, which sits on both sides of the probed site.

    Batched matmuls over the folded index keep this on BLAS.
    """
    At = A.transpose(1, 0, 2)
    tmp = np.dot(E.reshape(-1, 4), link.T * dh[None, :]).reshape(E.shape)  # (a, b, p)
    t2 = tmp.transpose(2, 1, 0) @ At                             # (p, b, l)
    return (t2.transpose(0, 2, 1) @ At).transpose(1, 2, 0)


def _left_sweep(psi: TemporalMps, w0: np.ndarray, dh: np.ndarray,
                links: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Left environments of the network; the t-th has absorbed sites 0..t."""
    A = psi.tensors
    E = np.einsum("pa,pb,p->abp", A[0][0], A[0][0], w0 * dh)
    yield E
    for t in range(1, psi.T):
        E = _env_step(E, links[t - 1], dh, A[t])
        yield E


def _scaled(val: complex, log_scale: float) -> complex:
    """``val * exp(log_scale)``, in log space where the factor alone would
    overflow; a product past the float range is a non-finite complex."""
    if log_scale < 700.0:
        return val * math.exp(log_scale)
    mag = abs(val)
    if mag == 0.0:
        return 0.0 + 0.0j
    try:
        return val / mag * math.exp(math.log(mag) + log_scale)
    except OverflowError:
        return complex(math.inf, math.inf)


def temporal_contract(im: InfluenceMatrix, kernel: LocalKernel,
                      plan: Optional[InsertionPlan] = None) -> complex:
    """Value of the folded network: IM x local kernel x IM.

    The same IM faces the probed site from the left and from the right.
    The contraction is bilinear in the two copies (no conjugation; both
    branches of the fold are explicit in the amplitudes).  With an empty
    plan and a unit-trace initial state the result is 1 up to truncation.
    """
    psi = im.psi
    T = psi.T
    if plan is not None:
        plan.validate(T)
    w0, dh, links, F = kernel_factors(kernel, T, plan)
    E = deque(_left_sweep(psi, w0, dh, links), maxlen=1).pop()
    val = complex(np.dot(E[0, 0], F))
    return _scaled(val, 2 * psi.norm_log)


def _contract_scan(im: InfluenceMatrix, kernel: LocalKernel,
                   base_plan: InsertionPlan) -> np.ndarray:
    """Values of a forward sigma^z inserted at every time k = 1..T.

    Contracting a converged IM with an insertion at k followed by nothing
    but the trace equals the fresh length-k result, so a single solve
    serves the whole series.  The insertion at k joins the k-th left
    environment of the insertion-free network, read as the left sweep
    makes it, to the (k + 1)-th right one, so each k costs one step.
    base_plan may only hold time-0 entries.

    The right environments are not all held at once: a first right-to-left
    pass keeps only every s-th one, s = ceil(sqrt(T)), and each segment of
    s is rebuilt from the checkpoint above it when the left sweep reaches
    it.  The scan thus holds O(sqrt T) environments, not T, for one extra
    right-to-left pass; each environment comes from the same operations
    either way, so the values do not depend on s.
    """
    psi = im.psi
    T = psi.T
    base_plan.validate(T)
    if any(e.time != 0 for e in base_plan.entries):
        raise ValueError("scan base plan must only touch time 0")
    w0, dh, links, F0 = kernel_factors(kernel, T, base_plan)
    z = [_action(Insertion(T, "forward", "z"))]
    link_ins, F_ins = _link(kernel, z), _cap(kernel, z)
    A = psi.tensors

    def right(t: int, R: Optional[np.ndarray]) -> np.ndarray:
        """The t-th right environment, (a', b', p_{t-1}), from the
        (t + 1)-th ``R``; the T-th is the cap, with unit end bonds."""
        if t == T:
            return F0.reshape(1, 1, 4)
        t1 = A[t].transpose(1, 0, 2) @ R.transpose(2, 0, 1)   # (p, a, r)
        tmp = (t1 @ A[t].transpose(1, 2, 0)).transpose(1, 2, 0)  # (a, b, p)
        return np.dot(tmp.reshape(-1, 4), links[t - 1] * dh[:, None]).reshape(tmp.shape)

    # segments [2 + j s, 2 + (j + 1) s) of the t = 2..T the scan reads; the
    # checkpoints are the segment starts above the first
    s = math.isqrt(T - 1) + 1
    marks: Dict[int, np.ndarray] = {}
    R = None
    for t in range(T, 1 + s, -1):
        R = right(t, R)
        if (t - 2) % s == 0:
            marks[t] = R

    log_scale = 2 * psi.norm_log
    out = np.empty(T, dtype=complex)
    lefts = _left_sweep(psi, w0, dh, links)  # each read once, in order
    segment: List[np.ndarray] = []  # the current segment, next read at its end
    for k in range(1, T):
        if not segment:
            top = min(k + s, T)  # the segment's largest t
            R = marks.pop(top + 1, None)
            for t in range(top, k, -1):
                R = right(t, R)
                segment.append(R)
        E = _env_step(next(lefts), link_ins, dh, A[k])
        out[k - 1] = _scaled(complex(np.sum(E * segment.pop())), log_scale)
    out[T - 1] = _scaled(complex(np.dot(next(lefts)[0, 0], F_ins)), log_scale)
    return out


# ------------------------------------------------------------------- series

def _final_entropies(im: InfluenceMatrix):
    d = im.diagnostics
    return d["entropy_halfcut"][-1], d["entropy_max"][-1]


def _im_rows(im: InfluenceMatrix, n: int) -> Dict[str, list]:
    """``n`` extras rows, each describing ``im``."""
    half, smax = _final_entropies(im)
    dw = math.fsum(im.diagnostics["discarded_weight"])
    return {"entropy_halfcut": [half] * n, "entropy_max": [smax] * n,
            "discarded_weight": [dw] * n}


def _site_im(im: InfluenceMatrix, chi_max: int, cutoff: float,
             im_sink: Optional[list]):
    """The IM the probed site sees and its contraction kernel: ``im``
    itself, or the impurity slice on top of it for an impurity spec.  Each
    IM goes to ``im_sink`` as it is made."""
    spec = im.spec
    if im_sink is not None:
        im_sink.append(im)
    if spec.impurity is None:
        return im, floquet_kernel(spec)
    imp = impurity_im(spec, im, chi_max, cutoff)
    if im_sink is not None:
        im_sink.append(imp)
    return imp, floquet_kernel(spec, "impurity_site")


def _z_series(spec: ModelSpec, base: List[Insertion], chi_max: int,
              cutoff: float, boundary: str, reuse_im: bool,
              im_sink: Optional[list]) -> ResultSeries:
    """Forward sigma^z at time k after the time-0 entries ``base``, for
    k = 0..spec.T (the k = 0 row is 1 by convention).

    Reuse: one solve at spec.T, scanned over k.  Fresh: the IM of every
    length k, grown one slice application from the last (``grow_ims``) and
    contracted once.  Growth starts without a boundary state, so a fresh
    series takes only the default ``boundary``.
    """
    if not reuse_im and boundary != "open":
        raise ValueError(f"boundary {boundary!r} needs reuse_im: a fresh "
                         "series is grown, and no boundary state enters it")
    nan = float("nan")
    values = [complex(1.0)]
    extras = {"entropy_halfcut": [nan], "entropy_max": [nan],
              "discarded_weight": [nan]}

    def add(vals, im):
        values.extend(vals)
        for key, col in _im_rows(im, len(vals)).items():
            extras[key].extend(col)

    if reuse_im:
        im = solve_im(spec, boundary=boundary, chi_max=chi_max, cutoff=cutoff)
        im, kern = _site_im(im, chi_max, cutoff, im_sink)
        add(_contract_scan(im, kern, InsertionPlan(base)), im)
    else:
        for grown in grow_ims(spec, chi_max, cutoff):
            im, kern = _site_im(grown, chi_max, cutoff, im_sink)
            plan = InsertionPlan(base + [Insertion(grown.T, "forward", "z")])
            add([temporal_contract(im, kern, plan)], im)
    step = spec.eps if spec.eps > 0 else 1.0
    return ResultSeries(np.arange(spec.T + 1) * step, np.asarray(values), extras)


def autocorrelator_series(spec: ModelSpec, chi_max: int, cutoff: float = 0.0,
                          *, boundary: str = "open",
                          reuse_im: bool = False,
                          im_sink: Optional[list] = None) -> ResultSeries:
    """Infinite-temperature C_zz(T) for T = 0..spec.T.

    By default the IMs of every T are grown in one slice chain, one
    application per T (``grow_ims``), and each is contracted once.  With
    ``reuse_im`` one solve at spec.T serves all earlier times through
    intermediate insertions; exact for converged IMs.  Growth costs about
    T^2 / 2 site steps, so a solve that converges in a few applications
    is cheaper at large T.  ``boundary`` other than ``open`` needs
    ``reuse_im``.  ``im_sink`` is any object with ``append``; it receives
    every IM as it is made.
    """
    if spec.initial_state != "infinite_temperature":
        raise ValueError("autocorrelator needs the infinite-temperature state")
    return _z_series(spec, [Insertion(0, "forward", "z")], chi_max, cutoff,
                     boundary, reuse_im, im_sink)


def quench_magnetization_series(J: float, g: float, h: float, t_max: float,
                                eps: float, chi_max: int, cutoff: float = 0.0,
                                *, boundary: str = "open",
                                reuse_im: bool = False,
                                im_sink: Optional[list] = None) -> ResultSeries:
    """<sigma^z_0(t)> after a quench from the fully z-polarized state; the
    options are those of ``autocorrelator_series``."""
    spec = trotterize(J, g, h, t_max, eps, initial_state="z_polarized_up")
    return _z_series(spec, [], chi_max, cutoff, boundary, reuse_im, im_sink)


def entropy_series(specs: Sequence[ModelSpec], chi_list: Sequence[int],
                   cutoff: float = 0.0, *, boundary: str = "open",
                   im_sink: Optional[list] = None) -> ResultSeries:
    """Half-cut and max temporal entanglement of converged IMs.

    Each parameter point is solved at every chi in chi_list (ascending);
    the reported value comes from the largest chi, and the point counts as
    chi-converged when the two largest chis agree within 2%.  The abscissa
    is each point's eps, or its T where eps is 0 (a Floquet spec).
    """
    chis = sorted(chi_list)
    values: List[complex] = []
    extras: Dict[str, list] = {"entropy_halfcut": [], "entropy_max": [],
                               "discarded_weight": [], "chi_converged": []}
    by_chi: Dict[int, list] = {c: [] for c in chis}
    for spec in specs:
        halves = []
        for c in chis:
            im = solve_im(spec, boundary=boundary, chi_max=c, cutoff=cutoff)
            if im_sink is not None:
                im_sink.append(im)
            halves.append(_final_entropies(im)[0])
            by_chi[c].append(halves[-1])
        half = halves[-1]
        values.append(complex(half))
        for key, col in _im_rows(im, 1).items():
            extras[key].extend(col)
        extras["chi_converged"].append(
            len(halves) < 2
            or abs(half - halves[-2]) / max(abs(half), 1e-30) <= 0.02)
    extras["by_chi"] = by_chi
    xs = np.asarray([s.eps if s.eps > 0 else s.T for s in specs], dtype=float)
    return ResultSeries(xs, np.asarray(values), extras)
