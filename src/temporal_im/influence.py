"""Self-consistent influence matrices over the time direction.

The IM of a semi-infinite homogeneous chain is the eigenvector (eigenvalue
1) of the dual transfer matrix that adds one more spin to the environment.
Because the circuit has a strict light cone, power iteration from any
product boundary state lands on that eigenvector after ceil(T/2)
applications at infinite temperature (gates outside both the forward and
the backward cone cancel) and after T from a polarized state, where only
the backward cone does; no eigensolver is involved.  Once the iterate's
bonds reach the chi cap, a solve fits each application warm-started from
the iterate and keeps the fit under its certified residual, else zips up
(``_SliceMpo``).  The IMs of every horizon 1..T also follow one from the
next, one slice application each (``grow_ims``).

Conventions.  An IM is a vector over the folded z-trajectory of the site it
faces and includes the interaction phases on the bond linking that site to
the environment.  One slice therefore absorbs one environment spin together
with its subsystem-facing bond, and an impurity bond scaling enters through
a site-local map of the IM (``impurity_im``).  With a single diagonal layer
per period the left and right slices contain the same tensors, so one IM
serves both sides of the probed site.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from .models import ModelSpec, floquet_kernel, folded_kick_links
from .mps import (TemporalMps, TemporalMpo, ZipupResult, apply_mpo_fit,
                  apply_mpo_zipup, canonicalize, mps_norm, overlap, product_mps)
from .mps import entropy_profile  # noqa: F401  unused here; imbench/tracing.py wraps it
from .tensor import (FOLDED_BWD, FOLDED_FWD, FOLDED_SIGMA, FOLDED_SIGMA_BAR,
                     NumericalInstabilityError)

BOUNDARY_KINDS = ("open", "perfect_dephaser")

_TRACE_MASK = (FOLDED_FWD == FOLDED_BWD).astype(complex)  # [1,0,0,1]
# the trace mask as a site of unit norm, a right isometry, whose norm sqrt2
# goes to norm_log; real in the real basis too, where the branch swap leaves
# indices 0 and 3 alone
_GROWTH_SITE = (_TRACE_MASK.real * np.sqrt(0.5)).reshape(1, 4, 1)
_GROWTH_SITE.setflags(write=False)
_GROWTH_LOG_NORM = 0.5 * float(np.log(2.0))
# bond charge sigma_x sigma_y - sigmabar_x sigmabar_y, in {-2, 0, 2}
_BOND_CHARGE = (np.outer(FOLDED_SIGMA, FOLDED_SIGMA)
                - np.outer(FOLDED_SIGMA_BAR, FOLDED_SIGMA_BAR))


def boundary_mps(kind: str, T: int) -> TemporalMps:
    """Product boundary state: all-ones, or the perfect dephaser delta."""
    if kind == "open":
        site = np.ones(4)
    elif kind == "perfect_dephaser":
        site = np.array([1.0, 0.0, 0.0, 1.0])
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return product_mps([site] * T)


def bond_phase_matrix(bond_coupling: float) -> np.ndarray:
    """P[x, y] = exp(-i Jb (sigma_x sigma_y - sigmabar_x sigmabar_y))."""
    return np.exp(-1j * bond_coupling * _BOND_CHARGE)


def build_transfer_slice(spec: ModelSpec) -> TemporalMpo:
    """One dual-transfer-matrix slice as an MPO of bond dimension 4.

    Maps an IM over the absorbed spin's trajectory y = (s, sbar) to an IM
    over the neighbouring trajectory x = (sigma, sigmabar).  Both sides use
    identical tensors here: a single diagonal layer per period makes the
    slice reflection symmetric.
    """
    return _column_chain(spec, bond_phase_matrix(spec.J_eff))


def _column_chain(spec: ModelSpec, P: np.ndarray) -> TemporalMpo:
    """The absorbed spin's column with bond phases ``P[x, y]`` at each step.

    The virtual bond carries the absorbed spin's folded index of the
    previous step, so the kick links K[s', s] conj(K)[sbar', sbar] sit on
    the bonds; the chain starts with the (head-transformed) initial matrix
    and ends with the trace constraint.  The identity ``P`` copies the
    absorbed trajectory to the output leg: the weight chain of the
    coupling-averaged slice.
    """
    T = spec.T
    kern = floquet_kernel(spec)
    v0 = (kern.head @ kern.rho0 @ kern.head.conj().T).reshape(4) * kern.field_phases
    link = folded_kick_links(kern.kick) * kern.field_phases[:, None]  # [y', y]
    if T == 1:
        W = (P * (v0 * _TRACE_MASK)[None, :])[None, :, :, None]
        return TemporalMpo([W])
    rng4 = np.arange(4)
    head = np.zeros((1, 4, 4, 4), dtype=complex)
    head[0, :, rng4, rng4] = (P * v0[None, :]).T  # advanced indexing puts y first
    mid = np.zeros((4, 4, 4, 4), dtype=complex)
    for b in range(4):
        mid[b, :, rng4, rng4] = (P * link[None, :, b]).T
    mid.setflags(write=False)  # every interior site holds this one array
    tail = np.einsum("xy,yb->bxy", P * _TRACE_MASK[None, :], link)[..., None]
    return TemporalMpo([head] + [mid] * (T - 2) + [tail])


# ------------------------------------------------------------- disorder slice

def build_disorder_slice(spec: ModelSpec) -> "DisorderSliceMpo":
    """Exactly coupling-averaged slice, factored into two MPOs.

    Averaging the bond phases over J uniform on [0, 2pi) projects onto zero
    total charge sum_t (sigma_t s_t - sigmabar_t sbar_t).  The slice then
    splits into the J-independent column-weight chain (diagonal in the
    output trajectory) followed by the charge-constraint MPO, applied in
    that order.  Its bond t carries the running charge: the per-step
    increment sigma_x sigma_y - sigmabar_x sigmabar_y is in {-2, 0, +2} and
    the total must return to zero, so bond t holds the even values
    |B| <= 2 min(t, T-t).
    """
    if spec.disorder != "uniform_J_0_2pi":
        raise ValueError("spec has no uniform coupling disorder")
    inc = _BOND_CHARGE.astype(int)
    T = spec.T
    windows = [np.arange(-2 * min(t, T - t), 2 * min(t, T - t) + 1, 2)
               for t in range(T + 1)]
    constraint = [(wl[:, None, None, None] + inc[None, :, :, None]
                   == wr[None, None, None, :]).astype(complex)
                  for wl, wr in zip(windows, windows[1:])]
    return DisorderSliceMpo(_column_chain(spec, np.eye(4)),
                            TemporalMpo(constraint))


@dataclass
class DisorderSliceMpo:
    """Coupling-averaged dual slice: weight chain then charge constraint."""
    weights: TemporalMpo
    constraint: TemporalMpo

    def apply(self, psi: TemporalMps, chi_max: int,
              cutoff: float = 0.0) -> ZipupResult:
        """Both zip-ups; the entropies are the constraint zip-up's, those of
        the returned state, and the discarded weights add up."""
        r1 = apply_mpo_zipup(self.weights, psi, chi_max, cutoff)
        r2 = apply_mpo_zipup(self.constraint, r1.psi, chi_max, cutoff)
        return ZipupResult(r2.psi, r1.discarded_weight + r2.discarded_weight,
                           r2.entropies)

    def dense(self) -> np.ndarray:
        return self.constraint.dense() @ self.weights.dense()


# ------------------------------------------------------------- the real basis
#
# The circuit is unitary and rho0 Hermitian, so swapping the forward and
# backward branches together with complex conjugation leaves every slice
# tensor, and the IM, unchanged: I[sigma, sigmabar]* = I[sigmabar, sigma].
# In a basis where that swap is conjugation they are real, and the power
# iteration runs in float64.  The folded index and the bonds that carry one
# swap as _BRANCH_SWAP; a constraint bond's charge b turns into -b, which
# reverses its window.

_BRANCH_SWAP = (0, 2, 1, 3)
_REAL_RTOL = 1e-12


class BranchSymmetryError(NumericalInstabilityError):
    """A slice or state is not invariant under branch swap plus conjugation."""


def _real_basis(perm) -> np.ndarray:
    """Unitary V with V[perm] == V.conj(), for an involution ``perm``.

    Fixed points stay unit vectors; a swapped pair (i, j) becomes
    (|i> + |j>)/sqrt2 and i(|i> - |j>)/sqrt2.  A vector x with
    x[perm] == x.conj() then has real coefficients V^dagger x.
    """
    n = len(perm)
    V = np.zeros((n, n), dtype=complex)
    r = np.sqrt(0.5)
    for i, j in enumerate(perm):
        if i == j:
            V[i, i] = 1.0
        elif i < j:
            V[i, i] = V[j, i] = r
            V[i, j], V[j, j] = 1j * r, -1j * r
    return V


def _folded_bond(n: int):
    return _BRANCH_SWAP if n == 4 else range(n)


def _charge_bond(n: int):
    return range(n - 1, -1, -1)


def _real(t: np.ndarray, what: str) -> np.ndarray:
    """The real part of a rotated tensor whose imaginary part is round-off."""
    scale = float(np.max(np.abs(t), initial=0.0))
    bad = float(np.max(np.abs(t.imag), initial=0.0))
    if bad > _REAL_RTOL * scale:
        raise BranchSymmetryError(
            f"{what} is not branch-swap symmetric: imaginary part {bad:.3g} "
            f"in the real basis, largest entry {scale:.3g}")
    return np.ascontiguousarray(t.real)


def _real_mpo(op: TemporalMpo, bond_perm) -> TemporalMpo:
    """``op`` in the real basis; ``bond_perm(n)`` is the swap on a bond of
    extent n.  V^dagger goes on the output and left-bond legs, V on the
    input and right-bond legs, so the MPO product is unchanged."""
    V = _real_basis(_BRANCH_SWAP)
    rotated: Dict[int, np.ndarray] = {}  # by id: a shared tensor is rotated once
    for k, W in enumerate(op.tensors):
        if id(W) not in rotated:
            L = _real_basis(bond_perm(W.shape[0]))
            R = _real_basis(bond_perm(W.shape[3]))
            Wr = W
            for M in (L.conj(), V.conj(), V, R):  # each leg in turn, moved last
                Wr = np.tensordot(Wr, M, axes=(0, 0))
            rotated[id(W)] = Wr = _real(Wr, f"slice tensor {k}")
            Wr.setflags(write=False)
    return TemporalMpo([rotated[id(W)] for W in op.tensors])


def _real_mps(psi: TemporalMps):
    """``psi`` in the real basis and the global phase taken off its first
    tensor, as (state, phase)."""
    Vh = _real_basis(_BRANCH_SWAP).conj().T
    tensors = [Vh @ A for A in psi.tensors]
    big = tensors[0].flat[np.argmax(np.abs(tensors[0]))]
    phase = big / abs(big) if big != 0 else 1.0
    tensors[0] = tensors[0] / phase
    return TemporalMps([_real(A, f"state tensor {k}") for k, A in enumerate(tensors)],
                       psi.norm_log, psi.canonical_center), phase


def _folded_mps(psi: TemporalMps, phase: complex) -> TemporalMps:
    """Inverse of ``_real_mps``: back to the folded z basis, one 4x4 matmul
    per site."""
    V = _real_basis(_BRANCH_SWAP)
    tensors = [V @ A for A in psi.tensors]
    tensors[0] = tensors[0] * phase
    return TemporalMps(tensors, psi.norm_log, psi.canonical_center)


# A solve keeps a fit whose certified residual is at most _FIT_SLACK times
# the discarded weight of its last zip-up, or at most _FIT_FLOOR, which
# absorbs the round-off of the residual's subtraction (converged quench
# fits read a few 1e-14 either side of 0); a kept residual within the
# floor is recorded as none.
_FIT_SLACK = 1.1
_FIT_FLOOR = 1e-12


@dataclass
class _SliceMpo:
    """A clean slice whose applications, one per step, are zip-ups until
    the cap binds and fits from then on where the fit certifies itself.

    A fit keeps the input's bonds, so the zip-up takes every application
    until the input's largest bond is chi_max.  From then on each
    application is first fitted (``apply_mpo_fit``) and the fit is kept
    where its residual is at most max(1.1 ``bound``, 1e-12); ``bound``,
    per-solve state, is the discarded weight of the last zip-up, so a fresh
    slice's first application is always a zip-up.  A kept fit records its
    residual (0 within the 1e-12 floor) plus its right-to-left sweep's
    dropped fractions as the application's discarded weight.  A refused fit
    hands the application to the zip-up, which resets the bound.
    """
    op: TemporalMpo
    bound: Optional[float] = None

    def apply(self, psi: TemporalMps, chi_max: int,
              cutoff: float = 0.0) -> ZipupResult:
        route = "zipup"
        if self.bound is not None and psi.max_bond() == chi_max:
            f = apply_mpo_fit(self.op, psi, cutoff)
            if f.residual <= _FIT_FLOOR:
                return replace(f, discarded_weight=f.discarded_weight - f.residual,
                               residual=0.0)
            if f.residual <= _FIT_SLACK * self.bound:
                return f
            route = "fit_refused"
        r = apply_mpo_zipup(self.op, psi, chi_max, cutoff)
        self.bound = r.discarded_weight
        return replace(r, route=route)


def _real_slice(spec: ModelSpec) -> Union[_SliceMpo, DisorderSliceMpo]:
    """The spec's dual slice in the real basis, as an object whose
    ``apply(psi, chi_max, cutoff)`` is one power-iteration step: the
    exactly coupling-averaged pair for a disordered spec, else the transfer
    MPO, whose applications at the cap after the first are fits where they
    certify themselves (see ``_SliceMpo``).  The pair always zips up."""
    if spec.disorder is None:
        return _SliceMpo(_real_mpo(build_transfer_slice(spec), _folded_bond))
    dis = build_disorder_slice(spec)
    return DisorderSliceMpo(_real_mpo(dis.weights, _folded_bond),
                            _real_mpo(dis.constraint, _charge_bond))


# ------------------------------------------------------------------ the solve

@dataclass
class InfluenceMatrix:
    psi: TemporalMps
    spec: ModelSpec
    iterations_applied: int
    converged: bool
    diagnostics: Dict[str, list] = field(default_factory=dict)

    @property
    def T(self) -> int:
        return self.psi.T


def _log_norm(psi: TemporalMps) -> float:
    """log ||psi||, overflow-safe.

    A canonical state carries its norm in the centre tensor; only a state
    without a centre (the product boundary) is canonicalized first.
    """
    if psi.canonical_center is None:
        return canonicalize(psi, 0).norm_log
    nrm = _bare_norm(psi)
    return psi.norm_log + float(np.log(nrm)) if nrm > 0.0 else psi.norm_log


def _bare_norm(psi: TemporalMps) -> float:
    """||psi|| without the norm_log factor: the centre tensor's norm, or one
    environment sweep when there is no centre."""
    if psi.canonical_center is None:
        return mps_norm(TemporalMps(psi.tensors))
    return float(np.linalg.norm(psi.tensors[psi.canonical_center]))


def _overlap_deficit(a: TemporalMps, b: TemporalMps) -> float:
    """1 - |<a|b>| / (||a|| ||b||), independent of norm_log factors."""
    a0 = TemporalMps(a.tensors, 0.0, a.canonical_center)
    b0 = TemporalMps(b.tensors, 0.0, b.canonical_center)
    ov = abs(overlap(a0, b0))
    na, nb = _bare_norm(a), _bare_norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - ov / (na * nb)


def _record_entropies(diag: Dict[str, list], psi: TemporalMps,
                      prof: List[float]) -> None:
    """Entropy diagnostics of ``psi`` from its zip-up's T - 1 bond entropies."""
    for key, val in (("entropy_profile", prof),
                     ("entropy_max", max(prof) if prof else 0.0),
                     ("entropy_halfcut", prof[psi.T // 2 - 1] if prof else 0.0),
                     ("max_bond", psi.max_bond())):
        diag.setdefault(key, []).append(val)


def _normalize_trace(im: InfluenceMatrix) -> None:
    """Rescale so the trivial-kernel contraction is exactly 1.

    The exact fixed point already satisfies this; finite chi drifts it.  The
    pre-rescale residual |c - 1| is kept as a diagnostic so the drift stays
    observable.
    """
    from .observables import temporal_contract

    kern = floquet_kernel(im.spec)
    c = temporal_contract(im, kern)
    if not np.isfinite(c) or abs(c) < 1e-12:
        raise NumericalInstabilityError(f"degenerate IM trace {c!r}")
    im.diagnostics.setdefault("trace_residual", []).append(abs(c - 1.0))
    im.psi.norm_log -= 0.5 * float(np.log(abs(c)))
    phase = c / abs(c)
    im.psi.tensors[0] = im.psi.tensors[0] * phase ** -0.5


def _influence_matrix(psi: TemporalMps, phase: complex, spec: ModelSpec,
                      iterations: int, converged: bool,
                      diag: Dict[str, list]) -> InfluenceMatrix:
    """The IM of the real-basis state ``psi``: rotated back to the folded
    z basis with ``phase`` (``_folded_mps``), then trace-normalised."""
    im = InfluenceMatrix(_folded_mps(psi, phase), spec, iterations, converged,
                         diag)
    _normalize_trace(im)
    return im


def solve_im(spec: ModelSpec, boundary: str = "open", *, chi_max: int,
             cutoff: float = 0.0, max_iters: Optional[int] = None,
             tol: float = 1e-10, drift_limit: float = 1.0) -> InfluenceMatrix:
    """Power-iterate the dual slice from a product boundary to the IM.

    Per-iteration diagnostics (overlap deficit, norm drift, bond entropy
    profile with its max and half-cut values, max bond, discarded weight,
    and the route: "zipup", "fit" or "fit_refused", see ``_SliceMpo``) are
    collected on the returned object.  ``max_iters`` defaults to the
    light-cone count n_lc (ceil(T/2), or T from a polarized state) plus 2;
    drift above ``drift_limit`` from iteration n_lc on means truncation has
    destabilized the iteration and raises.  ``cutoff=0`` keeps every
    Schmidt value above the round-off floor up to chi_max per bond (small
    ones matter near the continuous-time limit).  The iteration runs in the
    real basis on float64; the returned IM is in the folded z basis.  A
    slice without the branch-swap symmetry raises ``BranchSymmetryError``.
    """
    T = spec.T
    n_lc = (T + 1) // 2 if spec.initial_state == "infinite_temperature" else T
    if max_iters is None:
        max_iters = n_lc + 2
    step = _real_slice(spec)
    psi, phase = _real_mps(boundary_mps(boundary, T))
    diag: Dict[str, list] = {k: [] for k in
                             ("deficit", "drift", "entropy_profile", "entropy_max",
                              "entropy_halfcut", "max_bond", "discarded_weight",
                              "route")}
    prev_log = _log_norm(psi)
    converged = False
    iters = 0
    for it in range(1, max_iters + 1):
        r = step.apply(psi, chi_max, cutoff)
        new = r.psi
        log_norm = _log_norm(new)
        drift = abs(log_norm - prev_log)
        deficit = _overlap_deficit(new, psi)
        diag["deficit"].append(deficit)
        diag["drift"].append(drift)
        diag["discarded_weight"].append(r.discarded_weight)
        diag["route"].append(r.route)
        _record_entropies(diag, new, r.entropies)
        psi, prev_log, iters = new, log_norm, it
        if it >= n_lc and drift > drift_limit:
            raise NumericalInstabilityError(
                f"norm drift {drift:.3g} at iteration {it} (limit {drift_limit})")
        if deficit < tol:
            converged = True
            break
    return _influence_matrix(psi, phase, spec, iters, converged, diag)


# the least impurity_map_margin(J_eff) at which impurity_im maps the bulk IM
IMPURITY_MAP_FLOOR = 0.05
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) * np.sqrt(0.5)


def impurity_map_margin(J_eff: float) -> float:
    """How far the bulk bond is from dropping a component the impurity map
    needs: the smaller of its per-branch eigenvalue sizes |cos J_eff| and
    |sin J_eff|, the latter only past |J_eff| = pi/2, since sin(beta J) /
    sin J tends to beta at J = 0."""
    margin = abs(float(np.cos(J_eff)))
    if abs(J_eff) > np.pi / 2:
        margin = min(margin, abs(float(np.sin(J_eff))))
    return margin


def _impurity_map(spec: ModelSpec) -> TemporalMpo:
    """Q^(x)T, the product MPO that turns the bulk slice into the impurity
    slice: T_beta = Q^(x)T T_J, with the subsystem-facing bond at beta J.

    The bond phases act site by site on the output leg after the
    coupling-free column chain, so Q = P(beta J) P(J)^-1 per site.  On one
    branch a_c[s', s] = exp(-i c s' s) has eigenvalues 2 cos c and
    -2i sin c on (1, +-1)/sqrt2, so Q = q (x) q with the real
    q = H diag(cos(beta J) / cos J, sin(beta J) / sin J) H, written with
    sinc for its smooth limit at J = 0.
    """
    J, beta = spec.J_eff, spec.impurity.beta
    q = _HADAMARD @ np.diag([np.cos(beta * J) / np.cos(J),
                             beta * np.sinc(beta * J / np.pi) / np.sinc(J / np.pi)]
                            ) @ _HADAMARD
    return TemporalMpo([np.kron(q, q).reshape(1, 4, 4, 1)] * spec.T)


def impurity_im(spec: ModelSpec, base: InfluenceMatrix, chi_max: int,
                cutoff: float = 0.0) -> InfluenceMatrix:
    """IM seen by an impurity site: the bulk IM under a site-local map.

    The impurity slice is homogeneous except for its subsystem-facing bond
    coupling beta * J_eff, so the result depends on beta only.  That slice
    is the bulk slice followed by a product MPO (``_impurity_map``), and
    the bulk slice leaves its fixed point in place, so the impurity IM is
    the map applied to ``base``: one zip-up of bond dimension 1, whose cuts
    never reach chi_max.  On a grown IM this is exact up to the growth
    step's truncation.  On a power-iteration solve (a base that records
    its routes) the map goes on one more application of the bulk slice,
    made as the solve would make its next one (a fit at the cap, under the
    bound of the solve's last zip-up; see ``_SliceMpo``), so the result is
    the impurity slice applied to the last iterate, whose own deficit is
    below the solve's tolerance.  beta = 0 decouples the environment (flat
    IM), beta = 1 leaves ``base`` as it is.  The diagnostics hold the
    entropies and bond size of the new IM, the discarded weight of the
    base solve's iterations followed by that of the impurity slice (the
    extra bulk application's plus the map's), and for a solved base the
    extra application's route.

    Raises ``ValueError`` for a disorder-averaged spec, which has no single
    bond to scale, and where ``impurity_map_margin(J_eff)`` is below
    ``IMPURITY_MAP_FLOOR`` = 0.05.  Near cos J_eff = 0, and near
    sin J_eff = 0 away from J_eff = 0, the bulk slice all but drops a
    component the impurity bond needs, and the map amplifies the base's
    truncation error in it.  Measured on a Floquet impurity (g 0.7, h 0.3,
    alpha 0.5, beta 0.8, T 10, chi 16, cutoff 0) against a chi = 1024
    solve: the map's C error stays at or below the scaled slice's down to
    a margin of 0.02 (J 1.55: 2.2e-9 against 6.5e-9; J 3.12: 6.9e-9
    against 1.5e-8), exceeds it from 0.012 (J 1.56: 1.9e-8 against
    1.3e-10; J 3.13: 2e-8 against 1.8e-9), and is 0.11 at J 3.1416.
    """
    if spec.impurity is None:
        raise ValueError("spec has no impurity")
    if spec.disorder is not None:
        raise ValueError("a disorder-averaged slice has no single bond "
                         "coupling to scale")
    margin = impurity_map_margin(spec.J_eff)
    if margin < IMPURITY_MAP_FLOOR:
        raise ValueError(f"J_eff = {spec.J_eff:.6g} is near a singular point "
                         f"of the impurity map: margin {margin:.3g}, below "
                         f"{IMPURITY_MAP_FLOOR}")
    # base.psi carries the phase _normalize_trace gave it: off for the real
    # basis, back on after, so the sign the normalisation picks is unchanged
    psi, phase = _real_mps(base.psi)
    before = _log_norm(psi)
    diag: Dict[str, list] = {
        "discarded_weight": list(base.diagnostics.get("discarded_weight", []))}
    weight = 0.0
    routes = base.diagnostics.get("route")
    if routes:  # a solve: one more bulk application, by the solve's rule
        step = _real_slice(spec)
        step.bound = [w for w, route in zip(diag["discarded_weight"], routes)
                      if route != "fit"][-1]
        r = step.apply(psi, chi_max, cutoff)
        psi, weight, diag["route"] = r.psi, r.discarded_weight, [r.route]
    r = apply_mpo_zipup(_real_mpo(_impurity_map(spec), _folded_bond), psi,
                        chi_max, cutoff)
    diag["impurity_drift"] = [abs(_log_norm(r.psi) - before)]
    diag["discarded_weight"].append(weight + r.discarded_weight)
    _record_entropies(diag, r.psi, r.entropies)
    return _influence_matrix(r.psi, phase, spec, base.iterations_applied + 1,
                             base.converged, diag)


def grow_ims(spec: ModelSpec, chi_max: int,
             cutoff: float = 0.0) -> Iterator[InfluenceMatrix]:
    """The IMs of horizons k = 1..spec.T, one slice application each.

    I_k = T_k(I_{k-1} (x) d) with d = [1, 0, 0, 1], exactly: the slice's
    trace mask reads its input only where the absorbed spin's last folded
    index is diagonal, and there causality makes the IM of length k the IM
    of length k - 1 times 1.  Step k applies the length-k slice to the
    previous state extended by d, written as the unit site d / sqrt2 and
    its norm, which keeps the state right-canonical; step 1 starts from d
    alone, so no boundary state enters.  The state stays in the real basis
    between steps, and each yielded IM is rotated back and
    trace-normalised; only the current one is kept.

    A grown IM is exact up to truncation by construction: it reports
    ``iterations_applied = 1`` and ``converged = True``, and no deficit or
    drift.  Its ``discarded_weight`` record is its predecessor's followed by
    its own step's.
    """
    psi = TemporalMps([], 0.0, 0)
    weights: List[float] = []
    for k in range(1, spec.T + 1):
        sub = replace(spec, T=k)
        r = _real_slice(sub).apply(
            TemporalMps(psi.tensors + [_GROWTH_SITE],
                        psi.norm_log + _GROWTH_LOG_NORM, 0),
            chi_max, cutoff)
        psi, weights = r.psi, weights + [r.discarded_weight]
        diag: Dict[str, list] = {"discarded_weight": weights}
        _record_entropies(diag, psi, r.entropies)
        yield _influence_matrix(psi, 1.0, sub, 1, True, diag)
