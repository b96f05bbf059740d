"""Closed-form and brute-force references.

Everything in here is deliberately independent of the MPS machinery: dense
4^T configuration sums for the folded objects, full 2^L circuit evolution
for chain observables, and exact combinatorial entropies.  The engine
modules are tested against these, never the other way around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import (ID2, PAULI, SX, SZ, ModelSpec, floquet_kernel,
                     initial_density, kick_matrix)
from .tensor import FOLDED_BWD, FOLDED_FWD, FOLDED_SIGMA, FOLDED_SIGMA_BAR

ED_MAX_SITES = 13       # 2^13 x 2^13 complex matrix ~ 1.1 GB
DENSE_MAX_STEPS = 6     # 4^6 x 4^6 dense slice ~ 268 MB


class ResourceLimitError(RuntimeError):
    """Requested brute-force problem exceeds the supported size."""


# ---------------------------------------------------------------- folded IMs

@dataclass
class FoldedDenseIM:
    T: int
    amplitudes: np.ndarray  # length 4^T, index order matches TemporalMps sites

    def __post_init__(self):
        if self.amplitudes.size != 4 ** self.T:
            raise ValueError("amplitude count does not match T")


def folded_configs(T: int) -> np.ndarray:
    """(T, 4^T) array: folded index of each site for every configuration.

    Site 0 is the slowest-varying digit, matching the row-major dense() of a
    TemporalMps.
    """
    n = 4 ** T
    return np.array([(np.arange(n) // 4 ** (T - 1 - t)) % 4 for t in range(T)])


def im_g0(J: float, T: int) -> FoldedDenseIM:
    """Exact kick-free influence matrix, I = cos[J sum_t (sigma_t - sigmabar_t)]."""
    cfg = folded_configs(T)
    delta = (FOLDED_SIGMA[cfg] - FOLDED_SIGMA_BAR[cfg]).sum(axis=0)
    return FoldedDenseIM(T, np.cos(J * delta).astype(complex))


def normalized_g0_state(J: float, T: int) -> np.ndarray:
    """im_g0 normalized to a unit vector (the two-branch wavefunction)."""
    v = im_g0(J, T).amplitudes
    return v / np.linalg.norm(v)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log(p) - (1 - p) * math.log(1 - p))


def binary_entropy_formula(J: float, M: int, T: int) -> float:
    """Two-level entropy with P = 1 - [c^2M + c^2(T-M)] / (1 + c^2T), c = cos 2J.

    This is the printed closed form, implemented verbatim; see
    g0_schmidt_probability for the probability the dense Schmidt spectrum
    actually produces (they differ by a factor of 2 in P at small J).
    """
    if not 1 <= M <= T - 1:
        raise ValueError("need 1 <= M <= T-1")
    c = math.cos(2 * J)
    P = 1.0 - (c ** (2 * M) + c ** (2 * (T - M))) / (1.0 + c ** (2 * T))
    return binary_entropy(P)


def g0_schmidt_probability(J: float, M: int, T: int) -> float:
    """Exact smaller Schmidt weight of the normalized kick-free IM at cut M.

    The IM is a sum of two product branches e^{+iJ...} and e^{-iJ...}; Gram
    orthogonalization of the two branch vectors on each side of the cut gives
    a rank-2 spectrum with smaller weight
        p = (1 - c^2M)(1 - c^2N) / (2 (1 + c^2T)),  c = cos 2J, N = T - M.
    """
    if not 1 <= M <= T - 1:
        raise ValueError("need 1 <= M <= T-1")
    c = math.cos(2 * J)
    N = T - M
    return (1.0 - c ** (2 * M)) * (1.0 - c ** (2 * N)) / (2.0 * (1.0 + c ** (2 * T)))


def g0_schmidt_entropy(J: float, T: int, M: int) -> float:
    """Schmidt entropy of the normalized kick-free IM across cut M.

    For small T this is a literal dense SVD.  For larger T the state is a
    sum of two product branches, so the Schmidt problem reduces exactly to
    the 2x2 Gram matrices of the branch vectors; both routes agree to 1e-12
    where they overlap.
    """
    if 4 ** T <= 4 ** 8:
        v = normalized_g0_state(J, T)
        s = np.linalg.svd(v.reshape(4 ** M, -1), compute_uv=False)
        w = s ** 2
    else:
        w = _g0_gram_schmidt_weights(J, T, M)
    w = w[w > 1e-32]
    return float(-np.sum(w * np.log(w)))


def _g0_gram_schmidt_weights(J: float, T: int, M: int) -> np.ndarray:
    """Schmidt weights of the kick-free IM at cut M from 2x2 Gram matrices.

    The IM is (B+ + B-)/2 with product branches B± = prod_t e^{±iJ(sigma_t -
    sigmabar_t)}.  The Gram matrix of a product of branch vectors is the
    elementwise power of the per-site Gram matrix, and the nonzero spectrum
    of the reduced density matrix is that of G_right^T G_left.
    """
    delta = FOLDED_SIGMA - FOLDED_SIGMA_BAR
    branches = np.exp(np.outer([1j, -1j], J * delta))
    g_site = branches.conj() @ branches.T / 4.0
    g_left = g_site ** M
    g_right = g_site ** (T - M)
    w = np.linalg.eigvals(g_right.T @ g_left).real
    return w / w.sum()


# ------------------------------------------------------- dense folded slices

def _check_dense_T(T: int):
    if T > DENSE_MAX_STEPS:
        raise ResourceLimitError(f"dense folded objects limited to T <= {DENSE_MAX_STEPS}")


def dense_transfer_slice(spec: ModelSpec, bond_coupling: Optional[float] = None) -> np.ndarray:
    """Brute-force 4^T x 4^T dual transfer matrix.

    Row = trajectory of the site the slice faces, column = trajectory of the
    spin being absorbed.  Column weights carry the new spin's initial
    matrix, its longitudinal phases, kick links between consecutive steps
    and the final trace constraint; the bond phases
    e^{-i Jb (sigma_t s_t - sigmabar_t sbar_t)} couple rows to columns.
    """
    T = spec.T
    _check_dense_T(T)
    Jb = spec.J_eff if bond_coupling is None else bond_coupling
    K = kick_matrix(spec.g_eff)
    rho = initial_density(spec.initial_state)
    if spec.split_kick:
        Kh = kick_matrix(spec.g_eff / 2.0)
        rho = Kh @ rho @ Kh.conj().T
    cfg = folded_configs(T)
    s = FOLDED_SIGMA[cfg]
    sb = FOLDED_SIGMA_BAR[cfg]
    ia = FOLDED_FWD[cfg]
    ib = FOLDED_BWD[cfg]
    w = rho[ia[0], ib[0]].astype(complex)
    w *= np.exp(-1j * spec.h_eff * (s.sum(axis=0) - sb.sum(axis=0)))
    for t in range(T - 1):
        w *= K[ia[t + 1], ia[t]] * np.conj(K[ib[t + 1], ib[t]])
    w *= (ia[T - 1] == ib[T - 1])
    out = np.broadcast_to(w, (w.size, w.size)).copy()
    for t in range(T):
        out *= np.exp(-1j * Jb * (np.outer(FOLDED_SIGMA[cfg[t]], s[t])
                                  - np.outer(FOLDED_SIGMA_BAR[cfg[t]], sb[t])))
    return out


def dense_boundary_vector(kind: str, T: int) -> np.ndarray:
    site = {"open": np.ones(4), "perfect_dephaser": np.array([1.0, 0, 0, 1.0])}[kind]
    v = site.astype(complex)
    for _ in range(T - 1):
        v = np.kron(v, site)
    return v


def dense_transfer_fixed_point(spec: ModelSpec, boundary: str = "open",
                               idempotence_tol: float = 1e-8) -> FoldedDenseIM:
    """Dense power iteration: T slice applications from the boundary vector.

    Raises if one extra application still moves the result (the light cone
    guarantees exact convergence after T steps).
    """
    T = spec.T
    _check_dense_T(T)
    M = dense_transfer_slice(spec)
    v = dense_boundary_vector(boundary, T)
    for _ in range(T):
        v = M @ v
    v_next = M @ v
    resid = np.linalg.norm(v_next - v) / max(np.linalg.norm(v), 1e-300)
    if resid > idempotence_tol:
        raise RuntimeError(f"dense fixed point not idempotent after T steps: {resid:.2e}")
    return FoldedDenseIM(T, v)


def dense_disorder_slice(spec: ModelSpec) -> np.ndarray:
    """Coupling-averaged dense slice via the exact charge constraint.

    Averaging e^{-iJ(sum sigma s - sum sigmabar sbar)} over J in [0, 2pi)
    leaves delta(sum sigma s, sum sigmabar sbar) times the J-independent
    column weights.
    """
    T = spec.T
    _check_dense_T(T)
    det = dense_transfer_slice(spec, bond_coupling=0.0)
    cfg = folded_configs(T)
    lhs = np.einsum("tn,tm->nm", FOLDED_SIGMA[cfg], FOLDED_SIGMA[cfg])
    rhs = np.einsum("tn,tm->nm", FOLDED_SIGMA_BAR[cfg], FOLDED_SIGMA_BAR[cfg])
    return det * (lhs == rhs)


def quadrature_disorder_slice(spec: ModelSpec, npoints: int = 64) -> np.ndarray:
    """Trapezoid average of the dense slice over the full coupling period."""
    T = spec.T
    _check_dense_T(T)
    acc = np.zeros((4 ** T, 4 ** T), dtype=complex)
    for Jv in np.linspace(0.0, 2 * np.pi, npoints, endpoint=False):
        acc += dense_transfer_slice(spec, bond_coupling=Jv)
    return acc / npoints


# ------------------------------------------- dense contraction of the kernel

def _op_matrix(op) -> np.ndarray:
    if isinstance(op, str):
        return PAULI[op]
    m = np.asarray(op, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("operator must be 2x2")
    return m


def dense_kernel_contract(im_left: np.ndarray, im_right: np.ndarray,
                          spec: ModelSpec, plan=None,
                          site_role: str = "bulk") -> complex:
    """Contract two dense IM vectors with the local kernel by explicit
    summation over all 4^T folded trajectories of the probed site.

    Self-contained re-derivation of the folded factors (initial matrix with
    insertions, per-step field phases, kick-link superoperators with
    stroboscopic insertions, final cap); serves as the reference for the
    MPS-side contraction.
    """
    T = spec.T
    _check_dense_T(T)
    kern = floquet_kernel(spec, site_role)
    entries = [] if plan is None else list(plan.entries)
    rho = kern.rho0.copy()
    for e in entries:
        if e.time == 0:
            O = _op_matrix(e.op)
            if e.branch == "forward":
                rho = O @ rho
            elif e.branch == "backward":
                rho = rho @ O.conj().T
            else:
                rho = O @ rho @ O.conj().T
    rho = kern.head @ rho @ kern.head.conj().T
    v0 = rho.reshape(-1)  # folded order (ff, fb, bf, bb) = row-major 2x2
    dh = kern.field_phases
    S = np.einsum("ac,bd->abcd", kern.kick, kern.kick.conj()).reshape(4, 4)
    Sh = np.einsum("ac,bd->abcd", kern.head, kern.head.conj()).reshape(4, 4)
    links = []
    for t in range(1, T):
        sup = None
        for e in entries:
            if e.time != t:
                continue
            O = _op_matrix(e.op)
            if e.branch == "forward":
                step = np.einsum("ac,bd->abcd", O, ID2).reshape(4, 4)
            elif e.branch == "backward":
                step = np.einsum("ac,bd->abcd", ID2, O.conj()).reshape(4, 4)
            else:
                step = np.einsum("ac,bd->abcd", O, O.conj()).reshape(4, 4)
            sup = step if sup is None else step @ sup
        if sup is None:
            links.append(S)
        elif kern.split:
            links.append(Sh @ sup @ Sh)
        else:
            links.append(sup @ S)
    Mfin = ID2.copy()
    for e in reversed(entries):  # Tr(M rho): the last one acts last, outermost
        if e.time == T:
            O = _op_matrix(e.op)
            if e.branch == "forward":
                Mfin = Mfin @ O
            elif e.branch == "backward":
                Mfin = O.conj().T @ Mfin
            else:
                Mfin = O.conj().T @ Mfin @ O
    A = kern.tail.conj().T @ Mfin @ kern.tail
    F = A[FOLDED_BWD, FOLDED_FWD]
    cfg = folded_configs(T)
    w = v0[cfg[0]] * dh[cfg[0]]
    for t in range(1, T):
        w = w * links[t - 1][cfg[t], cfg[t - 1]] * dh[cfg[t]]
    w = w * F[cfg[T - 1]]
    return complex(np.sum(np.asarray(im_left) * np.asarray(im_right) * w))


# --------------------------------------------------------- chain brute force

def _check_ed_L(L: int):
    if L > ED_MAX_SITES:
        raise ResourceLimitError(f"chain brute force limited to L <= {ED_MAX_SITES}")
    if L < 1 or L % 2 == 0:
        raise ValueError("L must be odd so a central site exists")


def _site_z(L: int) -> np.ndarray:
    """(2^L, L) array of z eigenvalues per basis state, site 0 leftmost."""
    idx = np.arange(2 ** L)
    return 1.0 - 2.0 * (((idx[:, None] >> (L - 1 - np.arange(L))) & 1))


def _diag_phase(L: int, J_bonds: np.ndarray, h: float, zv: np.ndarray) -> np.ndarray:
    arg = np.zeros(2 ** L)
    for j in range(L - 1):
        arg += J_bonds[j] * zv[:, j] * zv[:, j + 1]
    arg += h * zv.sum(axis=1)
    return np.exp(-1j * arg)


def _apply_kick_rows(M: np.ndarray, K: np.ndarray, L: int) -> np.ndarray:
    """Apply the single-site kick to every site of the row multi-index.

    Sites are processed in fused pairs to halve the number of memory passes
    over what can be a GB-scale matrix.
    """
    K2 = np.kron(K, K)
    dim = M.shape[0]
    cols = M.size // dim
    j = 0
    while j + 1 < L:
        M = M.reshape(2 ** j, 4, -1)
        M = K2 @ M
        j += 2
    if j < L:
        M = M.reshape(2 ** j, 2, -1)
        M = K @ M
    return M.reshape(dim, cols) if cols > 1 else M.reshape(dim)


def circuit_unitary_dense(spec: ModelSpec, L: int,
                          J_bonds: Optional[Sequence[float]] = None) -> np.ndarray:
    """Full 2^L period-circuit propagator for spec.T periods."""
    _check_ed_L(L)
    zv = _site_z(L)
    Jb = np.full(L - 1, spec.J_eff) if J_bonds is None else np.asarray(J_bonds, float)
    D = _diag_phase(L, Jb, spec.h_eff, zv)
    K = kick_matrix(spec.g_eff)
    Kh = kick_matrix(spec.g_eff / 2.0)
    U = np.eye(2 ** L, dtype=complex)
    for _ in range(spec.T):
        if spec.split_kick:
            U = _apply_kick_rows(U, Kh, L)
            U = D[:, None] * U
            U = _apply_kick_rows(U, Kh, L)
        else:
            U = D[:, None] * U
            U = _apply_kick_rows(U, K, L)
    return U


def hamiltonian_dense(J: float, g: float, h: float, L: int) -> np.ndarray:
    """Dense J zz + h z + g x chain Hamiltonian (open ends)."""
    _check_ed_L(L)
    zv = _site_z(L)
    dim = 2 ** L
    H = np.zeros((dim, dim), dtype=complex)
    diag = np.zeros(dim)
    for j in range(L - 1):
        diag += J * zv[:, j] * zv[:, j + 1]
    diag += h * zv.sum(axis=1)
    np.fill_diagonal(H, diag)
    for j in range(L):
        op = np.array([[1.0]])
        for k in range(L):
            op = np.kron(op, SX if k == j else ID2)
        H += g * op
    return H


def hamiltonian_propagator(J: float, g: float, h: float, L: int, t: float) -> np.ndarray:
    """exp(-i H t) as V exp(-i E t) V^dagger from the eigenbasis of H."""
    E, V = np.linalg.eigh(hamiltonian_dense(J, g, h, L))
    return (V * np.exp(-1j * E * t)) @ V.conj().T


def ed_chain_evolve(spec: ModelSpec, L: int, plan=None,
                    J_bonds: Optional[Sequence[float]] = None):
    """Brute-force chain evaluation of the central-site observable.

    With no plan: the canonical series for the spec's initial state, i.e.
    the infinite-temperature zz autocorrelator (via Heisenberg-picture
    columns, |U|^2 weights) or the polarized-quench magnetization, one value
    per period 0..T.  With an explicit plan: density-matrix evolution with
    the plan's insertions, returning the single traced value at step T.

    For Floquet exactness take L >= 2T+1 so the open ends stay outside the
    light cone of the central site.
    """
    from .observables import ResultSeries

    _check_ed_L(L)
    if spec.disorder is not None and J_bonds is None:
        raise ValueError("disordered spec needs explicit couplings; "
                         "use ed_disorder_monte_carlo for averages")
    zv = _site_z(L)
    zc = zv[:, L // 2]
    Jb = np.full(L - 1, spec.J_eff) if J_bonds is None else np.asarray(J_bonds, float)
    D = _diag_phase(L, Jb, spec.h_eff, zv)
    K = kick_matrix(spec.g_eff)
    Kh = kick_matrix(spec.g_eff / 2.0)
    dim = 2 ** L
    meta = {"L": L, "engine": "chain-brute-force", "eps": spec.eps}
    abscissa = np.arange(spec.T + 1) * (spec.eps if spec.eps > 0 else 1.0)

    if plan is not None:
        rho = _initial_rho(spec, L)
        val = _evolve_density_with_plan(spec, plan, rho, D, K, Kh, L, zv)
        return ResultSeries("chain-ed-plan", abscissa[-1:], np.array([val]), meta)

    if spec.initial_state == "z_polarized_up":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        out = [1.0]
        for _ in range(spec.T):
            if spec.split_kick:
                v = _apply_kick_rows(v[:, None], Kh, L)
                v = D * v
                v = _apply_kick_rows(v[:, None], Kh, L)
            else:
                v = D * v
                v = _apply_kick_rows(v[:, None], K, L)
            out.append(np.real(np.vdot(v, zc * v)))
        return ResultSeries("chain-ed-quench", abscissa,
                            np.asarray(out, dtype=complex), meta)

    # infinite temperature: C(T') = sum_{a,s} z_a |U_{as}|^2 z_s / 2^L
    U = np.eye(dim, dtype=complex)
    out = [1.0]
    for _ in range(spec.T):
        if spec.split_kick:
            U = _apply_kick_rows(U, Kh, L)
            U = D[:, None] * U
            U = _apply_kick_rows(U, Kh, L)
        else:
            U = D[:, None] * U
            U = _apply_kick_rows(U, K, L)
        W = U.real ** 2 + U.imag ** 2
        out.append(float(zc @ (W @ zc)) / dim)
    return ResultSeries("chain-ed-czz", abscissa, np.asarray(out, dtype=complex), meta)


def _initial_rho(spec: ModelSpec, L: int) -> np.ndarray:
    """Chain density matrix: the spec's one-site state on every site."""
    if spec.initial_state == "infinite_temperature":
        return np.eye(2 ** L, dtype=complex) / 2 ** L
    rho = np.array([[1.0]], dtype=complex)
    site = initial_density(spec.initial_state)
    for _ in range(L):
        rho = np.kron(rho, site)
    return rho


def _apply_center_left(rho: np.ndarray, O: np.ndarray, L: int) -> np.ndarray:
    c = L // 2
    shp = rho.shape
    rho = rho.reshape(2 ** c, 2, -1)
    rho = np.einsum("ab,ibk->iak", O, rho)
    return rho.reshape(shp)


def _evolve_density_with_plan(spec, plan, rho, D, K, Kh, L, zv) -> complex:
    def insert(rho, t):
        for e in plan.entries:
            if e.time != t:
                continue
            O = _op_matrix(e.op)
            if e.branch in ("forward", "both"):
                rho = _apply_center_left(rho, O, L)
            if e.branch in ("backward", "both"):
                # rho O^dag == (O rho^dag)^dag, via the row helper
                rho = _apply_center_left(rho.conj().T, O, L).conj().T
        return rho

    rho = insert(rho, 0)
    for t in range(1, spec.T + 1):
        if spec.split_kick:
            rho = _apply_kick_rows(rho, Kh, L)
            rho = _apply_kick_rows(rho.conj().T, Kh, L).conj().T
            rho = D[:, None] * rho * D.conj()[None, :]
            rho = _apply_kick_rows(rho, Kh, L)
            rho = _apply_kick_rows(rho.conj().T, Kh, L).conj().T
        else:
            rho = D[:, None] * rho * D.conj()[None, :]
            rho = _apply_kick_rows(rho, K, L)
            rho = _apply_kick_rows(rho.conj().T, K, L).conj().T
        rho = insert(rho, t)
    return complex(np.trace(rho))


def ed_disorder_monte_carlo(spec: ModelSpec, L: int, samples: int, seed: int):
    """Sample-averaged autocorrelator for uniformly random bond couplings.

    Per-sample couplings come from a counter-based generator keyed with
    (seed, sample index), so any sample can be reproduced independently.
    Returns the mean series; the standard error per step is in extras.
    """
    from .observables import ResultSeries

    _check_ed_L(L)
    if spec.disorder != "uniform_J_0_2pi":
        raise ValueError("spec has no uniform coupling disorder")
    acc = np.zeros(spec.T + 1)
    acc2 = np.zeros(spec.T + 1)
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        Jb = rng.uniform(0.0, 2 * np.pi, L - 1)
        series = ed_chain_evolve(
            ModelSpec(J=spec.J, g=spec.g, h=spec.h, T=spec.T, eps=spec.eps,
                      initial_state=spec.initial_state),
            L, J_bonds=Jb)
        vals = series.values.real
        acc += vals
        acc2 += vals ** 2
    mean = acc / samples
    var = np.maximum(acc2 / samples - mean ** 2, 0.0)
    sem = np.sqrt(var / max(samples - 1, 1))
    out = ResultSeries("chain-ed-disorder-mc",
                       np.arange(spec.T + 1, dtype=float),
                       mean.astype(complex),
                       {"L": L, "samples": samples, "seed": seed,
                        "generator": "philox(seed, index)"})
    out.extras["sem"] = sem
    return out


def isolated_spin_autocorrelator(spec: ModelSpec) -> np.ndarray:
    """Exact C_zz(T') series of one decoupled spin, T' = 0..spec.T.

    Built from 2x2 period propagators only.  When the spec carries an
    impurity, its alpha scaling of the on-site angles is applied (the beta=0
    limit of the impurity problem is exactly this spin).
    """
    scale = 1.0 if spec.impurity is None else spec.impurity.alpha
    g = scale * spec.g_eff
    h = scale * spec.h_eff
    D = np.diag(np.exp(-1j * h * np.array([1.0, -1.0])))
    if spec.split_kick:
        Kh = kick_matrix(g / 2.0)
        U = Kh @ D @ Kh
    else:
        U = kick_matrix(g) @ D
    out = [1.0]
    M = ID2.copy()
    for _ in range(spec.T):
        M = U @ M
        out.append(float(np.real(np.trace(M.conj().T @ SZ @ M @ SZ)) / 2.0))
    return np.asarray(out)


# ----------------------------------------------------------- exact entropies

def dicke_entropy(T: int, M: int, staggered: bool = False) -> float:
    """Half-cut entropy of the zero-magnetization Dicke state of T spins.

    Schmidt weights across an M | T-M cut are hypergeometric,
    w_j = C(M, j) C(T-M, T/2-j) / C(T, T/2).  The staggered variant differs
    only by single-site phase flips, which act within each side of the cut
    and cannot change the spectrum; the flag is accepted and ignored beyond
    an assertion of that fact.
    """
    if T % 2 != 0:
        raise ValueError("T must be even for the zero-magnetization sector")
    if not 1 <= M <= T - 1:
        raise ValueError("need 1 <= M <= T-1")
    K = T // 2
    j_lo = max(0, K - (T - M))
    j_hi = min(M, K)
    w = np.array([math.comb(M, j) * math.comb(T - M, K - j)
                  for j in range(j_lo, j_hi + 1)], dtype=float)
    w /= math.comb(T, K)
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))
