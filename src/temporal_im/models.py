"""Kicked-chain model specifications and the local folded kernel.

One period acts as the diagonal interaction+field layer first, then the
uniform transverse kick, i.e. U = K * D with

    D = exp(-i J_eff sum_j z_j z_{j+1} - i h_eff sum_j z_j)
    K = prod_j exp(-i g_eff x_j)

For eps > 0 the per-step angles are (J*eps, g*eps, h*eps) and the kick is
split symmetrically around the diagonal layer (half-kick, diagonal,
half-kick), which leaves the diagonal structure of the folded chain intact.
An unsplit step of size eps is the eps = 0 spec at angles (J*eps, g*eps,
h*eps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import FOLDED_BWD, FOLDED_FWD, FOLDED_SIGMA, FOLDED_SIGMA_BAR

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

PAULI = {"identity": ID2, "x": SX, "y": SY, "z": SZ}

INITIAL_STATES = ("infinite_temperature", "z_polarized_up")
DISORDER_KINDS = (None, "uniform_J_0_2pi")


def kick_matrix(angle: float) -> np.ndarray:
    """Single-site transverse kick <s'| exp(-i angle x) |s>."""
    return np.cos(angle) * ID2 - 1j * np.sin(angle) * SX


def initial_density(kind: str) -> np.ndarray:
    if kind == "infinite_temperature":
        return ID2 / 2.0
    if kind == "z_polarized_up":
        return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    raise ValueError(f"unknown initial state {kind!r}")


@dataclass(frozen=True)
class Impurity:
    alpha: float = 1.0  # scale of the on-site angles g, h at the probe site
    beta: float = 1.0   # scale of the two couplings adjacent to it


@dataclass(frozen=True)
class ModelSpec:
    J: float
    g: float
    h: float
    T: int
    eps: float = 0.0                 # 0 means native one-period dynamics
    initial_state: str = "infinite_temperature"
    impurity: Optional[Impurity] = None
    disorder: Optional[str] = None

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.initial_state not in INITIAL_STATES:
            raise ValueError(f"unknown initial state {self.initial_state!r}")
        if self.disorder not in DISORDER_KINDS:
            raise ValueError(f"unknown disorder kind {self.disorder!r}")

    # effective per-step angles
    @property
    def J_eff(self) -> float:
        return self.J * self.eps if self.eps > 0 else self.J

    @property
    def g_eff(self) -> float:
        return self.g * self.eps if self.eps > 0 else self.g

    @property
    def h_eff(self) -> float:
        return self.h * self.eps if self.eps > 0 else self.h

    @property
    def split_kick(self) -> bool:
        """Symmetric kick splitting is in effect."""
        return self.eps > 0


@dataclass(frozen=True)
class LocalKernel:
    """Per-period folded factors of a single site of the chain.

    kick is the full-step forward matrix; the backward branch uses its
    conjugate.  head transforms rho0 at the start (identity, or the half
    kick when the kick is split), tail is the transform between the last
    diagonal layer and the trace (full kick, or half kick).
    """
    kick: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    field_phases: np.ndarray  # e^{-i h_eff (sigma - sigma_bar)}, length 4
    rho0: np.ndarray
    split: bool


def floquet_kernel(spec: ModelSpec, site_role: str = "bulk") -> LocalKernel:
    """Local kernel of one chain site, fields optionally impurity-scaled."""
    if site_role not in ("bulk", "impurity_site"):
        raise ValueError(f"unknown site role {site_role!r}")
    scale = 1.0
    if site_role == "impurity_site":
        if spec.impurity is None:
            raise ValueError("impurity_site requested but spec has no impurity")
        scale = spec.impurity.alpha
    g_eff = scale * spec.g_eff
    h_eff = scale * spec.h_eff
    K = kick_matrix(g_eff)
    if spec.split_kick:
        head = kick_matrix(g_eff / 2.0)
        tail = kick_matrix(g_eff / 2.0)
    else:
        head = ID2.copy()
        tail = K
    phases = np.exp(-1j * h_eff * (FOLDED_SIGMA - FOLDED_SIGMA_BAR))
    return LocalKernel(kick=K, head=head, tail=tail, field_phases=phases,
                       rho0=initial_density(spec.initial_state),
                       split=spec.split_kick)


def trotter_steps(t: float, eps: float) -> int:
    """Step count T = t/eps; ValueError unless it is a positive integer."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    ratio = t / eps
    T = int(round(ratio)) if math.isfinite(ratio) else 0
    if T < 1 or abs(ratio - T) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"t/eps = {ratio} is not an integer step count")
    return T


def trotterize(J: float, g: float, h: float, t: float, eps: float,
               **kwargs) -> ModelSpec:
    """Spec for continuous evolution to time t in steps of eps (T = t/eps)."""
    return ModelSpec(J=J, g=g, h=h, T=trotter_steps(t, eps), eps=eps, **kwargs)


def folded_kick_links(K: np.ndarray) -> np.ndarray:
    """Pair kick factor M[p_next, p] = K[f', f] conj(K)[b', b] on folded indices."""
    return (K[FOLDED_FWD[:, None], FOLDED_FWD[None, :]]
            * K.conj()[FOLDED_BWD[:, None], FOLDED_BWD[None, :]])
