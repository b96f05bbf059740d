"""Output checks of the four benchmark workloads.

Each check reads the CSV that ``temporal-im run`` wrote and compares it with
a reference computed apart from the engine (``temporal_im.oracles``: chain
exact diagonalization and dense folded slices), or with a property the
physics must have.  A check returns a list of failures, each starting with a
short tag (``ed``, ``dense``, ``sign``, ``maxima``, ...) so the self-test can
tell which clause caught a defect.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(HERE, "workloads")

CSV_COLUMNS = ["abscissa", "value_re", "value_im", "entropy_halfcut",
               "entropy_max", "discarded_weight", "chi", "eps", "boundary",
               "seed"]

# Sites of the exact-diagonalization chain.  2T+1 sites make the floquet
# reference exact for T <= 5; 13 sites would cost 20x more.
ED_SITES = 11


# ------------------------------------------------------------------ inputs

def read_config(path: str) -> Dict[str, str]:
    """``key = value`` lines with ``#`` comments, values kept as text."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    return out


class Series(NamedTuple):
    """One CSV as columns."""
    x: np.ndarray            # abscissa
    v: np.ndarray            # complex value
    entropy_halfcut: np.ndarray
    chi: np.ndarray
    boundary: List[str]
    seed: List[str]


def read_series(path: str) -> Series:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError(f"{path}: header {rows[:1]} is not {CSV_COLUMNS}")
    cols = list(zip(*rows[1:]))
    num = lambda name: np.array([float(x) for x in cols[CSV_COLUMNS.index(name)]])
    return Series(num("abscissa"), num("value_re") + 1j * num("value_im"),
                  num("entropy_halfcut"), num("chi"),
                  list(cols[CSV_COLUMNS.index("boundary")]),
                  list(cols[CSV_COLUMNS.index("seed")]))


# --------------------------------------------------------------- references

class _Insertion(NamedTuple):
    time: int
    branch: str
    op: str


class _Plan(NamedTuple):
    entries: list
    initial_state: Optional[str] = None


def _czz_plan(T: int) -> _Plan:
    return _Plan([_Insertion(0, "forward", "z"), _Insertion(T, "forward", "z")])


def floquet_reference(p: Dict[str, str]) -> np.ndarray:
    """C_zz(T) for T = 0..5 from an ED chain of 11 sites (exact for T <= 5)."""
    from temporal_im.models import ModelSpec
    from temporal_im.oracles import ed_chain_evolve

    T = (ED_SITES - 1) // 2
    spec = ModelSpec(J=float(p["J"]), g=float(p["g"]), h=float(p["h"]), T=T)
    return ed_chain_evolve(spec, ED_SITES).values


def quench_reference(p: Dict[str, str]) -> np.ndarray:
    """m(t) for t <= 2 from an ED chain of 11 sites (Lieb-Robinson tails only)."""
    from temporal_im.models import trotterize
    from temporal_im.oracles import ed_chain_evolve

    spec = trotterize(float(p["J"]), float(p["g"]), float(p["h"]), 2.0,
                      float(p["eps"]), initial_state="z_polarized_up")
    return ed_chain_evolve(spec, ED_SITES).values


def dtc_reference(p: Dict[str, str], T_dense: int = 4) -> np.ndarray:
    """C(T') for T' = 0..4 from the dense, exactly disorder-averaged slice.

    T'+1 applications of the dense slice to the open boundary reach its
    fixed point; the contraction is divided by the empty-plan value.
    """
    from temporal_im.models import ModelSpec
    from temporal_im.oracles import (dense_boundary_vector,
                                     dense_disorder_slice,
                                     dense_kernel_contract)

    out = [1.0 + 0j]
    for T in range(1, T_dense + 1):
        spec = ModelSpec(J=1.0, g=math.pi / 2 - float(p["eps_kick"]),
                         h=float(p["h"]), T=T, disorder="uniform_J_0_2pi")
        M = dense_disorder_slice(spec)
        v = dense_boundary_vector("open", T)
        for _ in range(T + 1):
            v = M @ v
            v = v / np.linalg.norm(v)
        out.append(dense_kernel_contract(v, v, spec, _czz_plan(T))
                   / dense_kernel_contract(v, v, spec, None))
    return np.array(out)


def impurity_reference(p: Dict[str, str], T_dense: int = 5) -> np.ndarray:
    """C(T) for T = 0..5: dense bulk fixed point, one dense impurity slice at
    beta * J_eff, then the impurity-site contraction over the empty plan."""
    from temporal_im.models import Impurity, trotterize
    from temporal_im.oracles import (dense_kernel_contract,
                                     dense_transfer_fixed_point,
                                     dense_transfer_slice)

    eps, beta = float(p["eps"]), float(p["beta"])
    out = [1.0 + 0j]
    for T in range(1, T_dense + 1):
        spec = trotterize(float(p["J"]), float(p["g"]), float(p["h"]), T * eps,
                          eps, impurity=Impurity(alpha=float(p["alpha"]),
                                                 beta=beta))
        v = dense_transfer_fixed_point(spec).amplitudes
        w = dense_transfer_slice(spec, bond_coupling=beta * spec.J_eff) @ v
        w = w / np.linalg.norm(w)
        out.append(dense_kernel_contract(w, w, spec, _czz_plan(T),
                                         site_role="impurity_site")
                   / dense_kernel_contract(w, w, spec, None,
                                           site_role="impurity_site"))
    return np.array(out)


# ------------------------------------------------------------------- checks

def _steps(p: Dict[str, str]) -> int:
    if "T_max" in p:
        return int(p["T_max"])
    return int(round(float(p["t_max"]) / float(p["eps"])))


def check_series(w: "Workload", s: Series, p: Dict[str, str], ref: np.ndarray,
                 seed: int) -> List[str]:
    """All failures of one CSV: the clauses every workload shares, then the
    workload's own."""
    T = _steps(p)
    if len(s.x) != T + 1:
        return [f"rows: {len(s.x)} rows, expected {T + 1}"]
    bad = []
    if not np.all(np.isfinite(s.v)):
        bad.append("finite: non-finite value")
    if abs(s.v[0] - 1.0) > 1e-12:
        bad.append(f"start: value at 0 is {s.v[0]!r}, expected 1")
    if np.max(s.chi) > int(p["chi"]):
        bad.append(f"chi: bond {np.max(s.chi):g} above chi = {p['chi']}")
    if set(s.boundary) != {"open"}:
        bad.append(f"boundary: labels {sorted(set(s.boundary))}")
    if set(s.seed) != {str(seed)}:
        bad.append(f"seed: column {sorted(set(s.seed))}, expected {seed}")
    return bad + w.check(s, p, ref)


def _compare(tag: str, got: np.ndarray, ref: np.ndarray, tol: float) -> List[str]:
    err = float(np.max(np.abs(got - ref)))
    return [] if err <= tol else [f"{tag}: max |csv - reference| = {err:.2e} > {tol:.0e}"]


def check_floquet(s: Series, p, ref) -> List[str]:
    T = _steps(p)
    bad = _compare("ed", s.v[:len(ref)], ref, 1e-5)
    im = float(np.max(np.abs(s.v.imag)))
    if im > 1e-5:
        bad.append(f"imag: max |Im C| = {im:.2e} > 1e-05")
    tail = float(np.max(np.abs(s.v[10:])))
    if tail >= 0.05:
        bad.append(f"tail: max |C| on [10,{T}] = {tail:.3g} >= 0.05")
    if np.nanmax(s.entropy_halfcut) > math.log(int(p["chi"])) + 1e-12:
        bad.append("entropy: half-cut entropy above log chi")
    return bad


def check_quench(s: Series, p, ref) -> List[str]:
    T = _steps(p)
    bad = _compare("ed", s.v[:len(ref)], ref, 1e-6)
    m = s.v.real
    if np.max(np.abs(s.v)) > 1.0 + 1e-9:
        bad.append("bound: |m| > 1")
    if np.min(m) < 0.5:
        bad.append(f"floor: min m = {np.min(m):.3g} < 0.5")
    peaks = [i for i in range(1, T) if m[i] > m[i - 1] and m[i] > m[i + 1]]
    if len(peaks) < 3:
        bad.append(f"maxima: {len(peaks)} local maxima on (0,{p['t_max']}], need 3")
    return bad


def check_dtc(s: Series, p, ref) -> List[str]:
    T = _steps(p)
    bad = _compare("dense", s.v[:len(ref)], ref, 1e-7)
    wrong = [k for k in range(T + 1) if (-1) ** k * s.v[k].real <= 0]
    if wrong:
        bad.append(f"sign: (-1)^T C(T) <= 0 at T = {wrong}")
    return bad


def check_impurity(s: Series, p, ref) -> List[str]:
    bad = _compare("dense", s.v[:len(ref)], ref, 1e-12)
    if np.max(np.abs(s.v)) > 1.0 + 1e-9:
        bad.append("bound: |C| > 1")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    reference: Callable[[Dict[str, str]], np.ndarray]
    check: Callable[[Series, Dict[str, str], np.ndarray], List[str]]

    @property
    def config_path(self) -> str:
        return os.path.join(WORKLOAD_DIR, self.name + ".cfg")

    def params(self) -> Dict[str, str]:
        return read_config(self.config_path)

    def csv_name(self, p: Dict[str, str]) -> str:
        return f"{p['experiment']}_chi{p['chi']}.csv"


WORKLOADS = {w.name: w for w in (
    Workload("floquet-chaotic", floquet_reference, check_floquet),
    Workload("quench-confined", quench_reference, check_quench),
    Workload("dtc-disorder", dtc_reference, check_dtc),
    Workload("impurity-fresh", impurity_reference, check_impurity),
)}
