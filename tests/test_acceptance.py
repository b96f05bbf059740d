"""Acceptance suite: one test per numbered engine guarantee.

Each test prints a `[criterion N] PASS/FAIL` line directly to the terminal
(bypassing capture) so a plain ``pytest -v`` run shows the per-criterion
scoreboard.  Converged influence matrices produced along the way are pooled
in REGISTRY; the trace criterion at the bottom sweeps the whole pool.
"""
import math
import time

import numpy as np
import pytest

from temporal_im.models import Impurity, ModelSpec, floquet_kernel, trotterize
from temporal_im.influence import (boundary_mps, build_transfer_slice,
                                   solve_im)
from temporal_im.mps import apply_mpo_zipup
from temporal_im.observables import (autocorrelator_series, entropy_series,
                                     quench_magnetization_series,
                                     temporal_contract)
from temporal_im import oracles

from helpers import im_bits

FIG2 = dict(J=0.8, g=0.7236, h=0.6472)

# converged IMs pooled for the trace sweep (criteria 1-4 and 7-9)
REGISTRY = []


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _fit_loglinear(x, y):
    slope, icept = np.polyfit(x, y, 1)
    resid = y - (slope * x + icept)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - np.mean(y)) ** 2)
    return slope, r2


def test_criterion_1_engine_matches_chain_ed(capsys):
    t0 = time.monotonic()
    spec = ModelSpec(T=6, **FIG2)
    ser = autocorrelator_series(spec, chi_max=4 ** 6, cutoff=0.0,
                                im_sink=REGISTRY)
    worst = 0.0
    for T in range(1, 7):
        ed = oracles.ed_chain_evolve(ModelSpec(T=T, **FIG2), 2 * T + 1)
        worst = max(worst, abs(ser.values[T] - ed.values[T]))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 120.0
    _report(capsys, 1, ok,
            f"max |engine - ED| = {worst:.3e} over T=1..6 (chains up to 13 "
            f"sites), {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 120.0


def test_criterion_2_chaotic_relaxation(capsys):
    spec = ModelSpec(T=20, **FIG2)
    ser = autocorrelator_series(spec, chi_max=128, cutoff=1e-12,
                                reuse_im=True, im_sink=REGISTRY)
    mag = np.abs(ser.values)
    tail = float(np.max(mag[10:21]))
    ts = np.arange(2, 13)
    # the relaxation claim is exponential decay, not a monotone series:
    # inside the window |C| rises at T=3,6,7,11 (ED-exact for T <= 6), so
    # fit the non-increasing envelope max_{T' >= T} |C(T')| of the whole
    # series; a plateau or a late revival still breaks the fit
    env = np.maximum.accumulate(mag[::-1])[::-1]
    slope, r2 = _fit_loglinear(ts, np.log(env[ts]))
    _, r2_raw = _fit_loglinear(ts, np.log(mag[ts]))
    ok = tail < 0.05 and slope < 0.0 and r2 > 0.9
    _report(capsys, 2, ok,
            f"max|C| on [10,20] = {tail:.2e} (< 0.05); log-fit of the "
            f"decay envelope on [2,12]: slope {slope:+.3f}, R^2 = {r2:.4f} "
            f"(> 0.9); raw log|C| R^2 = {r2_raw:.4f}, lowered by "
            "oscillations that are ED-exact for T <= 6")
    assert tail < 0.05
    assert slope < 0.0
    assert r2 > 0.9


def test_criterion_3_exact_fixed_points(capsys):
    worst_g0 = 0.0
    for T in range(1, 11):
        spec = ModelSpec(J=0.47, g=0.0, h=0.29, T=T)
        im = solve_im(spec, chi_max=64, cutoff=0.0)
        REGISTRY.append(im)
        ref = oracles.im_g0(0.47, T).amplitudes
        worst_g0 = max(worst_g0, float(np.max(np.abs(im.psi.dense() - ref))))
    worst_pd = 0.0
    for T in range(1, 11):
        spec = ModelSpec(J=math.pi / 4, g=math.pi / 4, h=0.3, T=T)
        pd = oracles.dense_boundary_vector("perfect_dephaser", T)
        # the product state must be left invariant by one slice application
        res = apply_mpo_zipup(build_transfer_slice(spec),
                              boundary_mps("perfect_dephaser", T),
                              chi_max=16, cutoff=0.0)
        worst_pd = max(worst_pd, float(np.max(np.abs(res.psi.dense() - pd))))
        im = solve_im(spec, boundary="perfect_dephaser", chi_max=16, cutoff=0.0)
        REGISTRY.append(im)
        v = im.psi.dense()
        ref = pd * (np.linalg.norm(v) / np.linalg.norm(pd))
        worst_pd = max(worst_pd, float(np.max(np.abs(v - ref))))
    ok = worst_g0 < 1e-10 and worst_pd < 1e-10
    _report(capsys, 3, ok,
            f"g=0 closed form: max err {worst_g0:.2e}; perfect dephaser at "
            f"|J|=|g|=pi/4: max err {worst_pd:.2e} (T <= 10)")
    assert worst_g0 < 1e-10
    assert worst_pd < 1e-10


def test_criterion_4_entanglement_barrier(capsys):
    gaps, dips = [], []
    for T in (6, 8, 10, 12):
        spec = ModelSpec(T=T, **FIG2)
        im_open = solve_im(spec, boundary="open", chi_max=128, cutoff=1e-12)
        im_pd = solve_im(spec, boundary="perfect_dephaser", chi_max=128,
                         cutoff=1e-12)
        REGISTRY.extend([im_open, im_pd])
        peak_open = max(im_open.diagnostics["entropy_halfcut"])
        peak_pd = max(im_pd.diagnostics["entropy_halfcut"])
        gaps.append(peak_open - peak_pd)
        seq = np.array(im_pd.diagnostics["entropy_max"])
        dips.append(float(np.min(np.diff(seq))) if len(seq) > 1 else 0.0)
    ok = all(g > 0 for g in gaps) and all(d >= -1e-6 for d in dips)
    _report(capsys, 4, ok,
            f"open-minus-PD entropy barrier at T=6,8,10,12: "
            f"{['%.2f' % g for g in gaps]}; worst PD iteration dip "
            f"{min(dips):.2e} (slack 1e-6)")
    assert all(g > 0 for g in gaps)
    assert all(d >= -1e-6 for d in dips)


def test_criterion_6_trotter_entropy_scaling(capsys):
    eps = [0.04, 0.02, 0.01]
    specs = [trotterize(1.0, math.sqrt(2.0), 0.681, 2.0, e) for e in eps]
    ser = entropy_series(specs, [32, 64], cutoff=0.0)
    s = ser.values.real
    ratios = (s[0] / s[1], s[1] / s[2])
    conv = ser.extras["chi_converged"]
    ok = (s[0] > s[1] > s[2] > 0 and min(ratios) > 2.0 and all(conv))
    _report(capsys, 6, ok,
            f"half-cut TE entropy at eps=0.04/0.02/0.01: "
            f"{s[0]:.5f}/{s[1]:.5f}/{s[2]:.5f}, ratios "
            f"{ratios[0]:.2f}, {ratios[1]:.2f} (> 2), chi-converged {conv}")
    assert s[0] > s[1] > s[2] > 0
    assert min(ratios) > 2.0
    assert all(conv)


def test_criterion_7_impurity_limits(capsys):
    spec0 = ModelSpec(T=6, impurity=Impurity(alpha=0.37, beta=0.0), **FIG2)
    ser0 = autocorrelator_series(spec0, chi_max=64, cutoff=0.0,
                                 im_sink=REGISTRY)
    iso = oracles.isolated_spin_autocorrelator(spec0)
    err_beta0 = float(np.max(np.abs(ser0.values - iso)))

    spec1 = ModelSpec(T=6, impurity=Impurity(alpha=1.0, beta=1.0), **FIG2)
    ser1 = autocorrelator_series(spec1, chi_max=128, cutoff=0.0,
                                 im_sink=REGISTRY)
    hom = autocorrelator_series(ModelSpec(T=6, **FIG2), chi_max=128,
                                cutoff=0.0, im_sink=REGISTRY)
    err_hom = float(np.max(np.abs(ser1.values - hom.values)))

    bits = lambda alpha: im_bits(solve_im(
        ModelSpec(T=4, impurity=Impurity(alpha=alpha, beta=0.6), **FIG2),
        chi_max=32, cutoff=0.0))
    bitwise = bits(0.2) == bits(1.4)
    ok = err_beta0 < 1e-10 and err_hom < 1e-10 and bitwise
    _report(capsys, 7, ok,
            f"beta=0 vs isolated spin: {err_beta0:.2e}; alpha=beta=1 vs "
            f"homogeneous: {err_hom:.2e}; IMs alpha-independent bitwise: "
            f"{bitwise}")
    assert err_beta0 < 1e-10
    assert err_hom < 1e-10
    assert bitwise


def test_criterion_8_quench_confinement(capsys):
    q = quench_magnetization_series(1.0, 0.25, 0.4, 10.0, 0.04, 64,
                                    cutoff=1e-12, reuse_im=True,
                                    im_sink=REGISTRY)
    v = q.values.real
    low = float(np.min(v))
    peaks = [k for k in range(1, len(v) - 1)
             if v[k] > v[k - 1] and v[k] > v[k + 1] and q.abscissa[k] <= 10.0]
    # short-time cross-check against a dense 11-site chain
    spec2 = trotterize(1.0, 0.25, 0.4, 2.0, 0.04,
                       initial_state="z_polarized_up")
    ed = oracles.ed_chain_evolve(spec2, 11)
    err2 = float(np.max(np.abs(v[:51] - ed.values.real)))
    ok = low >= 0.5 and len(peaks) >= 3 and err2 < 1e-3
    _report(capsys, 8, ok,
            f"min <sigma_z> over t<=10: {low:.4f} (>= 0.5); "
            f"{len(peaks)} local maxima in (0,10]; dense check t<=2: "
            f"max err {err2:.2e}")
    assert low >= 0.5
    assert len(peaks) >= 3
    assert err2 < 1e-3


def test_criterion_9_dtc_response(capsys):
    base = dict(J=1.0, g=math.pi / 2 - 0.1, h=0.3, disorder="uniform_J_0_2pi")
    ser64 = autocorrelator_series(ModelSpec(T=20, **base), chi_max=64,
                                  cutoff=1e-12, im_sink=REGISTRY)
    ser32 = autocorrelator_series(ModelSpec(T=20, **base), chi_max=32,
                                  cutoff=1e-12, im_sink=REGISTRY)
    v = ser64.values.real
    margin = min((-1) ** T * v[T] for T in range(1, 21))
    drop_ok = abs(v[20]) >= abs(ser32.values.real[20]) - 0.02

    ser3 = autocorrelator_series(ModelSpec(T=3, **base), chi_max=64,
                                 cutoff=0.0, im_sink=REGISTRY)
    mc = oracles.ed_disorder_monte_carlo(ModelSpec(T=3, **base), 7,
                                         samples=2000, seed=20)
    z = abs(ser3.values.real[3] - mc.values.real[3]) / mc.extras["sem"][3]
    ok = margin > 0 and drop_ok and z < 3.0
    _report(capsys, 9, ok,
            f"period-doubled sign margin {margin:.3f} (> 0 for T<=20); "
            f"|C(20)|: chi64 {abs(v[20]):.4f} vs chi32 "
            f"{abs(ser32.values.real[20]):.4f} (within 0.02); "
            f"T=3 IM vs 2000-sample MC: {z:.2f} standard errors")
    assert margin > 0
    assert drop_ok
    assert z < 3.0


def test_criterion_10_dtc_entropy_scaling(capsys):
    rels = []
    for T in (8, 16, 32):
        spec = ModelSpec(J=1.0, g=math.pi / 2, h=0.3, T=T,
                         disorder="uniform_J_0_2pi")
        im = solve_im(spec, chi_max=64, cutoff=1e-12)
        S = im.diagnostics["entropy_halfcut"][-1]
        D = oracles.dicke_entropy(2 * T, T)
        rels.append(abs(S - D) / D)
    clean_ok = max(rels) < 0.05

    Ts = [8, 12, 16, 24, 32]
    specs = [ModelSpec(J=1.0, g=math.pi / 2 - 0.1, h=0.3, T=T,
                       disorder="uniform_J_0_2pi") for T in Ts]
    ser = entropy_series(specs, [32, 64], cutoff=1e-12)
    y = ser.values.real
    slope, r2 = _fit_loglinear(np.log(np.asarray(Ts, float)), y)
    by = ser.extras["by_chi"]
    chi_rel = float(np.max(np.abs(np.asarray(by[32]) - np.asarray(by[64]))
                           / np.abs(np.asarray(by[64]))))
    ok = clean_ok and slope > 0 and r2 > 0.95 and chi_rel < 0.02
    _report(capsys, 10, ok,
            f"clean pulse: S vs Dicke rel err {max(rels):.2%} (< 5%) at "
            f"T=8,16,32; detuned: S = a + b log T fit R^2 = {r2:.4f} "
            f"(b = {slope:.3f}); chi 32 vs 64 within {chi_rel:.2%}")
    assert clean_ok
    assert slope > 0
    assert r2 > 0.95
    assert chi_rel < 0.02


def test_criterion_11a_binary_entropy_small_coupling(capsys):
    # the exact g=0 Schmidt entropy is the binary entropy of the closed-form
    # weight p = (1 - c^2M)(1 - c^2N) / (2 (1 + c^2T)); the reference
    # diagonalizes the branch Gram matrices and never evaluates p
    J = 0.05
    worst = 0.0
    worst_at = None
    for T in (10, 20, 30, 40):  # J^2 T <= 0.1 throughout
        for M in range(1, T):
            exact = oracles.g0_schmidt_entropy(J, T, M)
            closed = oracles.binary_entropy(
                oracles.g0_schmidt_probability(J, M, T))
            d = abs(exact - closed)
            if d > worst:
                worst, worst_at = d, (T, M)
    ok = worst < 1e-6
    _report(capsys, "11a", ok,
            f"binary entropy of the closed-form Schmidt weight vs Gram "
            f"Schmidt entropy: max |diff| = {worst:.3e} at (T,M)={worst_at} "
            f"(tolerance 1e-6); the printed form evaluates the binary "
            f"entropy at twice that weight, e.g. T=40,M=20: printed "
            f"{oracles.binary_entropy_formula(J, 20, 40):.8f} vs exact "
            f"{oracles.g0_schmidt_entropy(J, 40, 20):.8f}")
    assert worst < 1e-6


def test_criterion_11b_binary_entropy_self_dual_discrepancy(capsys):
    J = math.pi / 4
    rows = []
    for T, M in ((6, 3), (8, 4), (10, 5), (10, 2)):
        formula = oracles.binary_entropy_formula(J, M, T)
        dense = oracles.g0_schmidt_entropy(J, T, M)
        rows.append((T, M, formula, dense))
    formula_zero = all(abs(r[2]) < 1e-12 for r in rows)
    dense_log2 = all(abs(r[3] - math.log(2.0)) < 1e-10 for r in rows)
    ok = formula_zero and dense_log2
    _report(capsys, "11b", ok,
            "J=pi/4 discrepancy reproduced: closed form gives S=0 (P=1) "
            "while the dense Schmidt entropy is log 2 = "
            f"{math.log(2.0):.10f} for all tested (T,M); the state is a "
            "GHZ pair of trajectory blocks, not a product")
    assert formula_zero
    assert dense_log2


def test_criterion_5_trace_preservation(capsys):
    assert REGISTRY, "registry is empty: earlier criteria did not run"
    worst = 0.0
    for im in REGISTRY:
        role = "impurity_site" if im.made_by == "impurity" else "bulk"
        kern = floquet_kernel(im.spec, role)
        val = temporal_contract(im, kern)
        worst = max(worst, abs(val - 1.0))
    ok = worst < 1e-8
    _report(capsys, 5, ok,
            f"empty-plan contraction over {len(REGISTRY)} pooled converged "
            f"IMs: max |trace - 1| = {worst:.3e}")
    assert worst < 1e-8
