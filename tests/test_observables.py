import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temporal_im.models import Impurity, ModelSpec, floquet_kernel, trotterize
from temporal_im.influence import solve_im
from temporal_im.observables import (Insertion, InsertionPlan,
                                     _contract_scan, _scaled,
                                     autocorrelator_series, entropy_series,
                                     quench_magnetization_series,
                                     temporal_contract)
from temporal_im import oracles

from helpers import czz_plan

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])

SPEC = ModelSpec(J=0.31, g=0.57, h=0.23, T=3)


def _im(spec, chi=256):
    return solve_im(spec, chi_max=chi, cutoff=0.0)


def test_plan_validation():
    plan = InsertionPlan((Insertion(0, "forward", SZ),))
    plan.validate(3)
    with pytest.raises(ValueError):
        InsertionPlan((Insertion(5, "forward", SZ),)).validate(3)
    with pytest.raises(ValueError):
        InsertionPlan((Insertion(1, "up", SZ),)).validate(3)
    with pytest.raises(ValueError):
        InsertionPlan((Insertion(1, "forward", np.eye(3)),)).validate(3)
    with pytest.raises(ValueError):
        InsertionPlan((Insertion(1, "forward", 2.0 * SZ),)).validate(3)


def test_czz_plan_shape():
    plan = czz_plan(4)
    assert [e.time for e in plan.entries] == [0, 4]
    assert all(e.branch == "forward" for e in plan.entries)


def test_empty_plan_contracts_to_one():
    val = temporal_contract(_im(SPEC), floquet_kernel(SPEC))
    assert np.isclose(val, 1.0, atol=1e-12)


@pytest.mark.parametrize("spec", [
    SPEC,
    ModelSpec(J=0.8, g=0.45, h=0.3, T=3, eps=0.1),
    ModelSpec(J=0.08, g=0.045, h=0.03, T=3),  # an unsplit step of 0.1
])
def test_contract_matches_dense_kernel_sum(spec):
    im = _im(spec)
    kern = floquet_kernel(spec)
    d = im.psi.dense()
    for plan in (None,
                 czz_plan(spec.T),
                 InsertionPlan((Insertion(1, "backward", SZ),
                                Insertion(spec.T, "forward", SZ))),
                 InsertionPlan((Insertion(2, "both", SX),))):
        got = temporal_contract(im, kern, plan)
        want = oracles.dense_kernel_contract(d, d, spec, plan)
        assert np.isclose(got, want, atol=1e-11), plan


def test_contract_in_log_space_matches():
    """Past a scale of e^700 the contraction scales in log space: moving
    e^348 from the first tensor into norm_log leaves its value as it was."""
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=6)
    im, kern, plans = _im(spec), floquet_kernel(spec), (None, czz_plan(6))
    want = [temporal_contract(im, kern, plan) for plan in plans]
    im.psi.norm_log += 348.0
    im.psi.tensors[0] = im.psi.tensors[0] * math.exp(-348.0)
    assert 2 * im.psi.norm_log >= 700.0
    got = [temporal_contract(im, kern, plan) for plan in plans]
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    assert abs(want[1]) > 1e-2


def test_scaled_past_the_float_range_is_not_finite():
    """A value scaled past the float range is a non-finite complex, which
    the trace normalisation turns into ``NumericalInstabilityError``; a
    zero stays zero at any scale."""
    assert not np.isfinite(_scaled(1.0, 800.0))
    assert _scaled(0.0, 800.0) == 0
    assert _scaled(1.0, 700.0) == math.exp(700.0)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 8, 9, 10, 16, 17])
def test_scan_matches_contraction_at_every_insertion(T):
    """The scan's k-th value is the network with sigma^z inserted at k, for
    every k, across the edges of its sqrt(T) segments: squares of T and
    one either side of each."""
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=T)
    im, kern = solve_im(spec, chi_max=16, cutoff=0.0), floquet_kernel(spec)
    base = [Insertion(0, "forward", "z")]
    got = _contract_scan(im, kern, InsertionPlan(base))
    want = [temporal_contract(im, kern, InsertionPlan(
        base + [Insertion(k, "forward", "z")])) for k in range(1, T + 1)]
    assert np.max(np.abs(got - want)) < 1e-13


def test_contract_uses_kernel_not_spec():
    # alpha enters through the kernel argument only
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=3,
                     impurity=Impurity(alpha=0.4, beta=1.0))
    im = _im(spec)
    bulk = temporal_contract(im, floquet_kernel(spec), czz_plan(3))
    imp = temporal_contract(im, floquet_kernel(spec, "impurity_site"),
                            czz_plan(3))
    assert abs(bulk - imp) > 1e-3


def test_autocorrelator_matches_chain_ed():
    for spec in (ModelSpec(J=0.8, g=0.7236, h=0.6472, T=4), SPEC):
        ser = autocorrelator_series(spec, chi_max=256, cutoff=0.0)
        ed = oracles.ed_chain_evolve(spec, 2 * spec.T + 1)
        assert np.max(np.abs(ser.values - ed.values)) < 1e-10
        assert ser.values[0] == 1.0
        assert np.max(np.abs(ser.values.imag)) < 1e-8


def test_autocorrelator_reuse_matches_fresh():
    for spec in (ModelSpec(J=0.8, g=0.7236, h=0.6472, T=5),
                 ModelSpec(J=0.8, g=0.45, h=0.3, T=6, eps=0.1)):
        fresh = autocorrelator_series(spec, chi_max=256, cutoff=0.0)
        reused = autocorrelator_series(spec, chi_max=256, cutoff=0.0,
                                       reuse_im=True)
        assert np.max(np.abs(fresh.values - reused.values)) < 1e-9


def test_autocorrelator_requires_infinite_temperature():
    spec = ModelSpec(J=0.5, g=0.5, h=0.5, T=2, initial_state="z_polarized_up")
    with pytest.raises(ValueError):
        autocorrelator_series(spec, chi_max=16)


def test_autocorrelator_abscissa_units():
    ser = autocorrelator_series(SPEC, chi_max=64)
    assert np.allclose(ser.abscissa, [0, 1, 2, 3])
    strot = ModelSpec(J=1.0, g=0.5, h=0.2, T=4, eps=0.1)
    ser = autocorrelator_series(strot, chi_max=64)
    assert np.allclose(ser.abscissa, [0.0, 0.1, 0.2, 0.3, 0.4])


def test_impurity_series_limits():
    # beta=0: environment decouples, series equals the isolated spin
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=4,
                     impurity=Impurity(alpha=0.37, beta=0.0))
    ser = autocorrelator_series(spec, chi_max=64, cutoff=0.0)
    iso = oracles.isolated_spin_autocorrelator(spec)
    assert np.max(np.abs(ser.values - iso)) < 1e-10
    # alpha=beta=1: impurity machinery reduces to the homogeneous chain
    spec1 = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=4,
                      impurity=Impurity(alpha=1.0, beta=1.0))
    hom = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=4)
    a = autocorrelator_series(spec1, chi_max=128, cutoff=0.0)
    b = autocorrelator_series(hom, chi_max=128, cutoff=0.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_quench_matches_chain_ed():
    q = quench_magnetization_series(1.0, 0.25, 0.4, 0.8, 0.2, 64, 0.0)
    spec = trotterize(1.0, 0.25, 0.4, 0.8, 0.2, initial_state="z_polarized_up")
    ed = oracles.ed_chain_evolve(spec, 9)
    assert np.max(np.abs(q.values - ed.values)) < 1e-9
    assert np.allclose(q.abscissa, [0.0, 0.2, 0.4, 0.6, 0.8])


def test_quench_reuse_matches_fresh():
    fresh = quench_magnetization_series(1.0, 0.25, 0.4, 1.0, 0.2, 64, 0.0)
    reused = quench_magnetization_series(1.0, 0.25, 0.4, 1.0, 0.2, 64, 0.0,
                                         reuse_im=True)
    assert np.max(np.abs(fresh.values - reused.values)) < 1e-9


def test_series_extras_columns():
    ser = autocorrelator_series(SPEC, chi_max=32, cutoff=1e-12)
    n = len(ser.abscissa)
    for key in ("entropy_halfcut", "entropy_max", "discarded_weight"):
        assert len(ser.extras[key]) == n
    assert math.isnan(ser.extras["entropy_halfcut"][0])


def test_entropy_series_reports_chi_convergence():
    specs = [ModelSpec(J=0.31, g=0.57, h=0.23, T=T) for T in (2, 3)]
    ser = entropy_series(specs, [8, 64], cutoff=0.0)
    assert len(ser.values) == 2
    assert ser.extras["chi_converged"] == [True, True]
    assert set(ser.extras["by_chi"]) == {8, 64}


def test_fresh_series_takes_no_boundary():
    """A fresh series is grown without a boundary state: any boundary but
    the default raises.  With ``reuse_im`` the boundary is read: the two
    chi = 4 solves are not the same bits, yet, fitted at the cap, both
    reach the one IM to round-off."""
    pol = dict(J=1.0, g=0.25, h=0.4, t_max=0.6, eps=0.2, chi_max=4, cutoff=1e-12)
    with pytest.raises(ValueError, match="needs reuse_im"):
        autocorrelator_series(SPEC, chi_max=8, boundary="perfect_dephaser")
    with pytest.raises(ValueError, match="needs reuse_im"):
        quench_magnetization_series(**pol, boundary="perfect_dephaser")
    a = quench_magnetization_series(**pol, boundary="perfect_dephaser", reuse_im=True)
    b = quench_magnetization_series(**pol, reuse_im=True)
    assert 0.0 < np.max(np.abs(a.values - b.values)) < 1e-11


def test_im_sink_collects_converged_ims():
    sink = []
    autocorrelator_series(SPEC, chi_max=64, cutoff=0.0, im_sink=sink)
    assert len(sink) == SPEC.T  # one fresh IM per horizon length
    assert all(im.converged for im in sink)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["forward", "backward", "both"]))
def test_contract_random_plan_against_dense(t1, t2, branch):
    im = _im(SPEC, chi=64)
    plan = InsertionPlan((Insertion(t1, branch, SZ), Insertion(t2, "forward", SZ)))
    got = temporal_contract(im, floquet_kernel(SPEC), plan)
    want = oracles.dense_kernel_contract(im.psi.dense(), im.psi.dense(),
                                         SPEC, plan)
    assert np.isclose(got, want, atol=1e-10)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
PHASE_S = np.diag([1.0, 1j])
PROJ_UP = np.diag([1.0, 0.0])


# non-Hermitian pairs: swapping O and O^dag, or the two operators, shows
LIST_ORDER_SPECS = pytest.mark.parametrize(
    "spec", [SPEC, trotterize(0.8, 0.45, 0.3, 0.3, 0.1)], ids=["floquet", "trotter"])
LIST_ORDER_OPS = pytest.mark.parametrize("branch,ops", [
    ("forward", (HADAMARD, PHASE_S)), ("backward", (HADAMARD, PHASE_S)),
    ("both", (PROJ_UP, HADAMARD))])


def _check_list_order(spec, time, branch, ops):
    """Two insertions at ``time`` on one branch act in list order, as in the
    chain ED; the reversed order gives a different value.  Before time T a
    forward sigma^z at T reads the result out."""
    T = spec.T
    im = _im(spec, chi=64)

    def plan(first, second):
        readout = [Insertion(T, "forward", SZ)] if time < T else []
        return InsertionPlan([Insertion(0, "forward", SZ),
                              Insertion(time, branch, first),
                              Insertion(time, branch, second)] + readout)
    want = oracles.ed_chain_evolve(spec, 2 * T + 1, plan(*ops)).values[0]
    swapped = oracles.ed_chain_evolve(spec, 2 * T + 1, plan(*ops[::-1])).values[0]
    assert abs(want - swapped) > 1e-3
    got = temporal_contract(im, floquet_kernel(spec), plan(*ops))
    dense = oracles.dense_kernel_contract(im.psi.dense(), im.psi.dense(), spec,
                                          plan(*ops))
    assert abs(got - want) < 1e-10
    assert abs(dense - want) < 1e-10


@LIST_ORDER_SPECS
@LIST_ORDER_OPS
def test_insertions_at_final_time_compose_in_list_order(spec, branch, ops):
    _check_list_order(spec, spec.T, branch, ops)


@LIST_ORDER_SPECS
@LIST_ORDER_OPS
@pytest.mark.parametrize("time", [0, 1])
def test_insertions_before_final_time_compose_in_list_order(spec, branch, ops, time):
    _check_list_order(spec, time, branch, ops)
