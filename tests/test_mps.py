import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temporal_im.influence import _real_mps, _real_slice, boundary_mps
from temporal_im.models import ModelSpec
from temporal_im.mps import (TemporalMpo, TemporalMps, apply_mpo_fit,
                             apply_mpo_zipup, canonicalize, entropy_profile,
                             mps_norm, overlap, product_mps)
from temporal_im.tensor import NumericalInstabilityError, svd_truncate

from helpers import cut_spy, failing_svd, overlap_tensordot, zipup_tensordot

rng = np.random.default_rng(11)


def crand(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_mps(T, chi):
    tensors = []
    wl = 1
    for t in range(T):
        wr = 1 if t == T - 1 else chi
        tensors.append(crand(wl, 4, wr) / np.sqrt(4 * wl))
        wl = wr
    return TemporalMps(tensors)


def random_mpo(T, w):
    tensors = []
    wl = 1
    for t in range(T):
        wr = 1 if t == T - 1 else w
        tensors.append(crand(wl, 4, 4, wr) / (2.0 * wl))
        wl = wr
    return TemporalMpo(tensors)


def identity_mpo(T):
    return TemporalMpo([np.eye(4, dtype=complex).reshape(1, 4, 4, 1)] * T)


def test_product_mps_dense():
    a = np.array([1.0, 2.0, 0.0, -1.0])
    b = np.array([0.5, 0.0, 1.0, 0.0])
    psi = product_mps([a, b])
    assert np.allclose(psi.dense(), np.kron(a, b))


def test_norm_log_scales_dense():
    psi = random_mps(3, 5)
    psi2 = TemporalMps(psi.tensors, psi.norm_log + 1.5)
    assert np.allclose(psi2.dense(), np.exp(1.5) * psi.dense())


def test_canonicalize_preserves_vector_and_records_norm():
    psi = random_mps(5, 6)
    v = psi.dense()
    can = canonicalize(psi, 0)
    assert np.allclose(can.dense(), v, atol=1e-10 * np.linalg.norm(v))
    # center tensor is unit-norm: full weight lives in norm_log
    assert np.isclose(np.exp(can.norm_log), np.linalg.norm(v), rtol=1e-10)
    # right-isometry condition away from the center
    for t in range(1, 5):
        A = can.tensors[t]
        m = A.reshape(A.shape[0], -1)
        assert np.allclose(m @ m.conj().T, np.eye(A.shape[0]), atol=1e-10)


def test_overlap_matches_dense():
    a, b = random_mps(4, 3), random_mps(4, 5)
    want = np.vdot(a.dense(), b.dense())
    assert np.isclose(overlap(a, b), want, rtol=1e-10)


def test_mps_norm_matches_dense():
    a = random_mps(3, 4)
    assert np.isclose(mps_norm(a), np.linalg.norm(a.dense()), rtol=1e-10)


def test_entropy_profile_matches_direct_schmidt():
    psi = random_mps(4, 6)
    prof = entropy_profile(psi)
    v = psi.dense()
    for bond in range(1, 4):
        m = v.reshape(4 ** bond, -1)
        s = np.linalg.svd(m, compute_uv=False)
        p = s ** 2 / np.sum(s ** 2)
        p = p[p > 1e-14]
        want = float(-np.sum(p * np.log(p)))
        assert np.isclose(prof[bond - 1], want, atol=1e-8)


def test_identity_mpo_is_identity():
    psi = random_mps(3, 4)
    res = apply_mpo_zipup(identity_mpo(3), psi, chi_max=64, cutoff=0.0)
    assert np.allclose(res.psi.dense(), psi.dense(), atol=1e-10)
    assert res.discarded_weight < 1e-24


def test_zipup_matches_dense_application():
    psi = random_mps(4, 3)
    op = random_mpo(4, 3)
    res = apply_mpo_zipup(op, psi, chi_max=256, cutoff=0.0)
    want = op.dense() @ psi.dense()
    assert np.allclose(res.psi.dense(), want, atol=1e-9 * np.linalg.norm(want))


def test_zipup_stays_real_on_real_inputs():
    # the influence solve runs in a real basis; a complex zipper would
    # promote every SVD back to complex128
    psi, op = random_mps(5, 3), random_mpo(5, 3)
    psi = TemporalMps([t.real.copy() for t in psi.tensors])
    op.tensors = [t.real.copy() for t in op.tensors]
    res = apply_mpo_zipup(op, psi, chi_max=4, cutoff=1e-12)
    assert all(t.dtype == np.float64 for t in res.psi.tensors)
    exact = apply_mpo_zipup(op, psi, chi_max=256, cutoff=0.0)
    want = op.dense() @ psi.dense()
    assert exact.psi.tensors[0].dtype == np.float64
    assert np.allclose(exact.psi.dense(), want, atol=1e-12 * np.linalg.norm(want))


@pytest.mark.parametrize("chi_max, cutoff", [(5, 0.0), (10 ** 6, 1e-12)])
def test_zipup_entropies_match_entropy_profile(chi_max, cutoff):
    # capped: the left-to-right sweep truncates to chi_max at every bond;
    # uncapped: only the relative cutoff acts
    psi = random_mps(6, 4)
    res = apply_mpo_zipup(random_mpo(6, 3), psi, chi_max=chi_max, cutoff=cutoff)
    want = entropy_profile(res.psi)
    assert (res.psi.max_bond() == 5) == (chi_max == 5)
    assert len(res.entropies) == 5
    assert max(want) > 0.5
    assert np.max(np.abs(np.asarray(res.entropies) - want)) < 1e-12


def _real_part(x):
    if isinstance(x, TemporalMps):
        return TemporalMps([t.real.copy() for t in x.tensors], x.norm_log)
    return TemporalMpo([t.real.copy() for t in x.tensors])


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("case", ["shared", "capped", "fortran"])
def test_zipup_is_bitwise_the_tensordot_zipup(monkeypatch, case, real):
    # "shared": interior sites hold one tensor, as in a transfer slice;
    # "capped": chi_max truncates every bond of the left-to-right sweep,
    # whose cuts after the first come from the Gram matrix;
    # "fortran": operands in another memory layout than the kernel's
    T = 6
    psi, op = random_mps(T, 5), random_mpo(T, 3)
    psi.norm_log = 0.37
    if case == "shared":
        op.tensors = op.tensors[:1] + [op.tensors[1]] * (T - 2) + op.tensors[-1:]
    if case == "fortran":
        psi.tensors = [np.asfortranarray(t) for t in psi.tensors]
        op.tensors = [np.asfortranarray(t) for t in op.tensors]
    if real:
        psi, op = _real_part(psi), _real_part(op)
    chi_max, cutoff = (4, 0.0) if case == "capped" else (10 ** 6, 1e-12)
    gram_cuts = cut_spy(monkeypatch, "_gram_cut")
    sketches = cut_spy(monkeypatch, "_sketch_cut")
    got = apply_mpo_zipup(op, psi, chi_max, cutoff)
    kernel_cuts, kernel_sketches = list(gram_cuts), list(sketches)
    want = zipup_tensordot(op, psi, chi_max, cutoff)
    assert gram_cuts == 2 * kernel_cuts and sketches == 2 * kernel_sketches
    assert any(kernel_cuts) == (case == "capped")
    assert (got.psi.max_bond() == 4) == (case == "capped")
    assert len(got.psi.tensors) == len(want.psi.tensors) == T
    for a, b in zip(got.psi.tensors, want.psi.tensors):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.psi.norm_log == want.psi.norm_log
    assert got.discarded_weight == want.discarded_weight
    assert (got.discarded_weight > 0) == (case == "capped")
    assert got.entropies == want.entropies


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_overlap_is_bitwise_the_tensordot_overlap(real):
    a, b = random_mps(5, 4), random_mps(5, 6)
    a.norm_log, b.norm_log = 0.25, -1.5
    if real:
        a, b = _real_part(a), _real_part(b)
    for x, y in ((a, b), (b, a), (a, a)):
        assert overlap(x, y) == overlap_tensordot(x, y)


def _cap_bound_input(case):
    """(op, psi, chi): a chaotic real slice at T = 7 and its third zip-up
    iterate from the open boundary, at the chi = 6 cap; or a random complex
    MPO and a random state canonical at site 0."""
    if case == "slice":
        op = _real_slice(ModelSpec(J=0.8, g=0.7236, h=0.6472, T=7)).op
        psi = _real_mps(boundary_mps("open", 7))[0]
        for _ in range(3):
            psi = apply_mpo_zipup(op, psi, 6, 1e-12).psi
        return op, psi, 6
    return random_mpo(5, 3), canonicalize(random_mps(5, 4), 0), 4


@pytest.mark.parametrize("case", ["slice", "random"])
def test_fit_certifies_its_residual(case):
    """The fit's residual is its dense relative error |W psi - phi|^2 /
    |W psi|^2 to 1e-12 (cutoff 0: the right-to-left sweep drops sub-floor
    values only), its entropies are those of the returned state, no bond
    is wider than the input's, and the result is canonical at site 0."""
    op, psi, chi = _cap_bound_input(case)
    assert psi.max_bond() == chi and psi.canonical_center == 0
    f = apply_mpo_fit(op, psi, chi, cutoff=0.0)
    want = apply_mpo_zipup(op, psi, 10 ** 6).psi.dense()  # exact op|psi>
    err = np.linalg.norm(want - f.psi.dense()) ** 2 / np.linalg.norm(want) ** 2
    assert f.residual > 1e-6 and abs(f.residual - err) < 1e-12
    assert abs(f.discarded_weight - f.residual) < 1e-24
    assert np.max(np.abs(np.asarray(f.entropies) - entropy_profile(f.psi))) < 1e-12
    assert max(f.entropies) > 0.1 and f.route == "fit"
    assert all(a.shape[0] <= b.shape[0] for a, b in zip(f.psi.tensors, psi.tensors))
    assert f.psi.canonical_center == 0
    # the input must be canonical at site 0
    with pytest.raises(ValueError, match="canonical at site 0"):
        apply_mpo_fit(op, TemporalMps(psi.tensors, psi.norm_log), chi)


def test_zipup_single_site_has_no_bonds():
    res = apply_mpo_zipup(identity_mpo(1), random_mps(1, 1), chi_max=4)
    assert res.entropies == []


def test_zipup_truncation_reports_weight():
    psi = random_mps(5, 8)
    op = random_mpo(5, 4)
    res = apply_mpo_zipup(op, psi, chi_max=6, cutoff=0.0)
    assert res.psi.max_bond() <= 6
    assert res.discarded_weight > 0.0


def test_tiny_discarded_weight_is_exact_to_relative_precision():
    """A discarded weight near 1e-20 keeps its relative size: a 4x3 block
    with singular values 1, 1e-10 and 1e-11 (rows and signs shuffled, so
    its SVD is exact) cut to chi = 1 drops 1e-20 + 1e-22.  The golden
    files bound this column absolutely and cannot see it."""
    m = np.zeros((4, 3))
    m[2, 0], m[0, 1], m[3, 2] = 1.0, -1e-10, 1e-11
    want = math.fsum([1e-10 ** 2, 1e-11 ** 2])
    f = svd_truncate(m, chi_max=1)
    assert np.array_equal(f.s, [1.0])
    assert abs(f.discarded_weight - want) <= 1e-12 * want
    # one zip-up through the identity cuts the same block at its first bond
    psi = TemporalMps([m.reshape(1, 4, 3), np.ones((3, 4, 1))])
    op = TemporalMpo([np.eye(4).reshape(1, 4, 4, 1)] * 2)
    frac = want / (1.0 + want)  # relative to the block's whole weight
    res = apply_mpo_zipup(op, psi, chi_max=1)
    assert res.psi.max_bond() == 1
    assert abs(res.discarded_weight - frac) <= 1e-12 * frac


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6))
def test_overlap_self_is_norm_squared(T, chi):
    psi = random_mps(T, chi)
    got = overlap(psi, psi)
    assert abs(got.imag) < 1e-10 * abs(got)
    assert np.isclose(got.real, np.linalg.norm(psi.dense()) ** 2, rtol=1e-9)


def test_entropy_profile_retries_a_failing_svd(monkeypatch):
    """entropy_profile's SVDs go through the retry of ``tensor._svd``: one
    gesdd failure is retried to the same entropies, and a block on which
    every SVD fails raises ``NumericalInstabilityError``."""
    psi = random_mps(4, 3)
    want = entropy_profile(psi)
    seen = failing_svd(monkeypatch, failures=1)
    assert np.allclose(entropy_profile(psi), want, rtol=0, atol=1e-12)
    assert len(seen) == 3 + 1  # three bonds, one retry
    failing_svd(monkeypatch, failures=3)
    with pytest.raises(NumericalInstabilityError, match="did not converge"):
        entropy_profile(psi)
