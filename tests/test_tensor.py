import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from temporal_im import tensor
from temporal_im.tensor import (DimensionError, FOLDED_BWD, FOLDED_FWD,
                                FOLDED_SIGMA, FOLDED_SIGMA_BAR,
                                NumericalInstabilityError, SweepHint,
                                one_blas_thread, svd_truncate)

from helpers import cut_spy, failing_svd

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

rng = np.random.default_rng(7)


def crand(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_folded_tables_consistent():
    # sigma value is +1 exactly when the basis index is 0
    assert np.all(FOLDED_SIGMA == 1.0 - 2.0 * FOLDED_FWD)
    assert np.all(FOLDED_SIGMA_BAR == 1.0 - 2.0 * FOLDED_BWD)
    # all four (fwd, bwd) pairs enumerated once
    assert sorted(zip(FOLDED_FWD, FOLDED_BWD)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_svd_truncate_exact_when_unconstrained():
    m = crand(6, 9)
    f = svd_truncate(m, chi_max=6)
    assert np.allclose(f.u * f.s @ f.vh, m, atol=1e-12)
    assert f.discarded_weight == 0.0


def test_svd_truncate_rejects_non_matrix():
    with pytest.raises(DimensionError):
        svd_truncate(crand(2, 3, 4), chi_max=4)


def test_svd_truncate_chi_cap():
    m = crand(8, 8)
    f = svd_truncate(m, chi_max=3)
    assert f.s.shape == (3,)
    full = np.linalg.svd(m, compute_uv=False)
    assert np.isclose(f.discarded_weight, np.sum(full[3:] ** 2), rtol=1e-10)


def test_svd_truncate_cutoff_is_relative():
    u = np.linalg.qr(crand(5, 5))[0]
    v = np.linalg.qr(crand(5, 5))[0]
    s = np.array([2.0, 1.0, 1e-3, 1e-9, 1e-12])
    m = (u * s) @ v
    f = svd_truncate(m, chi_max=5, cutoff=1e-6)
    assert len(f.s) == 3


def test_svd_truncate_keeps_degenerate_multiplet_whole():
    # two exactly equal values straddling the cap would make the kept basis
    # backend-dependent; the cutoff path must keep or drop them together
    s = np.array([1.0, 0.5, 0.5, 0.5, 1e-16])
    u = np.linalg.qr(crand(5, 5))[0]
    v = np.linalg.qr(crand(5, 5))[0]
    f = svd_truncate((u * s) @ v, chi_max=5, cutoff=0.9)
    assert len(f.s) == 1 or len(f.s) == 4
    # a pair equal to 1e-13 straddling the cutoff is kept whole: gesdd's
    # value below the cutoff joins the one above it
    s = np.array([1.0, 0.5, 0.5 * (1.0 - 1e-13), 1e-3, 1e-16])
    f = svd_truncate((u * s) @ v, chi_max=5, cutoff=0.5 * (1.0 - 0.5e-13))
    assert len(f.s) == 3 and f.s[2] < 0.5 * (1.0 - 0.5e-13) * f.s[0]
    assert np.isclose(f.discarded_weight, 1e-6, rtol=1e-9, atol=0.0)


def _planted(shape, dtype, s):
    """A block of ``shape`` with singular values ``s`` (largest first)."""
    u, v = (crand(n, len(s)) for n in shape)
    if dtype is not complex:
        u, v = u.real, v.real
    return (np.linalg.qr(u)[0] * s) @ np.linalg.qr(v)[0].conj().T


def _cutoff_rule(m, chi_max, cutoff):
    """``svd_truncate`` as it was before the round-off floor: cutoff 0 kept
    every value up to ``chi_max``."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = len(s)
    if cutoff > 0.0 and keep > 0 and s[0] > 0.0:
        keep = int(np.sum(s >= cutoff * s[0]))
        keep = max(keep, 1)
        while 0 < keep < len(s) and s[keep] >= s[keep - 1] * (1.0 - 1e-12):
            keep += 1
    keep = min(keep, chi_max)
    if keep == len(s):
        return u, s, vh, 0.0
    return (np.ascontiguousarray(u[:, :keep]), s[:keep].copy(),
            np.ascontiguousarray(vh[:keep]), float(np.sum(s[keep:] ** 2)))


def test_svd_truncate_zero_cutoff_drops_round_off():
    """Cutoff 0 keeps values at 10x the floor max(M, N) eps s_0 and drops,
    and counts, those at 0.1x; an exactly rank-1 block keeps one value; any
    cutoff at or above the floor gives the cutoff-only rule bit for bit."""
    for shape in ((24, 7), (7, 24)):
        for dtype in (complex, np.float64):
            floor = max(shape) * np.finfo(np.float64).eps
            m = _planted(shape, dtype, [1.0, 0.7, 0.1, 12 * floor, 10 * floor,
                                        0.1 * floor, 0.08 * floor])
            f = svd_truncate(m, chi_max=7, cutoff=0.0)
            full = np.linalg.svd(m, full_matrices=False)[1]
            assert len(f.s) == 5 and np.array_equal(f.s, full[:5])
            assert f.discarded_weight == float(np.sum(full[5:] ** 2)) > 0.0
            assert f.discarded_weight <= 2 * (floor * full[0]) ** 2
            assert np.allclose(f.u * f.s @ f.vh, m, rtol=0, atol=1e-13)
            for cutoff in (floor, 1e-12, 1e-6, 0.3):
                for chi in (7, 2):
                    got = svd_truncate(m, chi_max=chi, cutoff=cutoff)
                    want = _cutoff_rule(m, chi, cutoff)
                    for x, y in zip(got[:3], want[:3]):
                        assert x.dtype == y.dtype and np.array_equal(x, y)
                    assert got.discarded_weight == want[3]
            one = np.zeros((4, 4), dtype=dtype)
            one[0, 0] = 1.0
            f = svd_truncate(one, chi_max=4, cutoff=0.0)
            assert len(f.s) == 1 and f.discarded_weight == 0.0


def _same_factors(got, want):
    for x, y in zip(got[:3], want[:3]):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert got.discarded_weight == want.discarded_weight


@pytest.mark.parametrize("dtype", [np.float64, complex], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(40, 24), (24, 40), (32, 32)],
                         ids=["tall", "wide", "square"])
def test_gram_cut_matches_gesdd(monkeypatch, shape, dtype):
    """Where the cap decides a resolved cut, the Gram cut keeps gesdd's
    values to 1e-12 relative, the same kept subspace, the same truncated
    block and the same discarded weight, with isometric factors.  A tall
    complex block is cut through its plain transpose."""
    m = _planted(shape, dtype, np.geomspace(1.0, 1e-2, min(shape)))
    calls = cut_spy(monkeypatch, "_gram_cut")
    g = svd_truncate(m, chi_max=10, cutoff=1e-12, hint=SweepHint(1.0))
    d = svd_truncate(m, chi_max=10, cutoff=1e-12)
    assert calls == [True]
    assert g.u.dtype == g.vh.dtype == m.dtype and g.u.flags.c_contiguous
    assert g.u.shape == d.u.shape and g.vh.shape == d.vh.shape
    assert np.allclose(g.s, d.s, rtol=1e-12, atol=0)
    proj = lambda f: f.u @ f.u.conj().T
    assert np.allclose(proj(g), proj(d), rtol=0, atol=1e-12)
    assert np.allclose(g.u * g.s @ g.vh, d.u * d.s @ d.vh, rtol=0, atol=1e-12)
    assert np.isclose(g.discarded_weight, d.discarded_weight, rtol=1e-12, atol=0)
    assert np.allclose(g.u.conj().T @ g.u, np.eye(10), rtol=0, atol=1e-12)
    assert np.allclose(g.vh @ g.vh.conj().T, np.eye(10), rtol=0, atol=1e-12)


def test_gram_cut_falls_back_to_gesdd(monkeypatch):
    """The Gram cut gives way, and gesdd's factors come back bit for bit,
    where the block has no more values than the cap, where the first
    dropped value is below tau s_0, where a cutoff above tau would keep
    fewer values than the cap, where the last kept and the first dropped
    value are too close for the kept block to be resolved, and where eigh
    fails."""
    tau = tensor._GRAM_TAU
    calls = cut_spy(monkeypatch, "_gram_cut")
    s = [1.0, 0.5, 0.2, 5e-3, 4e-3, 3e-3, 2e-3, 1.5e-3]  # s_4 = 4 tau
    m = _planted((16, 8), complex, s)
    cases = [
        (m, 8, 0.0),  # min(M, N) <= chi_max
        (_planted((8, 16), complex, s[:4] + [5e-4, 4e-4]), 4, 0.0),  # s_4 < tau s_0
        (m, 4, 1e-2),  # the cutoff (1e-2 > tau > s_3) keeps 3 values
        # the unresolved tail of the tiny-discarded-weight zip-up test
        (np.array([[0, -1e-10, 0], [0, 0, 0], [1, 0, 0], [0, 0, 1e-11]]), 1, 0.0),
        # s_3 and s_4 1e-4 apart (r = 1e6), then degenerate, across the cap
        (_planted((16, 8), complex, s[:4] + [s[3] * (1 - 1e-4)] + s[5:]), 4, 0.0),
        (_planted((8, 16), np.float64, s[:4] + s[3:7]), 4, 0.0),
    ]
    for block, chi, cutoff in cases:
        got = svd_truncate(block, chi_max=chi, cutoff=cutoff, hint=SweepHint(1.0))
        _same_factors(got, svd_truncate(block, chi_max=chi, cutoff=cutoff))
    assert calls == [False] * len(cases)
    assert len(svd_truncate(m, chi_max=4, cutoff=1e-2).s) == 3
    # the same block at a cutoff below s_3 is cut by the cap, from G
    assert len(svd_truncate(m, chi_max=4, cutoff=4e-3, hint=SweepHint(1.0)).s) == 4
    assert calls[-1] and s[3] > 4e-3 > tau

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    got = svd_truncate(m, chi_max=4, hint=SweepHint(1.0))
    _same_factors(got, svd_truncate(m, chi_max=4))
    assert calls[-1] is False


def _qr_spy(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.qr`` call."""
    real_qr, qrs = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: qrs.append(a.shape)
                        or real_qr(a, *args))
    return qrs


@pytest.mark.parametrize("shape", [(12, 9), (9, 12)], ids=["tall", "wide"])
def test_gram_cut_of_nan_block_raises(monkeypatch, shape):
    """A NaN block fails the screen: the Gram cut is never asked, eigh and
    the QR retry never run, and the retry's per-entry check rejects it."""
    calls = cut_spy(monkeypatch, "_gram_cut")
    real_eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda g: eighs.append(g.shape) or real_eigh(g))
    qrs = _qr_spy(monkeypatch)
    m = crand(*shape)
    m[3, 4] = np.nan
    with pytest.raises(NumericalInstabilityError, match="non-finite"):
        svd_truncate(m, chi_max=4, hint=SweepHint(1.0))
    assert calls == [] and eighs == [] and qrs == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(30, 20), (20, 30)]),
       st.integers(1, 12), st.sampled_from([0.0, 1e-12, 1e-3, 2e-3, 1e-2, 0.1]))
@example(275, (30, 20), 4, 0.0)  # s_3 and s_4 1.6e-6 apart: r = 1.2e6
def test_gram_cut_keeps_what_gesdd_keeps(seed, shape, chi, cutoff):
    """Over spectra that straddle tau and the cutoffs, the Gram path keeps
    exactly as many values as gesdd's rule, and the same block to 1e-12.
    The block is drawn from ``seed`` alone, so a failing example replays."""
    r = np.random.default_rng(seed)
    s = np.sort(10.0 ** r.uniform(-4.5, 0, size=min(shape)))[::-1]
    u, v = (np.linalg.qr(r.standard_normal((n, len(s))))[0] for n in shape)
    m = (u * (s / s[0])) @ v.T
    g = svd_truncate(m, chi_max=chi, cutoff=cutoff, hint=SweepHint(1.0))
    d = svd_truncate(m, chi_max=chi, cutoff=cutoff)
    assert len(g.s) == len(d.s)
    assert np.allclose(g.u * g.s @ g.vh, d.u * d.s @ d.vh, rtol=0, atol=1e-12)
    assert np.isclose(g.discarded_weight, d.discarded_weight, rtol=1e-9, atol=1e-15)


# spectra of 40 values for the sketched cut at chi = 8 (l = 20), s_0 = 1,
# planted in blocks 50 wide, the least it is asked for: spectrum, cutoff,
# and whether the certificate holds
_STEEP = 10.0 ** (-0.9 * np.arange(40))  # s_chi ~ 6e-8 s_0, as on the quench
_SKETCHED = {
    "steep": (_STEEP, 0.0, True),
    "flat": (np.geomspace(1.0, 1e-2, 40), 0.0, False),  # as on floquet
    # a flat tail past a steep head: the kept part is sampled exactly, but
    # the residual exceeds eta s_chi
    "flat-after-gap": (np.concatenate([_STEEP[:8], np.full(32, 1e-10)]), 0.0, False),
    "degenerate": (np.concatenate([_STEEP[:7], [_STEEP[7]] * 2, _STEEP[9:]]), 0.0, True),
    "rank-below-l": (np.concatenate([np.geomspace(1.0, 1e-3, 16), np.zeros(24)]),
                     0.0, True),
    "rank-below-chi": (np.concatenate([np.geomspace(1.0, 1e-3, 5), np.zeros(35)]),
                       0.0, False),
    # the cutoff, not the cap, decides the kept count (5 values)
    "cutoff-decides": (_STEEP, 1e-4, False),
}


@pytest.mark.parametrize("dtype", [np.float64, complex], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(60, 50), (50, 60)], ids=["tall", "wide"])
@pytest.mark.parametrize("block", sorted(_SKETCHED))
def test_sketch_cut_meets_its_certificate_or_gives_way(monkeypatch, block,
                                                       shape, dtype):
    """A steep-tail hint asks for the sketched cut.  Where it gives way the
    factors are gesdd's bit for bit; where it takes the cut it keeps
    exactly chi values, its discarded weight is its squared error to
    round-off, and that error is at most sqrt(1 + eta^2) times gesdd's."""
    chi, eta = 8, tensor._SKETCH_ETA
    spectrum, cutoff, certified = _SKETCHED[block]
    m = _planted(shape, dtype, spectrum)
    calls = cut_spy(monkeypatch, "_sketch_cut")
    f = svd_truncate(m, chi_max=chi, cutoff=cutoff, hint=SweepHint(1e-8))
    d = svd_truncate(m, chi_max=chi, cutoff=cutoff)
    assert calls == [certified]
    if not certified:
        _same_factors(f, d)
        return
    assert len(f.s) == len(d.s) == chi
    assert f.u.dtype == f.vh.dtype == m.dtype and f.u.flags.c_contiguous
    assert np.allclose(f.u.conj().T @ f.u, np.eye(chi), rtol=0, atol=1e-12)
    assert np.allclose(f.vh @ f.vh.conj().T, np.eye(chi), rtol=0, atol=1e-12)
    err2 = np.linalg.norm(m - f.u * f.s @ f.vh) ** 2
    slack = 100 * np.finfo(float).eps  # round-off of the error itself
    assert abs(err2 - f.discarded_weight) <= 2 * slack * np.sqrt(err2) + slack ** 2
    assert np.sqrt(err2) <= np.sqrt(1 + eta ** 2) * np.sqrt(d.discarded_weight) + slack


def test_sweep_hint_routes(monkeypatch):
    """A hint asks for the Gram cut at a tail of at least tau, for the
    sketched cut below tau^2 on a block at least 2.5 l wide, and for nothing
    in between.  A sketch that gives way stops the sweep's sketches; every
    cut leaves its own tail in the hint."""
    gram = cut_spy(monkeypatch, "_gram_cut")
    sketch = cut_spy(monkeypatch, "_sketch_cut")
    steep = _planted((60, 50), np.float64, _STEEP)
    flat = _planted((60, 50), np.float64, np.geomspace(1.0, 1e-2, 40))
    for tail in (1e-3, 1e-4, 1e-6):
        svd_truncate(steep, chi_max=8, hint=SweepHint(tail))
    assert gram == [False] and sketch == []
    svd_truncate(steep[:, :49], chi_max=8, hint=SweepHint(1e-8))
    assert sketch == []

    hint = SweepHint(1e-8)
    f = svd_truncate(steep, chi_max=8, hint=hint)
    assert hint.sketch and hint.tail == f.s[-1] / f.s[0] < 1e-6
    svd_truncate(flat, chi_max=8, hint=hint)
    assert sketch == [True, False] and not hint.sketch
    hint.tail = 1e-8
    svd_truncate(steep, chi_max=8, hint=hint)
    assert sketch == [True, False]
    svd_truncate(steep, chi_max=8, hint=SweepHint(1e-8))
    assert sketch == [True, False, True]
    svd_truncate(steep, chi_max=40, hint=hint)  # the cutoff decides: no tail
    assert hint.tail is None


def _splitmix64_sign(k: int) -> float:
    """-1 where the top bit of splitmix64's k-th output (seed 0) is set."""
    mask = 2 ** 64 - 1
    z = ((k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return -1.0 if z >> 63 else 1.0


def test_sketch_matrix_is_a_function_of_its_shape_alone():
    """The test matrix is splitmix64's sign bits in row-major order, read
    only, and the same whatever was built before it."""
    tensor._sketch_matrix.cache_clear()
    first = tensor._sketch_matrix(40, 24).tobytes()
    tensor._sketch_matrix.cache_clear()
    for shape in ((24, 40), (7, 3), (40, 25)):
        tensor._sketch_matrix(*shape)
    omega = tensor._sketch_matrix(40, 24)
    assert omega.tobytes() == first
    assert omega.dtype == np.float64 and not omega.flags.writeable
    assert omega.ravel().tolist() == [_splitmix64_sign(k) for k in range(40 * 24)]
    assert abs(omega.sum()) < 0.1 * omega.size


def test_sketch_cut_is_the_same_on_two_threads():
    """Two threads cutting one block at once get the bytes of a serial cut."""
    m = _planted((60, 50), np.float64, _STEEP)
    tensor._sketch_matrix.cache_clear()
    start, got = threading.Barrier(2), [None, None]

    def cut(i):
        start.wait()
        got[i] = svd_truncate(m, chi_max=8, hint=SweepHint(1e-8))

    threads = [threading.Thread(target=cut, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    want = svd_truncate(m, chi_max=8, hint=SweepHint(1e-8))
    for f in got:
        assert len(f.s) == 8
        assert [x.tobytes() for x in f[:3]] == [x.tobytes() for x in want[:3]]
        assert f.discarded_weight == want.discarded_weight


@pytest.mark.parametrize("dtype", [np.float64, complex], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(12, 9), (9, 12), (5, 4), (60, 50)],
                         ids=["12x9", "9x12", "5x4", "60x50"])
def test_block_with_an_infinity_raises(monkeypatch, shape, dtype):
    """gesdd returns NaN values for a block holding an infinity without
    raising (or never returns, on some blocks).  Such a block, or one
    holding a NaN, fails the screen whatever the hint: no route is asked
    (the 60 x 50 block is wide enough to sketch), neither gesdd nor the QR
    retry runs, and the retry's per-entry check rejects it."""
    gram = cut_spy(monkeypatch, "_gram_cut")
    sketch = cut_spy(monkeypatch, "_sketch_cut")
    qrs = _qr_spy(monkeypatch)
    seen = failing_svd(monkeypatch, failures=0)
    for bad in (np.inf, np.nan):
        for hint in (None, SweepHint(1.0), SweepHint(1e-8)):
            m = crand(*shape)
            m = m if dtype is complex else m.real.copy()
            m[3, 2] = bad
            with pytest.raises(NumericalInstabilityError, match="non-finite"):
                svd_truncate(m, chi_max=2, hint=hint)
    assert gram == [] and sketch == [] and qrs == [] and seen == []


@pytest.mark.parametrize("shape", [(12, 9), (60, 50)], ids=["12x9", "60x50"])
def test_block_whose_squared_norm_overflows_factors(monkeypatch, shape):
    """A finite block scaled by 1e200 fails the screen, since its squared
    norm overflows, and is factored through the QR retry.  Cut at
    min(M, N), it keeps every value, equal to the unscaled block's times
    1e200, without a floating-point warning."""
    m = crand(*shape)
    want = svd_truncate(m, chi_max=min(shape)).s * 1e200
    gram = cut_spy(monkeypatch, "_gram_cut")
    qrs = _qr_spy(monkeypatch)
    big = m * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hint in (None, SweepHint(1.0), SweepHint(1e-8)):
            f = svd_truncate(big, chi_max=min(shape), hint=hint)
            assert len(f.s) == min(shape)
            assert np.allclose(f.s, want, rtol=1e-12, atol=0)
    assert gram == [] and len(qrs) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(2, 7), st.integers(1, 7),
       st.floats(0.0, 0.3))
def test_svd_truncate_weight_accounting(n, m, chi, cutoff):
    a = crand(n, m)
    f = svd_truncate(a, chi_max=chi, cutoff=cutoff)
    approx = f.u * f.s @ f.vh
    # dropped weight equals the squared Frobenius error of the rank-k approx
    err = np.linalg.norm(a - approx) ** 2
    assert np.isclose(err, f.discarded_weight, rtol=1e-8, atol=1e-12)
    assert len(f.s) <= chi


@pytest.mark.parametrize("failures", [1, 2])
@pytest.mark.parametrize("dtype", [complex, np.float64])
@pytest.mark.parametrize("shape", [(12, 7), (7, 12)], ids=["tall", "wide"])
def test_svd_retry_rebuilds_the_block(monkeypatch, shape, dtype, failures):
    """When gesdd fails on the block, then on R, the retry still gives an
    exact SVD, on one BLAS thread."""
    m = crand(*shape)
    m = m if dtype is complex else m.real.copy()
    want = np.linalg.svd(m, compute_uv=False)
    seen = failing_svd(monkeypatch, failures)
    with one_blas_thread():
        f = svd_truncate(m, chi_max=12)
    assert len(seen) == failures + 1
    assert all(counts and set(counts) == {1} for counts in seen)
    assert f.u.dtype == f.vh.dtype == m.dtype
    assert np.allclose(f.s, want, rtol=0, atol=1e-12)
    assert np.allclose(f.u * f.s @ f.vh, m, rtol=0, atol=1e-12)
    assert np.allclose(f.u.conj().T @ f.u, np.eye(len(f.s)), atol=1e-12)
    assert np.allclose(f.vh @ f.vh.conj().T, np.eye(len(f.s)), atol=1e-12)


@pytest.mark.parametrize("shape", [(12, 7), (7, 12)], ids=["tall", "wide"])
def test_svd_truncate_raises_when_every_svd_fails(monkeypatch, shape):
    seen = failing_svd(monkeypatch, failures=3)
    with pytest.raises(NumericalInstabilityError, match="did not converge"):
        svd_truncate(crand(*shape), chi_max=4)
    assert len(seen) == 3


def test_svd_of_non_finite_block_raises_at_once(monkeypatch):
    """A NaN never reaches gesdd: the retry rejects the block without an
    SVD."""
    m = crand(5, 4)
    m[2, 1] = np.nan
    seen = failing_svd(monkeypatch, failures=1)
    with pytest.raises(NumericalInstabilityError, match="non-finite"):
        svd_truncate(m, chi_max=4)
    assert seen == []


def test_non_finite_values_from_gesdd_go_to_the_retry(monkeypatch):
    """A finite block on which gesdd returns non-finite values is factored
    again by the retry."""
    m = crand(7, 5)
    real_svd, calls = np.linalg.svd, []

    def svd(a, **kwargs):
        calls.append(a.shape)
        u, s, vh = real_svd(a, **kwargs)
        return (u, np.full_like(s, np.nan), vh) if len(calls) == 1 else (u, s, vh)

    monkeypatch.setattr(np.linalg, "svd", svd)
    f = svd_truncate(m, chi_max=5)
    assert calls == [(7, 5), (5, 5)]  # the block, then its QR factor R
    assert np.allclose(f.u * f.s @ f.vh, m, rtol=0, atol=1e-12)


def test_non_finite_values_from_every_gesdd_call_raise(monkeypatch):
    """Where gesdd returns non-finite values on the block, on R and on R's
    transpose, the cut raises instead of returning NaN factors."""
    m = crand(7, 5)
    real_svd, calls = np.linalg.svd, []

    def svd(a, **kwargs):
        calls.append(a.shape)
        u, s, vh = real_svd(a, **kwargs)
        return u, np.full_like(s, np.nan), vh

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(NumericalInstabilityError):
        svd_truncate(m, chi_max=5)
    assert calls == [(7, 5), (5, 5), (5, 5)]


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on ``src/``,
    with ``tests/`` importable too."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join((SRC, TESTS)))).stdout


_NUMPY_ONLY = """
import os, sys, tempfile
import temporal_im
from temporal_im import cli
for name in temporal_im.__all__:
    getattr(temporal_im, name)
with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "tiny.cfg")
    with open(cfg, "w") as f:
        f.write("experiment = floquet-czz\\nJ = 0.8\\ng = 0.7\\nh = 0.6\\n"
                "T_max = 2\\nchi = 4\\n")
    assert cli.main(["run", cfg, "--out", os.path.join(tmp, "out")]) == 0
assert cli.main(["oracle-check"]) == 0
print("scipy" in sys.modules)
"""


def test_cli_import_leaves_scipy_unloaded():
    """The package, a ``temporal-im run`` and ``oracle-check`` need numpy
    only."""
    out = _fresh_python(_NUMPY_ONLY)
    assert out.splitlines()[-1] == "False"
