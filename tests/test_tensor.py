import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temporal_im import tensor
from temporal_im.tensor import (DimensionError, FOLDED_BWD, FOLDED_FWD,
                                FOLDED_SIGMA, FOLDED_SIGMA_BAR,
                                NumericalInstabilityError, one_blas_thread,
                                svd_truncate)

from helpers import failing_svd, gram_cut_spy

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
    calls = gram_cut_spy(monkeypatch)
    g = svd_truncate(m, chi_max=10, cutoff=1e-12, gram=True)
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
    fewer values than the cap, and where eigh fails."""
    tau = tensor._GRAM_TAU
    calls = gram_cut_spy(monkeypatch)
    s = [1.0, 0.5, 0.2, 5e-3, 4e-3, 3e-3, 2e-3, 1.5e-3]  # s_4 = 4 tau
    m = _planted((16, 8), complex, s)
    cases = [
        (m, 8, 0.0),  # min(M, N) <= chi_max
        (_planted((8, 16), complex, s[:4] + [5e-4, 4e-4]), 4, 0.0),  # s_4 < tau s_0
        (m, 4, 1e-2),  # the cutoff (1e-2 > tau > s_3) keeps 3 values
        # the unresolved tail of the tiny-discarded-weight zip-up test
        (np.array([[0, -1e-10, 0], [0, 0, 0], [1, 0, 0], [0, 0, 1e-11]]), 1, 0.0),
    ]
    for block, chi, cutoff in cases:
        got = svd_truncate(block, chi_max=chi, cutoff=cutoff, gram=True)
        _same_factors(got, svd_truncate(block, chi_max=chi, cutoff=cutoff))
    assert calls == [False] * len(cases)
    assert len(svd_truncate(m, chi_max=4, cutoff=1e-2).s) == 3
    # the same block at a cutoff below s_3 is cut by the cap, from G
    assert len(svd_truncate(m, chi_max=4, cutoff=4e-3, gram=True).s) == 4
    assert calls[-1] and s[3] > 4e-3 > tau

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    got = svd_truncate(m, chi_max=4, gram=True)
    _same_factors(got, svd_truncate(m, chi_max=4))
    assert calls[-1] is False


@pytest.mark.parametrize("shape", [(12, 9), (9, 12)], ids=["tall", "wide"])
def test_gram_cut_of_nan_block_raises(monkeypatch, shape):
    """A NaN block never reaches eigh; gesdd takes it and rejects it."""
    calls = gram_cut_spy(monkeypatch)
    real_eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda g: eighs.append(g.shape) or real_eigh(g))
    m = crand(*shape)
    m[3, 4] = np.nan
    with pytest.raises(NumericalInstabilityError, match="non-finite"):
        svd_truncate(m, chi_max=4, gram=True)
    assert calls == [False] and eighs == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(30, 20), (20, 30)]),
       st.integers(1, 12), st.sampled_from([0.0, 1e-12, 1e-3, 2e-3, 1e-2, 0.1]))
def test_gram_cut_keeps_what_gesdd_keeps(seed, shape, chi, cutoff):
    """Over spectra that straddle tau and the cutoffs, the Gram path keeps
    exactly as many values as gesdd's rule, and the same block to 1e-12."""
    r = np.random.default_rng(seed)
    s = np.sort(10.0 ** r.uniform(-4.5, 0, size=min(shape)))[::-1]
    m = _planted(shape, np.float64, s / s[0])
    g = svd_truncate(m, chi_max=chi, cutoff=cutoff, gram=True)
    d = svd_truncate(m, chi_max=chi, cutoff=cutoff)
    assert len(g.s) == len(d.s)
    assert np.allclose(g.u * g.s @ g.vh, d.u * d.s @ d.vh, rtol=0, atol=1e-12)
    assert np.isclose(g.discarded_weight, d.discarded_weight, rtol=1e-9, atol=1e-15)


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
    """A NaN makes gesdd fail; the retry rejects the block without a second
    SVD."""
    m = crand(5, 4)
    m[2, 1] = np.nan
    seen = failing_svd(monkeypatch, failures=1)
    with pytest.raises(NumericalInstabilityError, match="non-finite"):
        svd_truncate(m, chi_max=4)
    assert len(seen) == 1


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
