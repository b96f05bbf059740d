import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from temporal_im.tensor import (DimensionError, FOLDED_BWD, FOLDED_FWD,
                                FOLDED_SIGMA, FOLDED_SIGMA_BAR, svd_truncate)

from helpers import blas_threads

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


def test_svd_truncate_zero_cutoff_keeps_exact_zeros():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    f = svd_truncate(m, chi_max=4, cutoff=0.0)
    assert len(f.s) == 4


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


def test_svd_fallback_to_gesvd(monkeypatch):
    """When gesdd fails, gesvd gives the same factors, on one BLAS thread."""
    m = crand(12, 7)
    want = np.linalg.svd(m, full_matrices=False)
    gesvd = scipy.linalg.svd
    counts = []

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def watched_gesvd(*args, **kwargs):
        counts.append(blas_threads())
        return gesvd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    monkeypatch.setattr(scipy.linalg, "svd", watched_gesvd)
    f = svd_truncate(m, chi_max=7)
    assert len(counts) == 1 and counts[0] and set(counts[0]) == {1}
    assert np.allclose(f.s, want[1], atol=1e-12)
    assert np.allclose(f.u * f.s @ f.vh, m, atol=1e-12)
    # singular vectors agree up to a phase per column
    phases = np.sum(want[0].conj() * f.u, axis=0)
    assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
    assert np.allclose(f.u, want[0] * phases, atol=1e-12)
    assert np.allclose(f.vh, want[2] * phases.conj()[:, None], atol=1e-12)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on ``src/``,
    with ``tests/`` importable too."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join((SRC, TESTS)))).stdout


_LAZY_PIN = """
import json
import numpy as np
from temporal_im import tensor
from helpers import blas_threads
before = blas_threads()
def failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")
real_svd = np.linalg.svd
np.linalg.svd = failing_svd
with tensor.one_blas_thread():
    tensor.svd_truncate(np.eye(3) + 0.5j, chi_max=3)
    inside = blas_threads()
np.linalg.svd = real_svd
print(json.dumps([before, inside, blas_threads()]))
"""


def test_scipy_loaded_inside_pin_runs_one_thread():
    """scipy's OpenBLAS, loaded by the fallback inside the pin, runs on one
    thread there and gets its default back when the pin is left."""
    out = _fresh_python(_LAZY_PIN)
    before, inside, after = json.loads(out)
    if not before:
        pytest.skip("no OpenBLAS thread control found")
    assert len(inside) == len(before) + 1  # scipy's own OpenBLAS joined
    assert set(inside) == {1}
    # numpy's count is restored, scipy's is back at its default, the same
    assert sorted(after) == sorted(before + before[:1])


def test_cli_import_leaves_scipy_unloaded():
    """``temporal-im run`` does not pay for importing scipy."""
    out = _fresh_python("import sys, temporal_im.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"
