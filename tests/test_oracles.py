"""Reference implementations are tested against each other and against a
handful of frozen values, so regressions in the checks themselves are
caught before they get a chance to vouch for the engine.
"""
import math

import numpy as np
import pytest

from temporal_im.models import ModelSpec, trotterize
from temporal_im import oracles
from temporal_im.oracles import (ResourceLimitError, binary_entropy,
                                 binary_entropy_formula, circuit_unitary_dense,
                                 dense_kernel_contract, dense_transfer_slice,
                                 dicke_entropy, ed_chain_evolve,
                                 ed_disorder_monte_carlo, g0_schmidt_entropy,
                                 g0_schmidt_probability, hamiltonian_dense,
                                 hamiltonian_propagator, im_g0,
                                 isolated_spin_autocorrelator)

# C_zz(T) of the kicked chain at J=0.8, g=0.7236, h=0.6472, frozen from a
# 2T+1-site brute-force run
CZZ_CHAOTIC = (0.1232818897, 0.0149692908, 0.0155016819)

# same at J=0.31, g=0.57, h=0.23
CZZ_GENERIC = (0.4175945040, -0.3156531543, -0.2776662982)


def test_chain_ed_frozen_values():
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=3)
    ser = ed_chain_evolve(spec, 7)
    assert np.allclose(ser.values[1:], CZZ_CHAOTIC, atol=1e-10)
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=3)
    ser = ed_chain_evolve(spec, 7)
    assert np.allclose(ser.values[1:], CZZ_GENERIC, atol=1e-10)


def test_chain_ed_value_is_size_converged():
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=2)
    v5 = ed_chain_evolve(spec, 5).values
    v9 = ed_chain_evolve(spec, 9).values
    # 2T+1 sites already exact: growing the chain changes nothing
    assert np.allclose(v5, v9, atol=1e-12)


def test_chain_ed_guards():
    spec = ModelSpec(J=0.5, g=0.5, h=0.5, T=2)
    with pytest.raises(ResourceLimitError):
        ed_chain_evolve(spec, 15)
    with pytest.raises(ValueError):
        ed_chain_evolve(spec, 6)  # needs an odd chain with a central site


def test_g0_conserves_z():
    spec = ModelSpec(J=0.9, g=0.0, h=0.41, T=4)
    ser = ed_chain_evolve(spec, 9)
    assert np.allclose(ser.values, 1.0, atol=1e-12)


def test_dense_slice_explicit_bond_coupling_matches_default():
    spec = ModelSpec(J=0.44, g=0.9, h=0.27, T=3)
    a = dense_transfer_slice(spec)
    b = dense_transfer_slice(spec, bond_coupling=spec.J_eff)
    assert np.array_equal(a, b)
    # scaling the bond changes the slice
    c = dense_transfer_slice(spec, bond_coupling=0.5 * spec.J_eff)
    assert np.max(np.abs(a - c)) > 1e-3


def test_dense_slice_resource_guard():
    with pytest.raises(ResourceLimitError):
        dense_transfer_slice(ModelSpec(J=0.1, g=0.1, h=0.1, T=7))


def test_dense_fixed_point_is_idempotent():
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=3)
    im = oracles.dense_transfer_fixed_point(spec)
    sl = dense_transfer_slice(spec)
    assert np.allclose(sl @ im.amplitudes, im.amplitudes, atol=1e-10)


def test_dense_kernel_contract_trace_one():
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=3)
    im = oracles.dense_transfer_fixed_point(spec).amplitudes
    val = dense_kernel_contract(im, im, spec)
    assert np.isclose(val, 1.0, atol=1e-10)


def test_disorder_quadrature_agrees_with_charge_sum():
    spec = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=3,
                     disorder="uniform_J_0_2pi")
    a = oracles.dense_disorder_slice(spec)
    b = oracles.quadrature_disorder_slice(spec, 96)
    assert np.max(np.abs(a - b)) < 1e-12


def test_monte_carlo_disorder_reproducible_and_consistent():
    spec = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=3,
                     disorder="uniform_J_0_2pi")
    a = ed_disorder_monte_carlo(spec, 7, samples=200, seed=3)
    b = ed_disorder_monte_carlo(spec, 7, samples=200, seed=3)
    assert np.array_equal(a.values, b.values)
    c = ed_disorder_monte_carlo(spec, 7, samples=200, seed=4)
    assert not np.array_equal(a.values, c.values)
    # stderr shrinks roughly like 1/sqrt(N)
    d = ed_disorder_monte_carlo(spec, 7, samples=800, seed=3)
    assert d.extras["sem"][-1] < a.extras["sem"][-1]


def test_disordered_ed_requires_explicit_couplings():
    spec = ModelSpec(J=1.0, g=1.0, h=0.3, T=2, disorder="uniform_J_0_2pi")
    with pytest.raises(ValueError):
        ed_chain_evolve(spec, 5)


def test_isolated_spin_series_is_unit_at_zero_kick():
    spec = ModelSpec(J=0.5, g=0.0, h=0.77, T=5)
    assert np.allclose(isolated_spin_autocorrelator(spec), 1.0, atol=1e-14)


@pytest.mark.parametrize("L", [3, 5, 7, 9])
def test_hamiltonian_propagator_matches_expm(L):
    linalg = pytest.importorskip("scipy.linalg")
    J, g, h, t = 0.9, 0.7, 0.4, 1.0
    want = linalg.expm(-1j * hamiltonian_dense(J, g, h, L) * t)
    got = hamiltonian_propagator(J, g, h, L, t)
    assert np.max(np.abs(got - want)) < 1e-13


def test_trotter_error_scales_as_eps_squared():
    # second-order splitting: fixed-t propagator error drops 4x per halving
    J, g, h, L, t = 0.9, 0.7, 0.4, 5, 1.0
    U_exact = hamiltonian_propagator(J, g, h, L, t)
    errs = []
    for eps in (0.1, 0.05, 0.025):
        spec = trotterize(J, g, h, t, eps)
        U = circuit_unitary_dense(spec, L)
        errs.append(np.linalg.norm(U - U_exact, ord=2))
    assert np.isclose(errs[0] / errs[1], 4.0, atol=0.15)
    assert np.isclose(errs[1] / errs[2], 4.0, atol=0.15)


def test_g0_im_matches_normalized_state():
    v = im_g0(0.3, 4).amplitudes
    # trace-trajectory amplitude is 1: component where both branches stay up
    assert np.isclose(v[0], 1.0)
    n = oracles.normalized_g0_state(0.3, 4)
    assert np.isclose(np.linalg.norm(n), 1.0)


def test_g0_schmidt_probability_frozen():
    # closed-form weight against the smaller weight of a literal dense SVD
    for J, T, M in ((0.05, 8, 4), (0.21, 7, 2)):
        v = oracles.normalized_g0_state(J, T)
        s = np.linalg.svd(v.reshape(4 ** M, -1), compute_uv=False)
        assert np.isclose(g0_schmidt_probability(J, M, T), s[1] ** 2,
                          rtol=1e-12, atol=0.0)


def test_binary_entropy_formula_vs_dense_schmidt():
    """The closed-form entropy printed in the source text doubles the
    Schmidt weight: it disagrees with the dense Schmidt entropy of the same
    wavefunction beyond any rounding slack.  Kept as a characterization. """
    J, T = 0.05, 12
    dense = np.array([g0_schmidt_entropy(J, T, M) for M in range(1, T)])
    formula = np.array([binary_entropy_formula(J, M, T) for M in range(1, T)])
    exact = np.array([binary_entropy(2 * g0_schmidt_probability(J, M, T))
                      for M in range(1, T)])
    # the printed formula reproduces binary_entropy(2p), not binary_entropy(p)
    assert np.allclose(formula, exact, atol=1e-12)
    assert np.max(np.abs(formula - dense)) > 1e-3


def test_g0_schmidt_entropy_dense_vs_gram():
    # the T > 8 path diagonalizes 2x2 branch Gram matrices instead of
    # taking the SVD of the 4^T vector; both routes must agree at T = 8
    for J in (0.05, 0.21, 0.7):
        for M in (1, 3, 4, 7):
            dense = g0_schmidt_entropy(J, 8, M)
            w = oracles._g0_gram_schmidt_weights(J, 8, M)
            gram = float(-np.sum(w * np.log(w)))
            assert dense > 0
            assert abs(dense - gram) < 1e-12


def test_dicke_entropy_frozen_values():
    assert np.isclose(dicke_entropy(4, 2), 0.8675632284814613, atol=1e-12)
    assert np.isclose(dicke_entropy(8, 4), 1.1380735149623167, atol=1e-12)
    assert np.isclose(dicke_entropy(12, 6), 1.3180579986936092, atol=1e-12)
    # staggering is a local basis twist: entropy unchanged
    assert np.isclose(dicke_entropy(8, 4, staggered=True),
                      dicke_entropy(8, 4), atol=1e-12)


def test_quench_ed_frozen_values():
    spec = trotterize(1.0, 0.25, 0.4, 0.8, 0.2,
                      initial_state="z_polarized_up")
    ser = ed_chain_evolve(spec, 9)
    want = (0.996068186204, 0.987619058487, 0.981727426567, 0.983032186149)
    assert np.allclose(ser.values[1:], want, atol=1e-9)
