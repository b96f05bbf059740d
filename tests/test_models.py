import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temporal_im.models import (Impurity, ModelSpec, floquet_kernel,
                                folded_kick_links, initial_density,
                                kick_matrix, trotterize)
from temporal_im.observables import kernel_factors
from temporal_im.tensor import (FOLDED_BWD, FOLDED_FWD, FOLDED_SIGMA,
                                FOLDED_SIGMA_BAR)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_kick_matrix_unitary_and_angle_additive():
    for a in (0.0, 0.3, math.pi / 4, 2.1):
        K = kick_matrix(a)
        assert np.allclose(K @ K.conj().T, np.eye(2), atol=1e-14)
    assert np.allclose(kick_matrix(0.2) @ kick_matrix(0.5), kick_matrix(0.7),
                       atol=1e-14)
    assert np.allclose(kick_matrix(0.0), np.eye(2))


def test_initial_densities():
    rho = initial_density("infinite_temperature")
    assert np.allclose(rho, np.eye(2) / 2)
    rho = initial_density("z_polarized_up")
    assert np.allclose(rho, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        initial_density("bogus")


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(J=1.0, g=0.5, h=0.1, T=0)
    with pytest.raises(ValueError):
        ModelSpec(J=1.0, g=0.5, h=0.1, T=3, initial_state="sideways")
    with pytest.raises(ValueError):
        ModelSpec(J=1.0, g=0.5, h=0.1, T=3, disorder="gaussian")


def test_effective_couplings_scale_with_step():
    s = ModelSpec(J=1.0, g=0.5, h=0.25, T=4)
    assert (s.J_eff, s.g_eff, s.h_eff) == (1.0, 0.5, 0.25)
    assert s.t is None
    s = ModelSpec(J=1.0, g=0.5, h=0.25, T=4, eps=0.1)
    assert np.allclose((s.J_eff, s.g_eff, s.h_eff), (0.1, 0.05, 0.025))
    assert np.isclose(s.t, 0.4)
    assert s.split_kick
    # an unsplit step of 0.1 is the eps = 0 spec at the scaled angles
    assert not ModelSpec(J=0.1, g=0.05, h=0.025, T=4).split_kick


def test_trotterize_step_count():
    s = trotterize(1.0, 0.5, 0.25, 2.0, 0.04)
    assert s.T == 50 and np.isclose(s.eps, 0.04)
    with pytest.raises(ValueError):
        trotterize(1.0, 0.5, 0.25, 2.0, 0.3)  # 2/0.3 is not an integer


def test_kernel_rho0_effective_halfkick_frame():
    s = ModelSpec(J=1.0, g=0.9, h=0.3, T=3, eps=0.2)
    kern = floquet_kernel(s)
    rho = kernel_factors(kern, s.T)[0].reshape(2, 2)
    Kh = kick_matrix(s.g_eff / 2)
    assert np.allclose(rho, Kh @ np.eye(2) / 2 @ Kh.conj().T, atol=1e-14)
    assert np.isclose(np.trace(rho), 1.0)
    # an unsplit step keeps the bare state
    s1 = ModelSpec(J=0.2, g=0.18, h=0.06, T=3)
    assert np.allclose(kernel_factors(floquet_kernel(s1), 3)[0], np.eye(2).reshape(4) / 2)


def test_step_superop_is_kick_sandwich():
    s = ModelSpec(J=0.7, g=1.1, h=0.2, T=2)
    kern = floquet_kernel(s)
    S = kernel_factors(kern, s.T)[2][0]  # the link of a step with no insertion
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    K = kick_matrix(s.g_eff)
    want = K @ rho @ K.conj().T
    got = (S @ rho.reshape(4)).reshape(2, 2)
    assert np.allclose(got, want, atol=1e-14)


def test_field_phases_are_z_rotation():
    s = ModelSpec(J=0.7, g=1.1, h=0.35, T=2)
    kern = floquet_kernel(s)
    zph = np.exp(-1j * s.h_eff * np.array([1.0, -1.0]))
    want = zph[FOLDED_FWD] * np.conj(zph[FOLDED_BWD])
    assert np.allclose(kern.field_phases, want, atol=1e-14)


def test_impurity_scales_onsite_terms_only():
    base = ModelSpec(J=0.7, g=1.1, h=0.35, T=2)
    imp = ModelSpec(J=0.7, g=1.1, h=0.35, T=2,
                    impurity=Impurity(alpha=0.5, beta=0.9))
    k_imp = floquet_kernel(imp, site_role="impurity_site")
    assert np.allclose(k_imp.kick, kick_matrix(0.5 * 1.1), atol=1e-14)
    assert np.allclose(k_imp.field_phases,
                       np.exp(-1j * 0.5 * 0.35 * (FOLDED_SIGMA - FOLDED_SIGMA_BAR)),
                       atol=1e-14)
    # bulk kernel of the same spec is untouched
    k_bulk = floquet_kernel(imp)
    assert np.allclose(k_bulk.kick, floquet_kernel(base).kick, atol=1e-14)


def test_folded_kick_links_match_branch_product():
    K = kick_matrix(0.83)
    L = folded_kick_links(K)
    for p_next in range(4):
        for p in range(4):
            want = (K[FOLDED_FWD[p_next], FOLDED_FWD[p]]
                    * np.conj(K[FOLDED_BWD[p_next], FOLDED_BWD[p]]))
            assert np.isclose(L[p_next, p], want, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_kick_superop_preserves_trace(a):
    s = ModelSpec(J=0.5, g=a, h=0.1, T=2)
    S = kernel_factors(floquet_kernel(s), s.T)[2][0]
    rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    out = (S @ rho.reshape(4)).reshape(2, 2)
    assert np.isclose(np.trace(out), 1.0, atol=1e-12)
