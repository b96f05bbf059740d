"""What a reuse series holds at once, counted by tracemalloc.

A reuse series is one solve and one scan of its IM.  Neither the scan nor
the rotation of the solve's last iterate into an IM may hold much beyond
the IM itself: the scan keeps O(sqrt T) right environments, and the
rotation releases each real tensor as its folded twin is made.
"""
import math
from dataclasses import replace

import pytest

from temporal_im.influence import _influence_matrix, _real_mps, solve_im
from temporal_im.models import floquet_kernel, trotterize
from temporal_im.observables import InsertionPlan, _contract_scan

from helpers import traced_peak

CHI = 8


@pytest.fixture(scope="module")
def quench_im():
    """A T = 100 quench IM at chi 8, its bonds at the cap in the bulk."""
    spec = trotterize(1.0, 0.25, 0.4, 4.0, 0.04,
                      initial_state="z_polarized_up")
    im = solve_im(spec, chi_max=CHI, cutoff=1e-12)
    assert im.T == 100 and im.psi.max_bond() == CHI
    return im


def test_scan_holds_order_sqrt_t_environments(quench_im):
    """The scan's peak above its start stays within 4 ceil(sqrt T)
    environments of (chi, chi, 4) complex entries; one that keeps every
    right environment holds about T of them."""
    env = CHI * CHI * 4 * 16
    T = quench_im.T
    peak = traced_peak(_contract_scan, quench_im,
                       floquet_kernel(quench_im.spec), InsertionPlan([]))
    assert peak <= 4 * math.ceil(math.sqrt(T)) * env, peak / env


def _copied_im(real, phase, spec):
    """The IM of a copy of ``real``, made while it is traced."""
    psi = replace(real, tensors=[t.copy() for t in real.tensors])
    return _influence_matrix(psi, phase, spec, 1, True, {}, "solve")


def test_influence_matrix_replaces_its_real_state(quench_im):
    """Making an IM from a real state it takes over peaks at the folded
    IM's bytes plus a dozen sites, the real state included: the transients
    of one rotation step, the trace contraction's environments and the
    arrays' own headers.  Keeping the real state whole next to the folded
    one needs about 1.5 times those bytes, T/2 sites more."""
    real, phase = _real_mps(quench_im.psi)
    folded = sum(t.nbytes for t in quench_im.psi.tensors)
    site = max(t.nbytes for t in quench_im.psi.tensors)
    peak = traced_peak(_copied_im, real, phase, quench_im.spec)
    assert peak <= folded + 12 * site, (peak - folded) / site
