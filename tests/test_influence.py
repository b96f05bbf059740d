import io
import json
import math
import struct

import numpy as np
import pytest

from temporal_im.models import Impurity, ModelSpec
from temporal_im.influence import (BOUNDARY_KINDS, _log_norm, _overlap_deficit,
                                   boundary_mps, build_disorder_slice,
                                   build_transfer_slice, checkpoint_bytes,
                                   impurity_im, load_checkpoint,
                                   save_checkpoint, solve_im)
from temporal_im.mps import (TemporalMps, apply_mpo_zipup, canonicalize,
                             entropy_profile, mps_norm, overlap)
from temporal_im import oracles

SPEC = ModelSpec(J=0.31, g=0.57, h=0.23, T=3)
SPEC_TROT = ModelSpec(J=0.8, g=0.45, h=0.3, T=3, eps=0.1)


def test_boundary_states():
    for kind in BOUNDARY_KINDS:
        psi = boundary_mps(kind, 4)
        assert psi.T == 4 and psi.max_bond() == 1
    v = boundary_mps("perfect_dephaser", 2).dense()
    site = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(v, np.kron(site, site))
    with pytest.raises(ValueError):
        boundary_mps("thermal", 3)


@pytest.mark.parametrize("spec", [SPEC, SPEC_TROT,
                                  ModelSpec(J=0.8, g=0.45, h=0.3, T=3,
                                            eps=0.1, trotter_order=1),
                                  ModelSpec(J=0.5, g=0.7, h=0.1, T=1)])
def test_slice_mpo_matches_brute_force(spec):
    mpo = build_transfer_slice(spec)
    assert np.max(np.abs(mpo.dense() - oracles.dense_transfer_slice(spec))) < 1e-13


def test_slice_scaled_bond():
    beta = 0.6
    got = build_transfer_slice(SPEC, bond_coupling=beta * SPEC.J_eff).dense()
    want = oracles.dense_transfer_slice(SPEC, bond_coupling=beta * SPEC.J_eff)
    assert np.max(np.abs(got - want)) < 1e-13


def test_solve_im_reaches_dense_fixed_point():
    for spec in (SPEC, SPEC_TROT):
        im = solve_im(spec, chi_max=256, cutoff=0.0)
        ref = oracles.dense_transfer_fixed_point(spec)
        assert im.converged
        assert np.max(np.abs(im.psi.dense() - ref.amplitudes)) < 1e-10


def test_solve_im_converges_within_horizon():
    # strict light cone: T applications from a product boundary suffice
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=5)
    im = solve_im(spec, chi_max=512, cutoff=0.0)
    assert im.converged
    assert im.iterations_applied <= spec.T + 1


def test_solve_im_g0_closed_form():
    spec = ModelSpec(J=0.47, g=0.0, h=0.29, T=8)
    im = solve_im(spec, chi_max=64, cutoff=0.0)
    want = oracles.im_g0(0.47, 8).amplitudes
    assert np.max(np.abs(im.psi.dense() - want)) < 1e-10


def test_perfect_dephaser_fixed_at_self_dual_point():
    spec = ModelSpec(J=math.pi / 4, g=math.pi / 4, h=0.3, T=6)
    im = solve_im(spec, boundary="perfect_dephaser", chi_max=16, cutoff=0.0)
    assert im.converged and im.iterations_applied <= 2
    v = im.psi.dense()
    want = oracles.dense_boundary_vector("perfect_dephaser", 6)
    want = want * (np.linalg.norm(v) / np.linalg.norm(want))
    assert np.max(np.abs(v - want)) < 1e-10


def test_solve_records_iteration_diagnostics():
    im = solve_im(SPEC, chi_max=32, cutoff=1e-12)
    n = im.iterations_applied
    for key in ("deficit", "entropy_halfcut", "entropy_max", "max_bond",
                "discarded_weight"):
        assert len(im.diagnostics[key]) == n
    assert im.diagnostics["deficit"][-1] < 1e-10
    assert len(im.diagnostics["trace_residual"]) == 1


def test_solve_entropies_are_those_of_each_iterate():
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=8)
    im = solve_im(spec, chi_max=6, cutoff=1e-12, tol=0.0, max_iters=3)
    prof = im.diagnostics["entropy_profile"][-1]
    assert np.max(np.abs(np.asarray(prof) - entropy_profile(im.psi))) < 1e-12
    assert im.diagnostics["entropy_halfcut"][-1] == prof[3]
    assert im.diagnostics["entropy_max"][-1] == max(prof) > 0.1


def _states(T=8):
    """Product boundary, two zip-up iterates, and canonical states whose
    centre tensor (at 0 and in the middle) is not unit-norm."""
    op = build_transfer_slice(ModelSpec(J=0.8, g=0.7236, h=0.6472, T=T))
    b = boundary_mps("open", T)
    z1 = apply_mpo_zipup(op, b, chi_max=8, cutoff=1e-12).psi
    z2 = apply_mpo_zipup(op, z1, chi_max=8, cutoff=1e-12).psi
    z3 = z2.copy()
    z3.tensors[0] = 2.5 * z3.tensors[0]
    mid = canonicalize(z2, 3)
    mid.tensors[3] = 0.4j * mid.tensors[3]
    return b, z1, z2, z3, mid


def test_fast_log_norm_matches_canonicalize():
    for psi in _states():
        assert abs(_log_norm(psi) - canonicalize(psi, 0).norm_log) < 1e-13


def test_one_overlap_deficit_matches_three_overlaps():
    def three_overlaps(a, b):
        a0 = TemporalMps(a.tensors)
        b0 = TemporalMps(b.tensors)
        return 1.0 - abs(overlap(a0, b0)) / (mps_norm(a0) * mps_norm(b0))

    b, z1, z2, z3, mid = _states()
    pairs = [(z1, b), (z2, z1), (z3, z2), (mid, z1), (z3, mid)]
    for x, y in pairs:
        assert abs(_overlap_deficit(x, y) - three_overlaps(x, y)) < 1e-13
    assert _overlap_deficit(z1, b) > 1e-3


def test_disorder_apply_entropies_are_the_constraint_zipups():
    spec = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=6,
                     disorder="uniform_J_0_2pi")
    sl = build_disorder_slice(spec)
    psi = boundary_mps("open", spec.T)
    for chi in (64, 4):
        r = sl.apply(sl.apply(psi, chi, 1e-12).psi, chi, 1e-12)
        want = entropy_profile(r.psi)
        assert max(want) > 0.1
        assert np.max(np.abs(np.asarray(r.entropies) - want)) < 1e-12


def test_impurity_im_beta_one_is_noop_slice():
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=3,
                     impurity=Impurity(alpha=0.7, beta=1.0))
    base = solve_im(spec, chi_max=64, cutoff=0.0)
    imp = impurity_im(spec, base, chi_max=256, cutoff=0.0)
    # beta = 1 slice equals the bulk slice, and base is its fixed point
    assert np.max(np.abs(imp.psi.dense() - base.psi.dense())) < 1e-9
    assert imp.iterations_applied == base.iterations_applied + 1


def test_impurity_im_records_entropies_and_all_weights():
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=8,
                     impurity=Impurity(alpha=0.5, beta=0.8))
    base = solve_im(spec, chi_max=6, cutoff=0.0)
    imp = impurity_im(spec, base, chi_max=6, cutoff=0.0)
    d = imp.diagnostics
    prof = entropy_profile(imp.psi)
    assert np.max(np.abs(np.asarray(d["entropy_profile"][-1]) - prof)) < 1e-12
    assert d["entropy_halfcut"][-1] == d["entropy_profile"][-1][3] > 0.1
    assert d["entropy_max"][-1] == max(d["entropy_profile"][-1])
    assert d["max_bond"][-1] == imp.psi.max_bond()
    # the base solve's weights, then the slice's own
    assert d["discarded_weight"][:-1] == base.diagnostics["discarded_weight"]
    assert d["discarded_weight"][-1] > 0.0


def test_disorder_slice_mpo_matches_dense_average():
    spec = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=3,
                     disorder="uniform_J_0_2pi")
    sl = build_disorder_slice(spec)
    assert np.max(np.abs(sl.dense() - oracles.dense_disorder_slice(spec))) < 1e-13


def test_disorder_constraint_bond_is_bounded():
    spec = ModelSpec(J=1.0, g=1.2, h=0.3, T=6, disorder="uniform_J_0_2pi")
    sl = build_disorder_slice(spec)
    assert sl.max_constraint_bond() <= spec.T + 1
    # charge windows taper near the edges instead of staying rectangular
    mids = [t.shape[0] for t in sl.constraint.tensors]
    assert mids[0] == 1 and max(mids) == sl.max_constraint_bond()


def test_disorder_solve_needs_no_bond_phase_refresh():
    spec = ModelSpec(J=1.0, g=math.pi / 2, h=0.3, T=4,
                     disorder="uniform_J_0_2pi")
    im = solve_im(spec, chi_max=64, cutoff=0.0)
    assert im.converged
    # perfect pi pulse: half-cut entropy is the collective-spin value
    got = im.diagnostics["entropy_halfcut"][-1]
    assert np.isclose(got, oracles.dicke_entropy(8, 4), atol=1e-9)


def test_checkpoint_roundtrip(tmp_path):
    im = solve_im(SPEC_TROT, chi_max=32, cutoff=1e-12)
    p = tmp_path / "im.ckpt"
    save_checkpoint(im, str(p))
    back = load_checkpoint(str(p))
    assert back.spec == SPEC_TROT
    assert back.boundary == im.boundary
    assert back.chi_max == im.chi_max
    assert back.converged == im.converged
    assert np.isclose(back.eigenvalue_drift, im.eigenvalue_drift)
    assert np.array_equal(back.psi.dense(), im.psi.dense())


def test_checkpoint_bytes_alpha_independent():
    mk = lambda alpha: ModelSpec(J=0.3, g=0.5, h=0.2, T=3,
                                 impurity=Impurity(alpha=alpha, beta=0.6))
    a = checkpoint_bytes(solve_im(mk(0.25), chi_max=16, cutoff=0.0))
    b = checkpoint_bytes(solve_im(mk(1.75), chi_max=16, cutoff=0.0))
    assert a == b
    # beta does enter: the converged environment knows its coupling
    c = checkpoint_bytes(solve_im(
        ModelSpec(J=0.3, g=0.5, h=0.2, T=3, impurity=Impurity(alpha=0.25, beta=0.9)),
        chi_max=16, cutoff=0.0))
    assert a != c


def test_checkpoint_rejects_garbage():
    with pytest.raises(ValueError):
        load_checkpoint(io.BytesIO(b"TIMXjunkjunkjunk"))


def _ckpt_parts(blob):
    """(header dict, MPS container bytes) of a checkpoint."""
    (n,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + n]), blob[8 + n:]


def _ckpt_blob(header, body):
    h = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"TIMC" + struct.pack("<I", len(h)) + h + body


def test_checkpoint_v2_header_has_no_side():
    header, _ = _ckpt_parts(checkpoint_bytes(solve_im(SPEC, chi_max=32, cutoff=0.0)))
    assert header["version"] == 2
    assert "side" not in header


def test_checkpoint_reads_v1():
    im = solve_im(SPEC_TROT, chi_max=32, cutoff=1e-12)
    header, body = _ckpt_parts(checkpoint_bytes(im))
    v1 = _ckpt_blob(dict(header, version=1, side="left"), body)
    back = load_checkpoint(io.BytesIO(v1))
    assert back.spec == SPEC_TROT
    assert back.psi.norm_log == im.psi.norm_log
    assert len(back.psi.tensors) == len(im.psi.tensors)
    assert all(np.array_equal(a, b) for a, b in zip(back.psi.tensors, im.psi.tensors))
    # the v1 "side" label is dropped: saving again gives the v2 bytes
    assert checkpoint_bytes(back) == checkpoint_bytes(im)


def test_checkpoint_rejects_unknown_version():
    header, body = _ckpt_parts(checkpoint_bytes(solve_im(SPEC, chi_max=32, cutoff=0.0)))
    with pytest.raises(ValueError, match="version 3"):
        load_checkpoint(io.BytesIO(_ckpt_blob(dict(header, version=3), body)))


def test_checkpoint_malformed_header_is_value_error():
    """A header without its keys, or a blob cut short, is a ValueError."""
    empty = b"TIMC" + struct.pack("<I", 2) + b"{}"
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(io.BytesIO(empty))
    header, body = _ckpt_parts(checkpoint_bytes(solve_im(SPEC, chi_max=32, cutoff=0.0)))
    del header["cutoff"]
    with pytest.raises(ValueError, match="cutoff"):
        load_checkpoint(io.BytesIO(_ckpt_blob(header, body)))
    blob = checkpoint_bytes(solve_im(SPEC, chi_max=32, cutoff=0.0))
    for cut in (6, 8 + 10):  # inside the length field, inside the header
        with pytest.raises(ValueError):
            load_checkpoint(io.BytesIO(blob[:cut]))
