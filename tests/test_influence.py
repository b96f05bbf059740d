import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from temporal_im import influence
from temporal_im.models import Impurity, ModelSpec, floquet_kernel, trotterize
from temporal_im.influence import (BOUNDARY_KINDS, BranchSymmetryError,
                                   InfluenceMatrix, NumericalInstabilityError,
                                   _BRANCH_SWAP, _charge_bond, _folded_bond,
                                   _folded_mps, _impurity_map, _log_norm,
                                   _normalize_trace, _overlap_deficit,
                                   _real_basis, _real_mpo, _real_mps,
                                   _real_slice, boundary_mps,
                                   build_disorder_slice, build_transfer_slice,
                                   grow_ims, impurity_im, solve_im)
from temporal_im.mps import (TemporalMpo, TemporalMps, apply_mpo_zipup,
                             canonicalize, entropy_profile, mps_norm, overlap)
from temporal_im import oracles
from temporal_im.observables import autocorrelator_series, temporal_contract

from helpers import czz_plan, im_bits

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
                                  # an unsplit step of 0.1
                                  ModelSpec(J=0.08, g=0.045, h=0.03, T=3),
                                  ModelSpec(J=0.5, g=0.7, h=0.1, T=1)])
def test_slice_mpo_matches_brute_force(spec):
    mpo = build_transfer_slice(spec)
    assert np.max(np.abs(mpo.dense() - oracles.dense_transfer_slice(spec))) < 1e-13


def test_slice_scaled_bond():
    """The impurity map times the bulk slice is the slice with its facing
    bond at beta J_eff, from the independent dense route: for several beta,
    a Trotter step, and J_eff = 1e-9, the sinc limit of sin(beta J) / sin J."""
    specs = [replace(SPEC, impurity=Impurity(0.7, beta))
             for beta in (0.0, 0.6, 1.0, 1.3)]
    specs += [replace(SPEC_TROT, impurity=Impurity(0.5, 0.6)),
              replace(SPEC, J=1e-9, impurity=Impurity(0.7, 0.6))]
    for spec in specs:
        got = _impurity_map(spec).dense() @ build_transfer_slice(spec).dense()
        want = oracles.dense_transfer_slice(spec, spec.impurity.beta * spec.J_eff)
        assert np.max(np.abs(got - want)) < 1e-13


def test_solve_im_reaches_dense_fixed_point():
    for spec in (SPEC, SPEC_TROT):
        im = solve_im(spec, chi_max=256, cutoff=0.0)
        ref = oracles.dense_transfer_fixed_point(spec)
        assert im.converged
        assert np.max(np.abs(im.psi.dense() - ref.amplitudes)) < 1e-10


def test_solve_im_converges_within_horizon():
    # infinite temperature: ceil(T/2) applications reach the fixed point,
    # one more sees a zero deficit
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=5)
    im = solve_im(spec, chi_max=512, cutoff=0.0)
    assert im.converged
    assert im.iterations_applied <= (spec.T + 1) // 2 + 1


LIGHT_CONE_SPECS = {
    "floquet": dict(J=0.8, g=0.7236, h=0.6472),
    "trotter": dict(J=0.8, g=0.45, h=0.3, eps=0.3),
    "dtc": dict(J=1.0, g=math.pi / 2 - 0.13, h=0.3, disorder="uniform_J_0_2pi"),
}


def _exact_iterate(spec, boundary, n):
    """The untruncated power iterate after n applications, as a unit vector.
    tol = -inf: once exact, round-off can make the deficit negative."""
    im = solve_im(spec, boundary, chi_max=4 ** (spec.T // 2 + 1), cutoff=0.0,
                  tol=-math.inf, max_iters=n)
    assert im.iterations_applied == n
    v = im.psi.dense()
    return v / np.linalg.norm(v)


def _gap(a, b):
    """Distance between two unit vectors, up to a global phase."""
    ph = np.vdot(a, b)
    return np.linalg.norm(a * (ph / abs(ph)) - b)


@pytest.mark.parametrize("T", [5, 6, 7])
@pytest.mark.parametrize("boundary", BOUNDARY_KINDS)
@pytest.mark.parametrize("kind", sorted(LIGHT_CONE_SPECS))
def test_exact_fixed_point_at_light_cone(kind, boundary, T):
    """The horizon behind solve_im's default budget: the untruncated iterate
    is exact after ceil(T/2) applications at infinite temperature, and from
    a polarized environment after T but not after ceil(T/2)."""
    n_lc = (T + 1) // 2
    spec = ModelSpec(T=T, **LIGHT_CONE_SPECS[kind])
    final = _exact_iterate(spec, boundary, T + 2)
    assert _gap(_exact_iterate(spec, boundary, n_lc), final) < 1e-12
    if kind == "floquet":  # the horizon is tight for the generic spec
        assert _gap(_exact_iterate(spec, boundary, n_lc - 1), final) > 1e-3
    pol = ModelSpec(T=T, initial_state="z_polarized_up", **LIGHT_CONE_SPECS[kind])
    final = _exact_iterate(pol, boundary, T + 2)
    assert _gap(_exact_iterate(pol, boundary, T), final) < 1e-12
    if pol.disorder is None:  # the average can close the cone sooner
        assert _gap(_exact_iterate(pol, boundary, n_lc), final) > 1e-6


@pytest.mark.parametrize("initial_state", ["infinite_temperature",
                                           "z_polarized_up"])
@pytest.mark.parametrize("kind", sorted(LIGHT_CONE_SPECS))
def test_grown_ims_are_the_exact_fixed_points(kind, initial_state):
    """One slice application per horizon reaches the untruncated power
    iteration's fixed point at every k; compared at k = 5, 6, 7 against
    the full light-cone budget, to 1e-12 relative."""
    spec = ModelSpec(T=7, initial_state=initial_state, **LIGHT_CONE_SPECS[kind])
    grown = list(grow_ims(spec, chi_max=4 ** spec.T, cutoff=0.0))
    assert [im.T for im in grown] == list(range(1, 8))
    for im in grown[4:]:
        ref = solve_im(im.spec, chi_max=4 ** im.T, cutoff=0.0, tol=-math.inf,
                       max_iters=im.T + 2)
        got, want = im.psi.dense(), ref.psi.dense()  # both trace-normalised
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert im.iterations_applied == 1 and im.converged
        assert "deficit" not in im.diagnostics and "drift" not in im.diagnostics
        assert im.diagnostics["trace_residual"][-1] < 1e-12
    # each record is its predecessor's plus its own step
    for prev, im in zip(grown, grown[1:]):
        assert im.diagnostics["discarded_weight"][:-1] == prev.diagnostics["discarded_weight"]


def test_drift_guard_starts_at_light_cone():
    """Truncated fig2-point solve: the norm drifts by more than the limit
    from the first iteration on, and the guard raises at ceil(T/2)."""
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=9)
    n_lc, limit = 5, 1e-2
    free = solve_im(spec, chi_max=8, cutoff=1e-12, max_iters=n_lc,
                    drift_limit=math.inf)
    assert min(free.diagnostics["drift"]) > limit
    with pytest.raises(NumericalInstabilityError,
                       match=f"at iteration {n_lc} "):
        solve_im(spec, chi_max=8, cutoff=1e-12, drift_limit=limit)


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
    z3 = TemporalMps([2.5 * z2.tensors[0]] + z2.tensors[1:], z2.norm_log,
                     z2.canonical_center)
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
    # the base solve's weights, then the impurity slice's: one more bulk
    # application, made as the solve's next one (a fit at the cap), and
    # the map.  On a grown base the map alone: its cuts never reach chi_max,
    # so it drops round-off only
    assert d["discarded_weight"][:-1] == base.diagnostics["discarded_weight"]
    assert d["route"] == ["fit"] and d["discarded_weight"][-1] > 1e-6
    grown = list(grow_ims(spec, chi_max=6, cutoff=0.0))[-1]
    d = impurity_im(spec, grown, chi_max=6, cutoff=0.0).diagnostics
    assert d["discarded_weight"][:-1] == grown.diagnostics["discarded_weight"]
    assert "route" not in d and d["discarded_weight"][-1] < 1e-24


def test_reuse_impurity_im_carries_no_solve_tolerance():
    """On a solve the map goes on one more bulk application, so the
    impurity series at the default tol (1e-10) is that of a tol = 1e-14
    solve to round-off.  With the map on the last iterate it was off by
    1.2e-10 here: the impurity slice applied to the second-to-last."""
    spec = trotterize(1.0, math.sqrt(2), 0.681, 0.8, 0.04,
                      impurity=Impurity(0.5, 0.8))
    sink = []
    got = autocorrelator_series(spec, 16, 0.0, reuse_im=True, im_sink=sink)
    base = sink[0]
    tight = solve_im(spec, chi_max=16, cutoff=0.0, tol=1e-14)
    assert base.converged and tight.iterations_applied > base.iterations_applied
    kern = floquet_kernel(spec, "impurity_site")
    want = temporal_contract(impurity_im(spec, tight, 16, 0.0), kern,
                             czz_plan(spec.T))
    assert abs(got.values[-1] - want) < 1e-12


def test_refused_fits_leave_the_zipup_solve(monkeypatch):
    """With the fit's bound forced to 0 every application at the cap is
    refused and zipped up: the solve is bit for bit the zip-up-only solve,
    apart from the route record."""
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=8)
    solve = lambda: solve_im(spec, chi_max=6, cutoff=1e-12, tol=0.0)
    monkeypatch.setattr(influence, "_FIT_SLACK", 0.0)
    monkeypatch.setattr(influence, "_FIT_FLOOR", 0.0)
    refused = solve()
    monkeypatch.setattr(influence._SliceMpo, "apply",
                        lambda self, psi, chi_max, cutoff=0.0:
                        apply_mpo_zipup(self.op, psi, chi_max, cutoff))
    plain = solve()
    routes = refused.diagnostics.pop("route")
    assert plain.diagnostics.pop("route") == ["zipup"] * len(routes)
    n = routes.index("fit_refused")  # zip-ups until the input meets the cap
    assert routes == ["zipup"] * n + ["fit_refused"] * (len(routes) - n)
    assert len(routes) - n >= 3
    assert im_bits(refused) == im_bits(plain)


def test_round_off_residuals_record_no_weight(monkeypatch):
    """A quench solve's fits at the cap are exact to round-off: their
    certified residuals read a few 1e-14, within the floor, and each such
    kept fit records only its right-to-left sweep's sub-cutoff drops."""
    spec = trotterize(1.0, 0.25, 0.4, 1.0, 0.04, initial_state="z_polarized_up")
    residuals, real = [], influence.apply_mpo_fit

    def fit(*args):
        f = real(*args)
        residuals.append(f.residual)
        return f

    monkeypatch.setattr(influence, "apply_mpo_fit", fit)
    im = solve_im(spec, chi_max=8, cutoff=1e-12)
    routes, weights = im.diagnostics["route"], im.diagnostics["discarded_weight"]
    assert im.converged and routes.count("fit") == len(residuals) >= 2
    assert all(1e-15 < abs(r) <= influence._FIT_FLOOR for r in residuals)
    assert all(0.0 <= w < 1e-24 for w, route in zip(weights, routes)
               if route == "fit")


@pytest.mark.parametrize("reuse_im", [False, True], ids=["grown", "solved"])
def test_impurity_im_never_widens_the_base(reuse_im):
    """The map has bond dimension 1: the impurity IM's bonds are at most the
    base IM's, also where the base sits at chi_max."""
    spec = trotterize(1.0, math.sqrt(2), 0.681, 0.4, 0.04,
                      impurity=Impurity(0.5, 0.8))
    sink = []
    autocorrelator_series(spec, 8, 0.0, reuse_im=reuse_im, im_sink=sink)
    pairs = list(zip(sink[::2], sink[1::2]))
    assert len(pairs) == (1 if reuse_im else spec.T)
    assert max(base.psi.max_bond() for base, _ in pairs) == 8
    for base, imp in pairs:
        assert imp.psi.max_bond() <= base.psi.max_bond()
        assert imp.diagnostics["max_bond"][-1] == imp.psi.max_bond()


def test_disorder_slice_mpo_matches_dense_average():
    spec = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=3,
                     disorder="uniform_J_0_2pi")
    sl = build_disorder_slice(spec)
    assert np.max(np.abs(sl.dense() - oracles.dense_disorder_slice(spec))) < 1e-13
    with pytest.raises(ValueError, match="no uniform coupling disorder"):
        build_disorder_slice(replace(spec, disorder=None))


def test_disorder_constraint_bond_is_bounded():
    spec = ModelSpec(J=1.0, g=1.2, h=0.3, T=6, disorder="uniform_J_0_2pi")
    sl = build_disorder_slice(spec)
    # charge windows taper near the edges instead of staying rectangular
    mids = [t.shape[0] for t in sl.constraint.tensors]
    assert mids[0] == 1 and max(mids) <= spec.T + 1


def test_disorder_solve_needs_no_bond_phase_refresh():
    spec = ModelSpec(J=1.0, g=math.pi / 2, h=0.3, T=4,
                     disorder="uniform_J_0_2pi")
    im = solve_im(spec, chi_max=64, cutoff=0.0)
    assert im.converged
    # perfect pi pulse: half-cut entropy is the collective-spin value
    got = im.diagnostics["entropy_halfcut"][-1]
    assert np.isclose(got, oracles.dicke_entropy(8, 4), atol=1e-9)


# ------------------------------------------------------------- real basis

SPEC_DTC = ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=4,
                     disorder="uniform_J_0_2pi")
SPEC_QUENCH = ModelSpec(J=0.8, g=0.45, h=0.3, T=4, eps=0.1,
                        initial_state="z_polarized_up")


def test_real_basis_turns_the_swap_into_conjugation():
    for perm in (_BRANCH_SWAP, (0,), (2, 1, 0), (4, 3, 2, 1, 0)):
        V = _real_basis(perm)
        assert np.max(np.abs(V.conj().T @ V - np.eye(len(perm)))) < 1e-15
        assert np.array_equal(V[list(perm)], V.conj())


@pytest.mark.parametrize("mpo, bond", [
    (build_transfer_slice(ModelSpec(J=0.5, g=0.7, h=0.1, T=1)), _folded_bond),
    (build_transfer_slice(SPEC), _folded_bond),
    (build_transfer_slice(ModelSpec(J=0.31, g=0.57, h=0.23, T=4)), _folded_bond),
    (_impurity_map(replace(SPEC, impurity=Impurity(beta=0.6))), _folded_bond),
    (build_transfer_slice(SPEC_QUENCH), _folded_bond),
    (build_disorder_slice(SPEC_DTC).weights, _folded_bond),
    (build_disorder_slice(SPEC_DTC).constraint, _charge_bond),
], ids=["clean-T1", "clean-T3", "clean-T4", "impurity-bond", "quench-z-up",
        "disorder-weights", "disorder-constraint"])
def test_slices_are_real_in_the_real_basis(mpo, bond):
    real = _real_mpo(mpo, bond)
    assert all(W.dtype == np.float64 for W in real.tensors)
    U = functools.reduce(np.kron, [_real_basis(_BRANCH_SWAP)] * mpo.T)
    back = U @ real.dense() @ U.conj().T
    assert np.max(np.abs(back - mpo.dense())) < 1e-14


@pytest.mark.parametrize("spec", [SPEC_QUENCH, SPEC_DTC], ids=["clean", "disorder"])
def test_slice_tensors_are_shared_and_read_only(spec):
    # the interior sites hold one array, folded and rotated once; a write
    # into it would reach every site at once, so it raises
    T = spec.T
    folded = (build_transfer_slice(spec) if spec.disorder is None
              else build_disorder_slice(spec).weights)
    real = _real_slice(spec)
    real_ops = [real.op] if spec.disorder is None else [real.weights, real.constraint]
    assert folded.tensors[1] is folded.tensors[T - 2]
    assert real_ops[0].tensors[1] is real_ops[0].tensors[T - 2]
    for mpo in [folded] + real_ops:
        for W in mpo.tensors[1:T - 1]:
            with pytest.raises(ValueError, match="read-only"):
                W[0, 0, 0, 0] = 1.0


def test_normalize_trace_removes_a_global_phase():
    # every solve ends with a trace real to round-off, so the golden files
    # cannot see the phase line of _normalize_trace; a phase put on by hand
    # must come off again.  The contraction is bilinear in the IM: e^{0.7i}
    # on one tensor turns the trace into e^{1.4i}, which rescaling the norm
    # alone leaves in place.
    im = solve_im(SPEC_TROT, chi_max=32, cutoff=1e-12)
    kern = floquet_kernel(im.spec)
    im.psi.tensors[0] = im.psi.tensors[0] * np.exp(0.7j)
    assert abs(temporal_contract(im, kern) - np.exp(1.4j)) < 1e-12
    _normalize_trace(im)
    assert abs(temporal_contract(im, kern) - (1.0 + 0.0j)) < 1e-12


def test_asymmetric_slice_raises(monkeypatch):
    good = build_transfer_slice(SPEC)
    W = good.tensors[1].copy()
    W[:, :, 1, :] *= 1.5  # weights (up, down) but not its mirror (down, up)
    bad = TemporalMpo([good.tensors[0], W, good.tensors[2]])
    with pytest.raises(BranchSymmetryError):
        _real_mpo(bad, _folded_bond)
    # the CLI reports it as numerical trouble, exit 3
    assert issubclass(BranchSymmetryError, NumericalInstabilityError)
    monkeypatch.setattr(influence, "build_transfer_slice", lambda spec, *_: bad)
    with pytest.raises(BranchSymmetryError):
        solve_im(SPEC, chi_max=16)


def test_solve_runs_in_float64(monkeypatch):
    seen = []

    def zipup(op, psi, chi_max, cutoff=0.0):
        r = apply_mpo_zipup(op, psi, chi_max, cutoff)
        seen.extend(t.dtype for t in op.tensors + psi.tensors + r.psi.tensors)
        return r

    monkeypatch.setattr(influence, "apply_mpo_zipup", zipup)
    solve_im(SPEC_DTC, chi_max=16, cutoff=1e-12)
    spec = ModelSpec(J=0.31, g=0.57, h=0.23, T=3, impurity=Impurity(beta=0.6))
    im = impurity_im(spec, solve_im(spec, chi_max=16, cutoff=1e-12), 16, 1e-12)
    assert seen and set(seen) == {np.dtype(np.float64)}
    assert im.psi.tensors[0].dtype == np.complex128  # public IM: folded z basis


def test_state_rotation_round_trip_keeps_the_phase():
    im = solve_im(SPEC_TROT, chi_max=32, cutoff=1e-12)
    psi = TemporalMps([im.psi.tensors[0] * np.exp(0.7j)] + im.psi.tensors[1:],
                      im.psi.norm_log, im.psi.canonical_center)
    real, phase = _real_mps(psi)
    assert all(t.dtype == np.float64 for t in real.tensors)
    assert np.max(np.abs(_folded_mps(real, phase).dense() - psi.dense())) < 1e-14


def _complex_path(spec, boundary="open", chi_max=64, cutoff=0.0, tol=1e-10):
    """The power iteration on the folded z-basis slice, without the real
    basis, normalised like the engine's IMs."""
    if spec.disorder is None:
        op = build_transfer_slice(spec)
        step = lambda p: apply_mpo_zipup(op, p, chi_max, cutoff)
    else:
        dis = build_disorder_slice(spec)
        step = lambda p: dis.apply(p, chi_max, cutoff)
    psi = boundary_mps(boundary, spec.T)
    for _ in range(spec.T + 2):
        new = step(psi).psi
        done = _overlap_deficit(new, psi) < tol
        psi = new
        if done:
            break
    im = InfluenceMatrix(psi, spec, 0, done)
    _normalize_trace(im)
    return im


@pytest.mark.parametrize("spec, boundary", [
    (ModelSpec(J=0.31, g=0.57, h=0.23, T=5), "open"),
    (ModelSpec(J=0.8, g=0.7236, h=0.6472, T=5), "perfect_dephaser"),
    (ModelSpec(J=0.8, g=0.45, h=0.3, T=5, eps=0.1,
               initial_state="z_polarized_up"), "open"),
    (ModelSpec(J=1.0, g=math.pi / 2 - 0.13, h=0.3, T=5,
               disorder="uniform_J_0_2pi"), "open"),
], ids=["floquet", "floquet-pd", "quench-z-up", "dtc"])
def test_real_solve_matches_complex_path(spec, boundary):
    im = solve_im(spec, boundary, chi_max=256, cutoff=1e-12)
    ref = _complex_path(spec, boundary, chi_max=256, cutoff=1e-12)
    assert im.converged and ref.converged
    assert np.max(np.abs(im.psi.dense() - ref.psi.dense())) < 1e-12


def test_real_impurity_slice_matches_complex_path():
    spec = ModelSpec(J=0.8, g=0.45, h=0.3, T=5, eps=0.1,
                     impurity=Impurity(alpha=0.5, beta=0.6))
    base = solve_im(spec, chi_max=256, cutoff=0.0)
    op = _impurity_map(spec)  # in the folded z basis
    # the base's global phase survives the real basis; the trace
    # normalisation fixes the result only up to sign (phases whose square
    # is near -1 are left out: there the sign is round-off)
    first = base.psi.tensors[0]
    for phase in (1.0, np.exp(0.7j), -1.0, np.exp(2.5j), np.exp(-2.0j)):
        base.psi.tensors[0] = first * phase
        im = impurity_im(spec, base, chi_max=256, cutoff=0.0)
        ref = InfluenceMatrix(apply_mpo_zipup(op, base.psi, 256).psi, spec, 0, True)
        _normalize_trace(ref)
        assert np.max(np.abs(im.psi.dense() - ref.psi.dense())) < 1e-12


def _swap_defect(psi):
    """1 - |<(S psi)*|psi>| / ||psi||^2, with S swapping the branches."""
    mirror = TemporalMps([t[:, list(_BRANCH_SWAP), :].conj() for t in psi.tensors])
    bare = TemporalMps(psi.tensors)
    return 1.0 - abs(overlap(mirror, bare)) / abs(overlap(bare, bare))


def test_capped_stalled_solve_is_swap_symmetric():
    # chi-capped and stalled; the complex z-basis iteration kept a subspace
    # without the symmetry here (defect 2.5e-4 on numpy 2.4 / OpenBLAS 0.3.31)
    spec = ModelSpec(J=0.8, g=0.7236, h=0.6472, T=18)
    im = solve_im(spec, chi_max=32, cutoff=1e-12)
    assert not im.converged and im.psi.max_bond() == 32
    assert abs(_swap_defect(im.psi)) < 1e-14


def test_im_alpha_independent_bitwise():
    mk = lambda alpha, beta=0.6: ModelSpec(
        J=0.3, g=0.5, h=0.2, T=3, impurity=Impurity(alpha=alpha, beta=beta))
    solve = lambda spec: solve_im(spec, chi_max=16, cutoff=0.0)
    a, b = solve(mk(0.25)), solve(mk(1.75))
    assert im_bits(a) == im_bits(b)
    imp = lambda spec, base: impurity_im(spec, base, chi_max=16, cutoff=0.0)
    assert im_bits(imp(mk(0.25), a)) == im_bits(imp(mk(1.75), b))
    # beta does enter: the spec keeps it, and the impurity map carries it
    # (the base solve is the homogeneous environment)
    c = solve(mk(0.25, 0.9))
    assert im_bits(a) != im_bits(c)
    assert im_bits(imp(mk(0.25), a))[0] != im_bits(imp(mk(0.25, 0.9), c))[0]


@pytest.mark.parametrize("spec", [
    SPEC, replace(SPEC, impurity=Impurity(beta=0.6)), SPEC_TROT, SPEC_DTC],
    ids=["clean", "impurity_bond", "trotter", "disorder"])
def test_real_slice_step_is_the_slice(spec):
    """Every kind of slice is one ``apply`` step in the real basis; rotated
    back, it is the z-basis slice times the state.  The impurity's step is
    the bulk one followed by the map, against the dense slice whose facing
    bond is at beta J_eff."""
    b = boundary_mps("open", spec.T)
    psi, phase = _real_mps(b)
    chi = 4 ** spec.T
    r = _real_slice(spec).apply(psi, chi, 0.0)
    weight = r.discarded_weight
    if spec.impurity:
        r = apply_mpo_zipup(_real_mpo(_impurity_map(spec), _folded_bond),
                            r.psi, chi, 0.0)
        weight += r.discarded_weight
        sl = oracles.dense_transfer_slice(spec, spec.impurity.beta * spec.J_eff)
    else:
        sl = (build_disorder_slice(spec) if spec.disorder
              else build_transfer_slice(spec)).dense()
    want = sl @ b.dense()
    got = _folded_mps(r.psi, phase).dense()
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    assert weight < 1e-24


def test_impurity_on_a_disorder_average_raises():
    """An exactly averaged IM has no single bond coupling to scale, and a
    spec without an impurity has no impurity bond."""
    spec = ModelSpec(J=1.0, g=math.pi / 2 - 0.1, h=0.3, T=4,
                     disorder="uniform_J_0_2pi", impurity=Impurity(0.5, 0.8))
    base = solve_im(spec, chi_max=16, cutoff=1e-12)
    with pytest.raises(ValueError, match="disorder"):
        impurity_im(spec, base, 16, 1e-12)
    with pytest.raises(ValueError, match="no impurity"):
        impurity_im(replace(spec, impurity=None), base, 16, 1e-12)


@pytest.mark.parametrize("J, singular", [
    (1.52, False), (1.56, True), (-1.57, True), (3.0, False), (3.14, True),
    (0.0, False), (4.71, True)])
def test_impurity_im_raises_near_a_singular_point_of_the_map(J, singular):
    """Near cos J_eff = 0, and near sin J_eff = 0 away from J_eff = 0, the
    bulk slice all but drops a component the impurity bond needs; there
    ``impurity_im`` raises instead of amplifying the base's truncation."""
    spec = ModelSpec(J=J, g=0.7, h=0.3, T=3, impurity=Impurity(0.5, 0.8))
    base = solve_im(spec, chi_max=16, cutoff=0.0)
    assert (influence.impurity_map_margin(J) < influence.IMPURITY_MAP_FLOOR) == singular
    if singular:
        with pytest.raises(ValueError, match="singular point of the impurity map"):
            impurity_im(spec, base, 16, 0.0)
    else:
        impurity_im(spec, base, 16, 0.0)
