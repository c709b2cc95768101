"""Cat-storage tests.

Overlap values are frozen from closed-form coherent-state algebra and
cross-checked against direct Fock sums; trajectory statistics are checked
against Poisson loss expectations; the factored chain engine is validated
against the dense state-vector route (the ``oracle_storage`` test module)
operation by operation; the in-module Brent root is checked bit for bit
against ``scipy.optimize.brentq``.
"""
import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from entpipe import cat_code, runner
from entpipe.cat_code import (
    CavitySpec,
    FactoredChain,
    TrajectoryRecord,
    cat_column,
    coherent_column,
    factored_chain,
    fc_loss_segment,
    fc_parity_probability,
    fc_project_parity,
    fc_repump,
    recovery_matrix,
    required_levels,
    run_protected,
    start_protected,
)
from entpipe.errors import (
    ConvergenceError,
    LayoutError,
    NullStateError,
    TruncationError,
)
from entpipe.hilbert import StateVector, SubsystemLayout, fidelity
from oracle_register import tensor_states
from oracle_storage import (
    ChainFormError,
    CodeSubspaceError,
    DispersiveCoupling,
    _gram_schmidt_complete,
    annihilation,
    apply_loss,
    branch_columns,
    cat,
    cat_normalization,
    cat_overlap,
    chain_from_columns,
    chain_state,
    chain_weights,
    coherent,
    coherent_overlap,
    decode,
    dispersive_rotation,
    encode,
    encode_unitary,
    extend_chain,
    fc_apply_loss,
    fc_drift,
    fc_jump_flux,
    fc_survival,
    jump_cavity_numpy,
    logical_fidelity,
    loss_segment_by_ops,
    loss_trajectory,
    mean_photon,
    no_jump_drift,
    parity_measure,
    parity_operator,
    project_parity_full,
    recovery_unitary,
    repump_correct,
    run_protected_unshared,
    vacuum,
)

ALPHA = 2.0
NMAX = 31
SPEC = CavitySpec(ALPHA, NMAX, kappa=1.0)


def qubit(i: int) -> StateVector:
    return StateVector.basis(SubsystemLayout((2,)), i)


# ------------------------------------------------------------- fock states

def test_required_levels_and_spec_validation():
    assert required_levels(2.0) == 30
    with pytest.raises(TruncationError):
        CavitySpec(2.0, 20)
    with pytest.raises(ValueError):
        CavitySpec(2.0, NMAX, kappa=-1.0)


def test_coherent_vacuum_and_mean_photon():
    v = coherent(0.0, NMAX)
    assert v.amplitudes[0] == 1.0 and np.allclose(v.amplitudes[1:], 0)
    assert mean_photon(coherent(2.0, NMAX)) == pytest.approx(4.0, abs=1e-8)


def test_coherent_overlap_fock_vs_closed_form():
    fock = np.vdot(coherent_column(2.0, NMAX), coherent_column(2.0j, NMAX))
    closed = coherent_overlap(2.0, 2.0j)
    assert abs(fock - closed) < 1e-10
    assert abs(abs(closed) - np.exp(-4.0)) < 1e-12


def test_coherent_truncation_error():
    with pytest.raises(TruncationError):
        coherent(4.0, 12)


def test_cat_parity_support():
    plus = cat(ALPHA, 1, NMAX)
    minus = cat(ALPHA, -1, NMAX)
    assert np.max(np.abs(plus.amplitudes[1::2])) < 1e-12
    assert np.max(np.abs(minus.amplitudes[0::2])) < 1e-12
    par = np.real(np.vdot(plus.amplitudes, parity_operator(NMAX + 1) @ plus.amplitudes))
    assert par == pytest.approx(1.0, abs=1e-10)


def test_cat_normalization_approaches_half_root():
    for a in (1.0, 1.5, 2.0, 2.5):
        assert abs(cat_normalization(a, 1) - 2**-0.5) < np.exp(-2 * a * a)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 2.5])
def test_cat_overlap_fock_vs_closed_form(a):
    n_max = max(NMAX, required_levels(a))
    fock = np.vdot(cat_column(a, 1, n_max), cat_column(1j * a, 1, n_max))
    assert abs(fock - cat_overlap(a, 1j * a)) < 1e-8


def test_cat_branch_overlap_value():
    # |<C+|C'+>| at alpha=2 is about 2 e^{-4} |cos 4|
    assert abs(cat_overlap(2.0, 2.0j)) == pytest.approx(0.02394, abs=5e-5)


def test_odd_cat_at_zero_is_null():
    with pytest.raises(NullStateError):
        cat(0.0, -1, NMAX)


# -------------------------------------------------------------- dispersive

def test_dispersive_rotates_branch_zero():
    dc = DispersiveCoupling(g=1.0, delta=1.0)
    state = tensor_states(qubit(0), coherent(ALPHA, NMAX))
    out = dispersive_rotation(state, dc, np.pi / 2)
    target = tensor_states(qubit(0), coherent(-1j * ALPHA, NMAX))
    assert fidelity(out, target) >= 1 - 1e-9


def test_dispersive_leaves_branch_one():
    dc = DispersiveCoupling(g=1.0, delta=1.0)
    state = tensor_states(qubit(1), coherent(ALPHA, NMAX))
    out = dispersive_rotation(state, dc, 0.77)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_dispersive_pi_keeps_even_cat():
    dc = DispersiveCoupling(g=1.0, delta=1.0)
    state = tensor_states(qubit(0), cat(ALPHA, 1, NMAX))
    out = dispersive_rotation(state, dc, np.pi)
    assert fidelity(out, state) >= 1 - 1e-10


def test_dispersive_validation():
    with pytest.raises(ValueError):
        DispersiveCoupling(g=1.0, delta=0.0)
    with pytest.raises(LayoutError):
        dispersive_rotation(coherent(ALPHA, NMAX), DispersiveCoupling(1.0, 1.0), 0.1)


# ----------------------------------------------------------- encode/decode

def pair_state(a: complex, b: complex) -> StateVector:
    amps = np.zeros(4 * SPEC.dim, dtype=complex)
    amps[0] = a
    amps[3 * SPEC.dim] = b
    return StateVector.from_amplitudes(amps, SubsystemLayout((2, 2, SPEC.dim)))


def test_encode_unitary_is_unitary():
    u = encode_unitary(SPEC)
    assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12


def test_encode_bell_reaches_chain():
    enc = encode(pair_state(2**-0.5, 2**-0.5), SPEC)
    want = np.zeros(4 * SPEC.dim, dtype=complex)
    want[: 2 * SPEC.dim] = chain_state(SPEC, 1).amplitudes
    target = StateVector(want, SubsystemLayout((2, 2, SPEC.dim)))
    assert fidelity(enc, target) >= 1 - 1e-8


def test_encode_basis_branch_exact():
    enc = encode(pair_state(1.0, 0.0), SPEC)
    want = np.zeros(4 * SPEC.dim, dtype=complex)
    want[: SPEC.dim] = cat_column(ALPHA, 1, NMAX)
    assert np.allclose(enc.amplitudes, want, atol=1e-12)


def test_decode_round_trip_random_code_states():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = pair_state(a, b)
        back = decode(encode(psi, SPEC), SPEC)
        assert fidelity(back, psi) >= 1 - 1e-8


def test_encode_rejects_noncode_input():
    amps = np.zeros(4 * SPEC.dim, dtype=complex)
    amps[SPEC.dim] = 1.0  # |0,1,vac>
    with pytest.raises(CodeSubspaceError):
        encode(StateVector(amps, SubsystemLayout((2, 2, SPEC.dim))), SPEC)


# ------------------------------------------------------------ chain growth

BELL = StateVector.from_amplitudes(np.array([1, 0, 0, 1], dtype=complex), SubsystemLayout((2, 2)))


def test_extend_from_bare_qubit_matches_encode():
    bare = StateVector.from_amplitudes(np.array([1, 1], dtype=complex), SubsystemLayout((2,)))
    out = extend_chain(bare, BELL, SPEC)
    assert fidelity(out, chain_state(SPEC, 1)) >= 1 - 1e-6


def test_extend_chain_one_to_two():
    c1 = chain_state(SPEC, 1)
    out = extend_chain(c1, BELL, SPEC)
    assert fidelity(out, chain_state(SPEC, 2)) >= 1 - 1e-6
    w0, w1, res = chain_weights(out, SPEC)
    assert abs(abs(w0) - 2**-0.5) < 1e-6 and abs(abs(w1) - 2**-0.5) < 1e-6
    assert res < 1e-10


def test_extend_chain_two_to_three_branch_overlap():
    out = extend_chain(chain_state(SPEC, 2), BELL, SPEC)
    per_cavity = abs(cat_overlap(ALPHA, 1j * ALPHA))
    assert per_cavity**3 <= (2 * np.exp(-4.0)) ** 3
    # the realized branches of the extended chain obey the same bound
    w0, w1, res = chain_weights(out, SPEC)
    assert res < 1e-6


def test_extend_chain_rejects_bad_bell():
    notbell = StateVector.from_amplitudes(np.array([1, 1, 0, 0], dtype=complex), SubsystemLayout((2, 2)))
    with pytest.raises(ChainFormError):
        extend_chain(chain_state(SPEC, 1), notbell, SPEC)


def test_extend_chain_rejects_malformed_chain():
    lost = apply_loss(chain_state(SPEC, 1), 0)
    with pytest.raises(ChainFormError):
        extend_chain(lost, BELL, SPEC)


# ------------------------------------------------------------------ parity

def test_parity_fresh_chain_even():
    c2 = chain_state(SPEC, 2)
    for j in (0, 1):
        out, _, p = parity_measure(c2, j)
        assert out == 1 and p == pytest.approx(1.0, abs=1e-6)


def test_parity_after_loss_is_odd_there_only():
    lost = apply_loss(chain_state(SPEC, 2), 1)
    out1, _, p1 = parity_measure(lost, 1)
    out0, _, p0 = parity_measure(lost, 0)
    assert (out1, out0) == (-1, 1)
    assert p1 == pytest.approx(1.0, abs=1e-6) and p0 == pytest.approx(1.0, abs=1e-6)


def test_parity_vacuum_even():
    state = tensor_states(qubit(0), vacuum(NMAX))
    out, _, p = parity_measure(state, 0)
    assert out == 1 and p == 1.0


def test_parity_is_qnd():
    lost = apply_loss(chain_state(SPEC, 1), 0)
    out1, st1, _ = parity_measure(lost, 0)
    out2, st2, p2 = parity_measure(st1, 0)
    assert out1 == out2 and p2 == pytest.approx(1.0, abs=1e-12)
    assert fidelity(st1, st2) == pytest.approx(1.0, abs=1e-12)


def test_parity_stochastic_needs_rng():
    state = tensor_states(qubit(0), coherent(ALPHA, NMAX))  # mixed parity
    with pytest.raises(ValueError):
        parity_measure(state, 0)
    out, _, p = parity_measure(state, 0, np.random.default_rng(0))
    assert out in (-1, 1) and 0 < p < 1


def test_parity_index_range():
    with pytest.raises(LayoutError):
        parity_measure(chain_state(SPEC, 1), 1)


# ------------------------------------------------------------ trajectories

def test_loss_trajectory_zero_kappa_is_identity():
    spec0 = CavitySpec(ALPHA, NMAX, kappa=0.0)
    rec = loss_trajectory(coherent(ALPHA, NMAX), 1.0, [spec0], 3)
    assert rec.jump_counts == (0,)
    assert fidelity(rec.final_state, coherent(ALPHA, NMAX)) == pytest.approx(1.0, abs=1e-12)


def test_loss_trajectory_poisson_mean():
    counts = [
        loss_trajectory(coherent(ALPHA, NMAX), 0.1, [SPEC], s).jump_counts[0]
        for s in range(3000)
    ]
    mean = np.mean(counts)
    se = np.std(counts) / np.sqrt(len(counts))
    expect = 4 * (1 - np.exp(-0.1))
    assert abs(mean - expect) < max(3 * se, 1e-3)


def test_loss_trajectory_ensemble_photon_decay():
    start = tensor_states(qubit(0), cat(ALPHA, 1, NMAX))
    n0 = mean_photon(cat(ALPHA, 1, NMAX))
    finals = []
    for s in range(2000):
        rec = loss_trajectory(start, 0.3, [SPEC], s)
        arr = rec.final_state.amplitudes.reshape(2, -1)
        nvec = np.arange(NMAX + 1)
        finals.append(float(np.sum(nvec * (np.abs(arr) ** 2).sum(axis=0))))
    mean = np.mean(finals)
    se = np.std(finals) / np.sqrt(len(finals))
    assert abs(mean - n0 * np.exp(-0.3)) < max(3 * se, 1e-6)


def test_single_jump_marks_parity():
    for s in range(50):
        rec = loss_trajectory(chain_state(SPEC, 2), 0.05, [SPEC, SPEC], s)
        if rec.jump_counts == (1, 0):
            out1, _, _ = parity_measure(rec.final_state, 0)
            out2, _, _ = parity_measure(rec.final_state, 1)
            assert (out1, out2) == (-1, 1)
            return
    pytest.skip("no (1,0)-jump trajectory in the scanned seeds")


def test_trajectory_determinism():
    a = loss_trajectory(chain_state(SPEC, 2), 0.2, [SPEC, SPEC], 123)
    b = loss_trajectory(chain_state(SPEC, 2), 0.2, [SPEC, SPEC], 123)
    assert a.jump_times == b.jump_times
    assert fidelity(a.final_state, b.final_state) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- recovery

def test_recovery_matrix_is_partial_isometry():
    decayed = ALPHA * np.exp(-0.025)
    r = recovery_matrix(SPEC, decayed)
    src = np.stack(
        cat_code._lowdin([cat_column(decayed, -1, NMAX), cat_column(1j * decayed, -1, NMAX)]),
        axis=1,
    )
    tgt = np.stack(
        cat_code._lowdin([cat_column(ALPHA, 1, NMAX), -1j * cat_column(1j * ALPHA, 1, NMAX)]),
        axis=1,
    )
    # r^dagger r is the projector onto span{s0, s1}; r carries the sources onto the targets
    assert np.max(np.abs(r.conj().T @ r - src @ src.conj().T)) < 1e-12
    assert np.max(np.abs(r @ src - tgt)) < 1e-12
    # on the code space it is the Gram-Schmidt-completed unitary the route used before
    assert np.max(np.abs(r @ src - recovery_unitary(SPEC, decayed) @ src)) < 1e-12
    # whatever it acts on, the result has no odd amplitude at all
    lost = fc_apply_loss(fc_drift(factored_chain(SPEC, 1), 0.05), 0)
    rng = np.random.default_rng(5)
    for u in (*lost.table, rng.normal(size=NMAX + 1) + 1j):
        assert not (r @ u)[1::2].any()
    # memoised: the repeat call hands back the same read-only array
    assert recovery_matrix(SPEC, decayed) is r
    with pytest.raises(ValueError):
        r[0, 0] = 0.0


def test_gram_schmidt_completion_failure_is_convergence_error():
    fixed = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    with pytest.raises(ConvergenceError):
        _gram_schmidt_complete(fixed, 2)


def test_lowdin_dependent_columns_is_convergence_error():
    v = cat_column(ALPHA, 1, NMAX)
    with pytest.raises(ConvergenceError):
        cat_code._lowdin([v, v])


def test_failed_recovery_matrix_call_is_not_cached():
    # at |alpha| = 1e-4 both decayed odd cats are |1> up to O(alpha^4)
    before = recovery_matrix.cache_info()
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            recovery_matrix(SPEC, 1e-4)
    after = recovery_matrix.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 2


def test_repump_identity_on_clean_syndrome():
    c2 = chain_state(SPEC, 2)
    out = repump_correct(c2, [1, 1], SPEC, [ALPHA, ALPHA])
    assert fidelity(out, c2) == pytest.approx(1.0, abs=1e-12)


def test_one_loss_corrected_fidelity_bound():
    lost = apply_loss(chain_state(SPEC, 2), 1)
    drifted = no_jump_drift(lost, [SPEC.kappa, SPEC.kappa], 0.05)
    dec = ALPHA * np.exp(-SPEC.kappa * 0.05 / 2)
    fixed = repump_correct(drifted, [1, -1], SPEC, [dec, dec])
    assert logical_fidelity(fixed, SPEC) >= 1 - 10 * np.exp(-2 * ALPHA**2)


def test_repump_syndrome_length_checked():
    with pytest.raises(LayoutError):
        repump_correct(chain_state(SPEC, 2), [1], SPEC, [ALPHA, ALPHA])


def test_truncation_stability_of_reported_fidelity():
    # doubling the cutoff must not move the headline fidelity
    vals = []
    for n_max in (NMAX, 2 * NMAX):
        spec = CavitySpec(ALPHA, n_max, kappa=1.0)
        lost = apply_loss(chain_state(spec, 1), 0)
        drifted = no_jump_drift(lost, [spec.kappa], 0.05)
        dec = ALPHA * np.exp(-spec.kappa * 0.05 / 2)
        fixed = repump_correct(drifted, [-1], spec, [dec])
        vals.append(logical_fidelity(fixed, spec))
    assert abs(vals[0] - vals[1]) <= 1e-8


# ------------------------------------------------------ factored chain ops

def test_factored_matches_dense_route():
    fc = factored_chain(SPEC, 2)
    full = chain_state(SPEC, 2)
    assert fidelity(fc.state_vector(), full) == pytest.approx(1.0, abs=1e-12)

    fc = fc_drift(fc, 0.07)
    full = no_jump_drift(full, [SPEC.kappa, SPEC.kappa], 0.07)
    assert fidelity(fc.state_vector(), full) == pytest.approx(1.0, abs=1e-11)

    fc = fc_apply_loss(fc, 1)
    full = apply_loss(full, 1)
    assert fidelity(fc.state_vector(), full) == pytest.approx(1.0, abs=1e-11)

    p_fc = fc_parity_probability(fc, 1)
    out, full, p_full = parity_measure(full, 1)
    assert out == -1 and abs(p_fc - (1 - p_full)) < 1e-10
    fc = fc_project_parity(fc, 1, out)
    assert fidelity(fc.state_vector(), full) == pytest.approx(1.0, abs=1e-11)

    dec = ALPHA * np.exp(-SPEC.kappa * 0.07 / 2)
    fc = fc_repump(fc, 1, dec)
    full = repump_correct(full, [1, -1], SPEC, [dec, dec])
    assert fidelity(fc.state_vector(), full) == pytest.approx(1.0, abs=1e-11)
    assert abs(fc.logical_fidelity() - logical_fidelity(full, SPEC)) < 1e-10


def test_protected_run_records_are_consistent():
    prefix = start_protected(SPEC, 2, 4, 0.05, 7)
    res_c = run_protected(prefix, correct=True)
    res_u = run_protected(prefix, correct=False)
    res_c.record.validate(restored_each_round=True)
    res_u.record.validate(restored_each_round=False)
    # identical random streams: the paired arms see the same jump history
    assert res_c.record.jump_times == res_u.record.jump_times
    assert res_c.final_logical_fidelity >= res_u.final_logical_fidelity - 1e-12


def test_record_validation_catches_tampering():
    res = run_protected(start_protected(SPEC, 1, 4, 0.05, 11), correct=True)
    rec = res.record
    if all(len(j) == 0 for j in rec.jump_times):
        flipped = tuple((-o[0],) + o[1:] for o in rec.parity_outcomes)
        bad = TrajectoryRecord(
            rec.jump_times, flipped, rec.measurement_times, rec.seed, rec.final_state
        )
        with pytest.raises(ValueError):
            bad.validate()
    else:
        stripped = tuple((() if len(j) else j) for j in rec.jump_times)
        bad = TrajectoryRecord(
            stripped, rec.parity_outcomes, rec.measurement_times, rec.seed, rec.final_state
        )
        with pytest.raises(ValueError):
            bad.validate(restored_each_round=True)


def _outcomes_round_by_round(jumps, meas_times, restored, outcomes=None):
    """Each round's parity from the jumps at prev < t <= t_meas, counted anew
    per round; with ``outcomes``, whether those pass the record check."""
    got, prev, base = [], 0.0, 1
    for i, t_meas in enumerate(meas_times):
        out = base * (-1) ** sum(1 for t in jumps if prev < t <= t_meas)
        if outcomes is not None and outcomes[i] != out:
            return False
        got.append(out)
        base = 1 if restored else out
        prev = t_meas
    return tuple(got) if outcomes is None else True


_TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(-1.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(
    jumps=st.lists(st.lists(_TIMES, max_size=6), min_size=1, max_size=3),
    meas_times=st.lists(_TIMES, min_size=1, max_size=5),
    restored=st.booleans(),
    flip=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 4))),
)
def test_record_check_counts_each_round_as_a_round_by_round_count(
    jumps, meas_times, restored, flip
):
    """Jumps sorted once and bisected per round give each round's count, also
    for unsorted jumps, jumps at 0 or on a round's end, and unordered rounds."""
    outcomes = [list(_outcomes_round_by_round(js, meas_times, restored)) for js in jumps]
    if flip is not None:
        j, i = flip[0] % len(jumps), flip[1] % len(meas_times)
        outcomes[j][i] = -outcomes[j][i]
    rec = TrajectoryRecord(
        tuple(map(tuple, jumps)), tuple(map(tuple, outcomes)), tuple(meas_times), 0, None
    )
    if all(_outcomes_round_by_round(js, meas_times, restored, o) for js, o in zip(jumps, outcomes)):
        rec.validate(restored_each_round=restored)
    else:
        with pytest.raises(ValueError, match="inconsistent"):
            rec.validate(restored_each_round=restored)


def test_protection_gain_single_grid_point():
    diffs = []
    for s in range(300):
        prefix = start_protected(SPEC, 2, 1, 0.05, s)
        rc = run_protected(prefix, correct=True)
        ru = run_protected(prefix, correct=False)
        diffs.append(rc.final_logical_fidelity - ru.final_logical_fidelity)
    d = np.asarray(diffs)
    se = d.std(ddof=1) / np.sqrt(d.size)
    assert d.mean() > 0 and d.mean() / se > 3


def test_factored_chain_and_record_compare_by_identity():
    # field-wise == over array fields has no truth value; identity does
    a, b = factored_chain(SPEC, 2), factored_chain(SPEC, 2)
    assert a == a and a != b
    assert hash(a) == hash(a) != hash(b)
    rec = run_protected(start_protected(SPEC, 2, 2, 0.05, 3)).record
    same = TrajectoryRecord(
        rec.jump_times, rec.parity_outcomes, rec.measurement_times, rec.seed, rec.final_state
    )
    assert rec == same and hash(rec) == hash(same)
    other = run_protected(start_protected(SPEC, 2, 2, 0.05, 3)).record
    assert rec != other


def test_protected_scales_to_seven_cavities():
    res = run_protected(start_protected(SPEC, 7, 2, 0.05, 42), correct=True)
    assert 0.5 < res.final_logical_fidelity <= 1.0
    assert isinstance(res.record.final_state, FactoredChain)


def _trajectory(res):
    rec = res.record
    return (
        rec.jump_times, rec.parity_outcomes, rec.measurement_times, rec.seed,
        res.corrected, res.final_logical_fidelity,
    )


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, 7),
    kappa=st.sampled_from([0.0, 1.0, 8.0]),
    rounds=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    first=st.booleans(),
)
def test_shared_pair_prefix_matches_unshared_runs(k, kappa, rounds, seed, first):
    """Runs from one shared prefix equal runs from t = 0, in either order.

    From one ``start_protected`` prefix, three runs (``first``, then the
    other arm, then ``first`` again) each equal the masking oracle's run
    from t = 0 bit for bit, and the prefix compares equal before and after
    them.  The oracle ends its rounds on the float sum of the intervals
    and the package on the round count, so the two stops agree too.  An
    ``np.int64`` seed and round count run as the ints, and the record
    holds the int seed."""
    spec = CavitySpec(ALPHA, NMAX, kappa=kappa)
    interval = 0.05
    args = (spec, k, rounds, interval)
    ref = {c: _trajectory(run_protected_unshared(*args, seed, correct=c)) for c in (True, False)}
    prefix = start_protected(*args, seed)
    before = prefix._replace(rng_state=copy.deepcopy(prefix.rng_state))
    table = prefix.record.final_state.table.tobytes()
    for c in (first, not first, first):
        assert _trajectory(run_protected(prefix, correct=c)) == ref[c]
    assert prefix == before and prefix.record.final_state.table.tobytes() == table
    wide = start_protected(spec, k, np.int64(rounds), interval, np.int64(seed))
    for c in (True, False):
        got = _trajectory(run_protected(wide, correct=c))
        assert got == ref[c] and type(got[3]) is int


def test_run_after_a_prefix_of_every_round_builds_no_generator(monkeypatch):
    """No draw is left after such a prefix: the runs build no generator and
    still equal the unshared ones, the corrected arm's last repump included."""
    args = (SPEC, 2, 1, 0.5)
    seeds = range(12)
    ref = {(s, c): _trajectory(run_protected_unshared(*args, s, correct=c))
           for s in seeds for c in (True, False)}
    prefixes = {s: start_protected(*args, s) for s in seeds}
    assert any(-1 in o for p in prefixes.values() for o in p.record.parity_outcomes)

    def refuse(*args, **kwargs):
        raise AssertionError("a run with no round left built a generator")

    monkeypatch.setattr(cat_code.np.random, "default_rng", refuse)
    for (s, c), want in ref.items():
        assert len(prefixes[s].record.measurement_times) == 1
        assert _trajectory(run_protected(prefixes[s], correct=c)) == want


def _module_state() -> dict:
    """A deep copy of every module-level dict, list and set of the storage
    and runner modules."""
    return {
        (mod.__name__, name): copy.deepcopy(value)
        for mod in (cat_code, runner)
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_storage_runs_leave_module_state_unchanged():
    """A lone run and a ``protect`` pair leave no trace in module state: a
    pair shares its prefix as a value, not through a module-level store."""
    spec = CavitySpec(ALPHA, NMAX, kappa=8.0)
    before = _module_state()
    run_protected(start_protected(spec, 3, 4, 0.05, 7), correct=True)
    runner._protect_pair((spec, 3, 4, 0.05, 8))
    assert _module_state() == before


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 7),
    kappa_t=st.sampled_from([0.05, 0.4, 0.8, 1.5]),
    rounds=st.integers(1, 4),
    correct=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_trajectory_columns_keep_definite_parity(k, kappa_t, rounds, correct, seed):
    """At every parity read of a trajectory, each table column has even or odd
    amplitude but never both, each cavity's parity field is its columns'
    parity, and the read's probability is exactly 0 or 1."""
    interval = 0.05
    spec = CavitySpec(ALPHA, NMAX, kappa=kappa_t / (interval * rounds))
    real = cat_code.fc_parity_probability
    reads = []

    def checked(fc, j):
        for c in fc.table:
            assert not (c[::2].any() and c[1::2].any())
        _assert_parity_field(fc)
        p = real(fc, j)
        reads.append(p)
        return p

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat_code, "fc_parity_probability", checked)
        run_protected(start_protected(spec, k, rounds, interval, seed), correct=correct)
    assert len(reads) == k * rounds
    assert set(reads) <= {0.0, 1.0}


@pytest.mark.parametrize("rounds", [10, 1000])
def test_run_makes_one_measurement_per_round(rounds):
    """``rounds`` intervals of 0.1 sum to ``rounds * 0.1`` only to rounding;
    the run still ends after exactly ``rounds`` syndrome rounds."""
    args = (CavitySpec(ALPHA, NMAX, kappa=0.01), 1, rounds, 0.1, 3)
    for res in (run_protected(start_protected(*args)), run_protected_unshared(*args)):
        times = res.record.measurement_times
        assert len(times) == rounds
        assert abs(times[-1] - rounds * 0.1) <= 1e-9


@pytest.mark.parametrize(
    "rounds, interval",
    [(4, 0.0), (4, -0.05), (-1, 0.05), (2.5, 0.05), (float("nan"), 0.05)],
    ids=["zero_interval", "negative_interval", "negative_rounds", "fractional_rounds", "nan_rounds"],
)
def test_start_protected_rejects_bad_schedule(rounds, interval):
    """A run is a whole number of rounds of positive length.  The round
    loop stops on its count of rounds run, which never equals -1 or 2.5:
    unchecked, such a count would run zero-length rounds without end."""
    with pytest.raises(ValueError):
        start_protected(SPEC, 2, rounds, interval, 3)


def _assert_same_chain(a, b):
    assert (a.weight0, a.weight1) == (b.weight0, b.weight1)
    assert a.sq_norms == b.sq_norms
    assert a.parity == b.parity
    assert np.array_equal(a.table, b.table)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 4),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("drift"), st.floats(0.0, 0.3)),
            st.tuples(st.just("loss"), st.integers(0, 3)),
        ),
        max_size=8,
    ),
)
def test_parity_projection_skips_exact_parity_columns(k, ops):
    """Drift and loss keep parity exactly, so every projection is the chain itself."""
    fc = factored_chain(SPEC, k)
    for op, arg in ops:
        fc = fc_drift(fc, arg) if op == "drift" else fc_apply_loss(fc, arg % k)
    for j in range(k):
        p_even = fc_parity_probability(fc, j)
        assert p_even in (0.0, 1.0)
        outcome = 1 if p_even == 1.0 else -1
        assert fc_project_parity(fc, j, outcome) is fc
        _assert_same_chain(fc, project_parity_full(fc, j, outcome))


@pytest.mark.parametrize("drift", [0.01, 0.05])
def test_repump_leaves_exact_even_columns(drift):
    """The code-space repump leaves no odd residue: the next parity read is
    certain and its projection is the chain itself."""
    fc = fc_apply_loss(fc_drift(factored_chain(SPEC, 3), drift), 1)
    assert fc_parity_probability(fc, 1) == 0.0
    assert fc_project_parity(fc, 1, -1) is fc
    fc = fc_repump(fc, 1, ALPHA * np.exp(-SPEC.kappa * drift / 2))
    assert not fc.table[1][1::2].any() and not fc.table[fc.k + 1][1::2].any()
    assert fc.parity[1] == 1 and fc_parity_probability(fc, 1) == 1.0
    assert fc_project_parity(fc, 1, 1) is fc


# ------------------------------------------- factored chain bookkeeping

# From-scratch evaluations: every column norm recomputed, dense annihilation.

def _sq(c):
    return float(cat_code._sq_norms(c))


def _scratch_norm_squared(fc, b0=None, b1=None):
    b0 = branch_columns(fc)[0] if b0 is None else b0
    b1 = branch_columns(fc)[1] if b1 is None else b1
    return abs(fc.weight0) ** 2 * np.prod([_sq(u) for u in b0]) + abs(
        fc.weight1
    ) ** 2 * np.prod([_sq(v) for v in b1])


def _scratch_flux(fc):
    a = annihilation(fc.spec.dim)
    n2 = _scratch_norm_squared(fc)
    flux = np.empty(fc.k)
    for j in range(fc.k):
        b0, b1 = map(list, branch_columns(fc))
        b0[j], b1[j] = a @ b0[j], a @ b1[j]
        flux[j] = fc.spec.kappa * _scratch_norm_squared(fc, b0, b1) / n2
    return flux


def _scratch_ratio_flux(fc):
    """The package's flux formula on per-cavity columns with fresh norms:
    each branch weight times lowered weight over norm, zero branches left out."""
    n = np.repeat(np.arange(fc.spec.dim, dtype=float), 2)

    def lowered(c):
        x = c.view(np.float64)
        return float((x * x * n).sum())

    branch0, branch1 = branch_columns(fc)
    b0 = abs(fc.weight0) ** 2 * math.prod([_sq(u) for u in branch0])
    b1 = abs(fc.weight1) ** 2 * math.prod([_sq(v) for v in branch1])
    flux = np.zeros(fc.k)
    for b, cols in ((b0, branch0), (b1, branch1)):
        if b:
            flux += b * np.array([lowered(c) for c in cols]) / np.array([_sq(c) for c in cols])
    return fc.spec.kappa * flux / (b0 + b1)


def _scratch_parity_probability(fc, j):
    even = np.arange(fc.spec.dim) % 2 == 0
    branch0, branch1 = branch_columns(fc)
    p0 = abs(fc.weight0) ** 2 * np.prod([_sq(u) for i, u in enumerate(branch0) if i != j])
    p1 = abs(fc.weight1) ** 2 * np.prod([_sq(v) for i, v in enumerate(branch1) if i != j])
    w = p0 * _sq(branch0[j][even]) + p1 * _sq(branch1[j][even])
    return float(w / _scratch_norm_squared(fc))


def _parity_code(c):
    """+1 without odd amplitude, -1 without even amplitude, 0 with both."""
    return 1 if not c[1::2].any() else (-1 if not c[::2].any() else 0)


def _survival(fc):
    """The package's survival function of a chain, on work arrays of its own."""
    scratch = cat_code._survival_scratch(fc.k, fc.spec.dim)
    return cat_code._fc_survival(fc.table, fc.weight0, fc.weight1, fc.spec.kappa, scratch)


def _flux(fc):
    """The package's jump flux of a chain, as Python floats."""
    return cat_code._jump_flux(fc.table, fc.weight0, fc.weight1, list(fc.sq_norms), fc.spec.kappa)


def _scratch_survival(fc, tau):
    decay = np.exp(-fc.spec.kappa * tau * np.arange(fc.spec.dim))
    branch0, branch1 = branch_columns(fc)
    p0 = abs(fc.weight0) ** 2 * np.prod([float(np.sum(np.abs(u) ** 2 * decay)) for u in branch0])
    p1 = abs(fc.weight1) ** 2 * np.prod([float(np.sum(np.abs(v) ** 2 * decay)) for v in branch1])
    return float(p0 + p1)


def _ops(max_cavity):
    return st.one_of(
        st.tuples(st.just("drift"), st.floats(0.0, 0.3)),
        st.tuples(st.just("loss"), st.integers(0, max_cavity)),
        st.tuples(st.just("parity"), st.integers(0, max_cavity), st.booleans()),
        st.tuples(
            st.just("repump"), st.integers(0, max_cavity),
            st.sampled_from([0.0, 0.01, 0.025, 0.05]),
        ),
    )


def _apply_op(fc, op):
    """One drift, loss, parity projection or repump; cavity indices wrap at k."""
    if op[0] == "drift":
        return fc_drift(fc, op[1])
    j = op[1] % fc.k
    if op[0] == "loss":
        return fc_apply_loss(fc, j)
    if op[0] == "parity":
        p_even = fc_parity_probability(fc, j)
        outcome = 1 if op[2] else -1
        if (p_even if outcome == 1 else 1 - p_even) < 1e-6:
            outcome = -outcome
        return fc_project_parity(fc, j, outcome)
    # the protocol repumps only a cavity that read -1: lose a photon first
    if fc_parity_probability(fc, j) == 1.0:
        fc = fc_apply_loss(fc, j)
    return fc_repump(fc, j, ALPHA * np.exp(-op[2]))


def _assert_parity_field(fc):
    """Each cavity's parity field is the scanned parity of both of its rows."""
    assert len(fc.parity) == fc.k
    for j in range(fc.k):
        got = (_parity_code(fc.table[j]), _parity_code(fc.table[fc.k + j]))
        assert got == (fc.parity[j], fc.parity[j])


def _assert_table(fc):
    """The table is one read-only C-ordered (2k, d) array, the stored norms
    are its rows' norms bit for bit, the parity field matches the rows, and
    the chain holds its six dataclass fields and nothing else."""
    assert fc.table.shape == (2 * fc.k, fc.spec.dim) and fc.table.flags.c_contiguous
    assert not fc.table.flags.writeable
    assert fc.sq_norms == tuple(cat_code._sq_norms(fc.table).tolist())
    _assert_parity_field(fc)
    fields = [f.name for f in dataclasses.fields(FactoredChain)]
    assert fields == ["weight0", "weight1", "spec", "table", "sq_norms", "parity"]
    assert set(vars(fc)) == set(fields)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), ops=st.lists(_ops(3), min_size=1, max_size=12))
def test_factored_chain_stored_norms_track_columns(k, ops):
    fc = factored_chain(SPEC, k)
    for op in ops:
        if op[0] == "repump":
            decayed = ALPHA * np.exp(-op[2])
            r = recovery_matrix(SPEC, decayed)
            assert np.max(np.abs(r @ r.conj().T @ r - r)) < 1e-12
            assert not r[1::2].any()
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0, 0] = 1.0
            assert recovery_matrix(SPEC, decayed) is r
        fc = _apply_op(fc, op)
        _assert_table(fc)
        assert fc.sq_norms == tuple(_sq(c) for c in fc.table)
        assert abs(fc.normalized().norm_squared() - 1.0) <= 1e-12
        # the incremental arithmetic repeats a from-scratch evaluation bit for bit
        assert fc.norm_squared() == _scratch_norm_squared(fc)
        for j in range(k):
            # one parity: the read is certain, the weight ratio is 1 to rounding
            got, scratch = fc_parity_probability(fc, j), _scratch_parity_probability(fc, j)
            assert got == (1.0 if fc.parity[j] == 1 else 0.0) and abs(got - scratch) <= 1e-15
        # each flux is a ratio to the stored norm: bit for bit with fresh
        # norms, and the dense product over the other norms to rounding
        flux = fc_jump_flux(fc)
        assert np.array_equal(flux, _scratch_ratio_flux(fc))
        assert np.allclose(flux, _scratch_flux(fc), rtol=1e-14, atol=0)
        assert _flux(fc) == flux.tolist()
        survival, allocating = _survival(fc), fc_survival(fc)
        for tau in (0.0, 0.01, 0.2):
            assert survival(tau) == _scratch_survival(fc, tau) == allocating(tau)
        _assert_table(fc)


def _emptied_branch_chain():
    """Cavity 0 holds a zero column on branch 0 and an odd cat on branch 1,
    so branch 0 has weight zero; cavity 1 holds the code columns."""
    plus, rot = cat_code._code_columns(ALPHA, NMAX)
    odd = cat_column(1j * ALPHA, -1, NMAX)
    fc = chain_from_columns(2**-0.5, 2**-0.5, (np.zeros(NMAX + 1), plus), (odd, rot), SPEC)
    assert fc.parity == (-1, 1) and fc.sq_norms[0] == 0.0 and fc.sq_norms[2] > 0
    return fc


def test_jump_flux_leaves_out_an_emptied_branch():
    fc = _emptied_branch_chain()
    flux = fc_jump_flux(fc)
    assert np.isfinite(flux).all() and (flux > 0).all()
    assert np.array_equal(flux, _scratch_ratio_flux(fc))
    assert np.allclose(flux, _scratch_flux(fc), rtol=1e-14, atol=0)
    assert _flux(fc) == flux.tolist()
    assert cat_code._jump_cavity(_flux(fc), 0.5) == jump_cavity_numpy(flux, 0.5) in (0, 1)


def test_repump_rejects_even_amplitude():
    fc = fc_drift(factored_chain(SPEC, 2), 0.05)
    decayed = ALPHA * np.exp(-SPEC.kappa * 0.05 / 2)
    with pytest.raises(ValueError, match="even amplitude"):
        fc_repump(fc, 0, decayed)
    emptied = _emptied_branch_chain()
    with pytest.raises(ValueError, match="even amplitude"):
        fc_repump(emptied, 1, decayed)
    # an odd column with a zero partner is repumped: the zero column stays zero
    got = fc_repump(emptied, 0, ALPHA)
    assert not got.table[0].any() and not got.table[got.k][1::2].any()
    # and a lost cavity, the protocol's case, is
    assert fc_parity_probability(fc_repump(fc_apply_loss(fc, 0), 0, decayed), 0) == 1.0


def test_repump_refuses_a_cavity_of_parity_plus_one():
    """Drifted, repumped and twice-lost cavities all have parity +1: none is repumped."""
    fc = fc_drift(factored_chain(SPEC, 3), 0.05)
    fc = fc_repump(fc_apply_loss(fc, 1), 1, ALPHA * np.exp(-SPEC.kappa * 0.05 / 2))
    fc = fc_apply_loss(fc_apply_loss(fc, 2), 2)
    assert fc.parity == (1, 1, 1)
    for j in range(3):
        with pytest.raises(ValueError, match="even amplitude"):
            fc_repump(fc, j, ALPHA)


def test_projection_onto_a_parity_the_cavity_lacks_is_null_state():
    """That outcome has probability zero; the masking oracle leaves no amplitude either."""
    lost = fc_apply_loss(fc_drift(factored_chain(SPEC, 3), 0.05), 1)
    for fc, j, lacking in ((lost, 0, -1), (lost, 1, 1), (_emptied_branch_chain(), 0, 1)):
        assert fc_parity_probability(fc, j) == (1.0 if lacking == -1 else 0.0)
        with pytest.raises(NullStateError):
            fc_project_parity(fc, j, lacking)
        with pytest.raises(NullStateError):
            project_parity_full(fc, j, lacking)


def test_chain_from_columns_refuses_mixed_or_disagreeing_cavities():
    plus, rot = cat_code._code_columns(ALPHA, NMAX)
    odd = cat_column(ALPHA, -1, NMAX)
    mixed = coherent_column(ALPHA, NMAX)
    for b0, b1 in (((plus,), (odd,)), ((mixed,), (mixed,)), ((plus, mixed), (rot, rot))):
        with pytest.raises(ValueError, match="no common parity"):
            chain_from_columns(2**-0.5, 2**-0.5, b0, b1, SPEC)
    # the branch-0 columns, then the branch-1 columns, in cavity order
    fc = chain_from_columns(2**-0.5, 2**-0.5, (plus, odd), (rot, odd), SPEC)
    assert fc.parity == (1, -1) and np.array_equal(fc.table, np.stack([plus, odd, rot, odd]))


def _one_copy_per_cavity(fc):
    b0, b1 = branch_columns(fc)
    return chain_from_columns(
        fc.weight0, fc.weight1, [u.copy() for u in b0], [v.copy() for v in b1], fc.spec
    )


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 9), ops=st.lists(_ops(8), min_size=1, max_size=12))
def test_chain_matches_one_built_from_copied_columns(k, ops):
    """A chain evolves as one the oracle builds from copies of its columns, bit for bit."""
    fc = factored_chain(SPEC, k)
    plus, rot = cat_code._code_columns(SPEC.alpha, SPEC.n_max)
    # a fresh chain's rows are the code columns: k of |C_a+>, then k of |C_ia+>
    assert np.array_equal(fc.table, np.stack([plus] * k + [rot] * k))
    copied = _one_copy_per_cavity(fc)
    for op in ops:
        prev, prev_copied = fc, copied
        before = (prev.table.tobytes(), prev_copied.table.tobytes())
        fc, copied = _apply_op(fc, op), _apply_op(copied, op)
        # no operation writes its source's table in place
        assert (prev.table.tobytes(), prev_copied.table.tobytes()) == before
        assert not fc.table.flags.writeable and not copied.table.flags.writeable
        _assert_same_chain(fc, copied)
        _assert_table(fc)
        assert _flux(fc) == _flux(copied)
        assert _survival(fc)(0.05) == _survival(copied)(0.05)
        for c in fc.table:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0] = 0.0


def _same_segment(fc, duration, seed, t_offset):
    """The fused segment and the op-by-op loop from one chain and seed: the
    same jumps, chain bytes and generator state; the source is not written."""
    before = fc.table.tobytes()
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_jumps = fc_loss_segment(fc, duration, rngs[0], t_offset)
    want, want_jumps = loss_segment_by_ops(fc, duration, rngs[1], t_offset)
    assert fc.table.tobytes() == before
    assert got_jumps == want_jumps
    assert got.table.tobytes() == want.table.tobytes()
    assert np.array([got.weight0, got.weight1]).tobytes() == np.array(
        [want.weight0, want.weight1]
    ).tobytes()
    assert got.sq_norms == want.sq_norms and got.parity == want.parity
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    _assert_table(got)
    return got_jumps


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 9),
    ops=st.lists(_ops(8), max_size=6),
    kappa=st.sampled_from([1.0, 25000.0, 1e6]),
    kappa_t=st.floats(0.0, 1.0),
    t_offset=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_loss_segment_matches_the_op_by_op_loop(k, ops, kappa, kappa_t, t_offset, seed):
    """Bit for bit, on chains of 1 to 9 cavities: from 8 cavities on, numpy
    sums the flux pairwise, and the fused draw must keep that order."""
    fc = factored_chain(SPEC, k)
    for op in ops:
        fc = _apply_op(fc, op)
    fc = dataclasses.replace(fc, spec=CavitySpec(ALPHA, NMAX, kappa=kappa))
    _same_segment(fc, kappa_t / kappa, seed, t_offset)


@pytest.mark.parametrize("k", [1, 7, 8, 9])
def test_fused_loss_segment_matches_the_op_by_op_loop_through_jumps(k):
    """Seeded segments long enough for several jumps each."""
    spec = CavitySpec(ALPHA, NMAX, kappa=25000.0)
    jumps = [_same_segment(factored_chain(spec, k), 4e-5, seed, 1e-6) for seed in range(12)]
    assert sum(len(js) for run in jumps for js in run) >= 12 * k


@settings(max_examples=200, deadline=None)
@given(
    re=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    im=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    log_scale=st.floats(-150.0, 150.0),
    stride=st.integers(1, 3),
)
def test_sq_norms_of_table_rows_equal_single_columns(re, im, log_scale, stride):
    """A table row's squared norm is its column's alone, bit for bit, and is
    numpy's squared norm to rounding."""
    size = min(len(re), len(im))
    col = (np.array(re[:size]) + 1j * np.array(im[:size])) * 10.0**log_scale
    for c in (col, col[::stride]):
        table = np.stack([c, 2 * c, c[::-1], np.conj(c)])
        rows = cat_code._sq_norms(table)
        assert rows.tolist() == [float(cat_code._sq_norms(r)) for r in table]
        assert float(cat_code._sq_norms(c)) == rows[0]
        assert abs(rows[0] - np.linalg.norm(c) ** 2) <= 1e-14 * np.linalg.norm(c) ** 2


@settings(max_examples=200, deadline=None)
@given(
    flux=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=1, max_size=9
    ).filter(any),
    seed=st.integers(0, 2**63 - 1),
)
def test_jump_cavity_matches_numpy_choice(flux, seed):
    array = np.array(flux)
    want = np.random.default_rng(seed).choice(len(flux), p=array / array.sum())
    u = np.random.default_rng(seed).random()
    assert cat_code._jump_cavity(flux, u) == jump_cavity_numpy(array, u) == want


@settings(max_examples=200, deadline=None)
@given(flux=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=9))
def test_jump_cavity_matches_numpy_at_every_step_of_its_distribution(flux):
    """Draws on and just below each cumulative share: a last-bit change in
    the total or a share moves the index at one of them."""
    array = np.array(flux)
    cdf = (array / array.sum()).cumsum()
    cdf /= cdf[-1]
    for step in cdf[:-1].tolist():
        for u in (step, math.nextafter(step, 0.0)):
            assert cat_code._jump_cavity(flux, u) == jump_cavity_numpy(array, u)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e300, 1e300)), max_size=300
    )
)
def test_pairwise_sum_is_numpy_sum_bit_for_bit(values):
    """numpy sums 8 or more entries pairwise; the scalar total keeps its order."""
    got, want = cat_code._pairwise_sum(values), np.array(values, dtype=float).sum()
    assert np.float64(got).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "flux", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], [-1e-300, 1.0], [1e308, 1e308]]
)
def test_jump_flux_that_is_no_distribution_is_convergence_error(flux):
    with pytest.raises(ConvergenceError, match="not a distribution"):
        cat_code._jump_cavity(flux, 0.5)
    with pytest.raises(ConvergenceError, match="not a distribution"):
        jump_cavity_numpy(np.array(flux), 0.5)


# ------------------------------------------------------------- Brent root

@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(-2.0, 2.0)), min_size=1, max_size=6),
    horizon=st.floats(0.01, 5.0),
    level=st.floats(0.0, 1.0, exclude_max=True),
    tols=st.sampled_from([(1e-16, 1e-14), (2e-12, 4 * np.finfo(float).eps), (1e-6, 1e-6)]),
)
@example(terms=[(1.0, 2.0)], horizon=4.0, level=4.8e-166, tols=(1e-16, 1e-14))
@example(
    terms=[(0.7546439986487252, 0.0), (0.03125, 0.0), (0.5, 0.0), (0.03125, 0.0), (0.03125, 0.0)],
    horizon=1.0,
    level=0.9999999999999999,
    tols=(1e-16, 1e-14),
)
def test_brentq_matches_scipy_on_survival_functions(terms, horizon, level, tols):
    """Decreasing sums of exponentials, the shape of every jump-time root.

    The first example's values near the root are ~1e-166, so a step's
    denominator underflows to zero; C then gets inf and bisects.  In the
    second the normalised weights sum to 1 - 2^-52, so r must stay below
    survival(0.0), not below 1.0, for the bracket to change sign."""
    weights = np.array([w for w, _ in terms])
    weights /= weights.sum()
    rates = np.array([10.0**lg for _, lg in terms])

    def survival(x):
        return float(np.sum(weights * np.exp(-rates * x)))

    r = survival(horizon) + level * (1.0 - survival(horizon))
    assume(survival(horizon) < r < survival(0.0))

    def f(x):
        return survival(x) - r

    assert cat_code.brentq(f, 0.0, horizon, *tols) == scipy_brentq(
        f, 0.0, horizon, xtol=tols[0], rtol=tols[1]
    )


def test_brentq_matches_scipy_on_chain_survival():
    rng = np.random.default_rng(5)
    fc = fc_apply_loss(fc_drift(factored_chain(SPEC, 3), 0.05), 1)
    fc = fc_repump(fc_project_parity(fc, 1, -1), 1, ALPHA * np.exp(-0.025))
    for chain in (factored_chain(SPEC, 1), factored_chain(SPEC, 7), fc.normalized()):
        survival = _survival(chain)
        for _ in range(20):
            remaining = float(rng.uniform(0.01, 0.5))
            r = float(rng.uniform(survival(remaining), 1.0))

            def f(x):
                return survival(x) - r

            assert cat_code.brentq(f, 0.0, remaining, 1e-16, 1e-14) == scipy_brentq(
                f, 0.0, remaining, xtol=1e-16, rtol=1e-14
            )


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    ops=st.lists(_ops(3), min_size=1, max_size=12),
    remaining=st.floats(0.01, 0.5),
    level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_log_space_jump_time_matches_scipy_on_the_linear_form(k, ops, remaining, level):
    """The jump-time root solves ln S = ln r; scipy's Brent on S - r has the
    same root, so the two lie within the sum of their tolerances."""
    fc = factored_chain(SPEC, k)
    for op in ops:
        fc = _apply_op(fc, op)
    survival = _survival(fc)
    at_end = survival(remaining)
    r = at_end + level * (1.0 - at_end)
    assume(at_end < r < survival(0.0))
    got = cat_code._jump_time(survival, remaining, at_end, r)
    want = scipy_brentq(lambda x: survival(x) - r, 0.0, remaining, xtol=1e-16, rtol=1e-14)
    assert abs(got - want) <= 2 * (1e-16 + 1e-14 * want)


def test_jump_time_of_an_underflowing_survival_is_finite():
    """Cavity 1 has lost a photon, so it has no vacuum amplitude, and at
    kappa tau = 1e4 the survival is 0.0: the log is clamped there, and the
    root is where S falls to r."""
    fc = fc_apply_loss(factored_chain(CavitySpec(ALPHA, NMAX, kappa=1e4), 3), 1)
    survival = _survival(fc)
    assert survival(1.0) == 0.0
    tau = cat_code._jump_time(survival, 1.0, 0.0, 0.5)
    want = scipy_brentq(lambda x: survival(x) - 0.5, 0.0, 1.0, xtol=1e-16, rtol=1e-14)
    assert abs(tau - want) <= 2 * (1e-16 + 1e-14 * want)


def test_brentq_same_sign_bracket_is_convergence_error():
    with pytest.raises(ConvergenceError, match="sign change"):
        cat_code.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)


def test_brentq_and_scipy_refuse_a_level_above_the_survival_at_zero():
    """Weights summing to 1 - 2^-52 and r = 1 - 2^-53: no sign change on [0, 1]."""
    weights = np.array([0.7546439986487252, 0.03125, 0.5, 0.03125, 0.03125])
    weights /= weights.sum()
    r = float(np.nextafter(1.0, 0.0))
    assert float(np.sum(weights)) < r < 1.0

    def f(x):
        return float(np.sum(weights * np.exp(-x))) - r

    with pytest.raises(ConvergenceError, match="sign change"):
        cat_code.brentq(f, 0.0, 1.0, 1e-16, 1e-14)
    with pytest.raises(ValueError, match="different signs"):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-16, rtol=1e-14)


def test_brentq_maxiter_exhaustion_is_convergence_error():
    def f(x):
        return math.exp(x) - 2.0

    with pytest.raises(ConvergenceError, match="3 iterations"):
        cat_code.brentq(f, 0.0, 10.0, 1e-16, 1e-14, maxiter=3)
    assert cat_code.brentq(f, 0.0, 10.0, 1e-16, 1e-14) == pytest.approx(math.log(2.0))


def test_brentq_nan_is_convergence_error():
    with pytest.raises(ConvergenceError, match="NaN"):
        cat_code.brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-12, 1e-12)
