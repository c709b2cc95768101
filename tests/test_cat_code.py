"""Cat-storage tests.

Overlap values are frozen from closed-form coherent-state algebra and
cross-checked against direct Fock sums; trajectory statistics are checked
against Poisson loss expectations; the factored chain engine is validated
against the dense state-vector route (the ``oracle_storage`` test module)
operation by operation; the in-module Brent root is checked bit for bit
against ``scipy.optimize.brentq``.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from entpipe import cat_code
from entpipe.cat_code import (
    CavitySpec,
    FactoredChain,
    TrajectoryRecord,
    cat_column,
    coherent_column,
    factored_chain,
    fc_apply_loss,
    fc_drift,
    fc_parity_probability,
    fc_project_parity,
    fc_repump,
    recovery_matrix,
    required_levels,
    run_protected,
)
from entpipe.errors import (
    ChainFormError,
    CodeSubspaceError,
    ConvergenceError,
    LayoutError,
    NullStateError,
    TruncationError,
)
from entpipe.hilbert import StateVector, SubsystemLayout, fidelity
from oracle_register import tensor_states
from oracle_storage import (
    DispersiveCoupling,
    annihilation,
    apply_loss,
    cat,
    cat_normalization,
    cat_overlap,
    chain_state,
    chain_weights,
    coherent,
    coherent_overlap,
    decode,
    dispersive_rotation,
    encode,
    encode_unitary,
    extend_chain,
    logical_fidelity,
    loss_trajectory,
    mean_photon,
    no_jump_drift,
    parity_measure,
    parity_operator,
    project_parity_full,
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

def test_recovery_matrix_unitary():
    r = recovery_matrix(SPEC, ALPHA * np.exp(-0.025))
    assert np.max(np.abs(r @ r.conj().T - np.eye(NMAX + 1))) < 1e-12
    # memoised: the repeat call hands back the same read-only array
    assert recovery_matrix(SPEC, ALPHA * np.exp(-0.025)) is r
    with pytest.raises(ValueError):
        r[0, 0] = 0.0


def test_gram_schmidt_completion_failure_is_convergence_error():
    fixed = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    with pytest.raises(ConvergenceError):
        cat_code._gram_schmidt_complete(fixed, 2)


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
    res_c = run_protected(SPEC, 2, 0.2, 0.05, 7, correct=True)
    res_u = run_protected(SPEC, 2, 0.2, 0.05, 7, correct=False)
    res_c.record.validate(restored_each_round=True)
    res_u.record.validate(restored_each_round=False)
    # identical random streams: the paired arms see the same jump history
    assert res_c.record.jump_times == res_u.record.jump_times
    assert res_c.final_logical_fidelity >= res_u.final_logical_fidelity - 1e-12


def test_record_validation_catches_tampering():
    res = run_protected(SPEC, 1, 0.2, 0.05, 11, correct=True)
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


def test_protection_gain_single_grid_point():
    diffs = []
    for s in range(300):
        rc = run_protected(SPEC, 2, 0.05, 0.05, s, correct=True)
        ru = run_protected(SPEC, 2, 0.05, 0.05, s, correct=False)
        diffs.append(rc.final_logical_fidelity - ru.final_logical_fidelity)
    d = np.asarray(diffs)
    se = d.std(ddof=1) / np.sqrt(d.size)
    assert d.mean() > 0 and d.mean() / se > 3


def test_factored_chain_and_record_compare_by_identity():
    # field-wise == over array fields has no truth value; identity does
    a, b = factored_chain(SPEC, 2), factored_chain(SPEC, 2)
    assert a == a and a != b
    assert hash(a) == hash(a) != hash(b)
    rec = run_protected(SPEC, 2, 0.1, 0.05, 3).record
    same = TrajectoryRecord(
        rec.jump_times, rec.parity_outcomes, rec.measurement_times, rec.seed, rec.final_state
    )
    assert rec == same and hash(rec) == hash(same)
    other = run_protected(SPEC, 2, 0.1, 0.05, 3).record
    assert rec != other


def test_protected_scales_to_seven_cavities():
    res = run_protected(SPEC, 7, 0.1, 0.05, 42, correct=True)
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
    rounds=st.integers(1, 3),
    frac=st.sampled_from([0.0, 0.37]),
    seed=st.integers(0, 2**32 - 1),
    first=st.booleans(),
)
def test_shared_pair_prefix_matches_unshared_runs(k, kappa, rounds, frac, seed, first):
    """Runs that resume from the fork memo equal independent runs, in either order.

    Of four calls with one key, the first and third run from t = 0 and
    store their fork point, the second and fourth resume from it.  A
    ``SeedSequence`` seed neither reads nor writes the memo."""
    spec = CavitySpec(ALPHA, NMAX, kappa=kappa)
    interval = 0.05
    args = (spec, k, interval * (rounds + frac), interval)
    ref = {c: _trajectory(run_protected_unshared(*args, seed, correct=c)) for c in (True, False)}
    key = args + (seed,)
    cat_code._FORK.clear()
    for i, c in enumerate((first, not first, first, first)):
        res = run_protected(*args, seed, correct=c)
        assert _trajectory(res) == ref[c]
        assert (key in cat_code._FORK) == (i % 2 == 0)
        assert len(cat_code._FORK) <= 1
    memo = list(cat_code._FORK.items())
    seq = np.random.SeedSequence(seed)
    for c in (first, not first):
        got = _trajectory(run_protected(*args, seq, correct=c))
        assert got == _trajectory(run_protected_unshared(*args, seq, correct=c))
    assert list(cat_code._FORK) == [key for key, _ in memo]
    assert all(cat_code._FORK[key] is entry for key, entry in memo)


def test_resumed_run_owns_its_chain():
    # no round reads -1 at kappa = 0, so the fork point is the final chain
    spec = CavitySpec(ALPHA, NMAX, kappa=0.0)
    a = run_protected(spec, 3, 0.1, 0.05, 5, correct=False).record.final_state
    b = run_protected(spec, 3, 0.1, 0.05, 5, correct=True).record.final_state
    assert a is not b
    for u, v in zip(a.branch0 + a.branch1, b.branch0 + b.branch1):
        assert u is not v and np.array_equal(u, v)


def _assert_same_chain(a, b):
    assert (a.weight0, a.weight1) == (b.weight0, b.weight1)
    assert a.sq_norms0 == b.sq_norms0 and a.sq_norms1 == b.sq_norms1
    for u, v in zip(a.branch0 + a.branch1, b.branch0 + b.branch1):
        assert np.array_equal(u, v)


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
    """Drift and loss keep parity exactly, so every projection is a renormalisation."""
    fc = factored_chain(SPEC, k)
    for op, arg in ops:
        fc = fc_drift(fc, arg) if op == "drift" else fc_apply_loss(fc, arg % k)
    for j in range(k):
        p_even = fc_parity_probability(fc, j)
        outcome = 1 if p_even > 0.5 else -1
        got = fc_project_parity(fc, j, outcome)
        assert got.branch0[j] is fc.branch0[j] and got.branch1[j] is fc.branch1[j]
        _assert_same_chain(got, project_parity_full(fc, j, outcome))


@pytest.mark.parametrize("outcome", [1, -1])
@pytest.mark.parametrize("drift", [0.01, 0.05])
def test_parity_projection_masks_repump_residue(outcome, drift):
    """A repumped column carries rounding residue on odd Fock numbers: project it."""
    fc = fc_apply_loss(fc_drift(factored_chain(SPEC, 3), drift), 1)
    fc = fc_repump(fc_project_parity(fc, 1, -1), 1, ALPHA * np.exp(-SPEC.kappa * drift / 2))
    rejected = 1 if outcome == 1 else 0
    assert fc.branch0[1][rejected::2].any() and fc.branch1[1][rejected::2].any()
    got = fc_project_parity(fc, 1, outcome)
    assert got.branch0[1] is not fc.branch0[1]
    _assert_same_chain(got, project_parity_full(fc, 1, outcome))


# ------------------------------------------- factored chain bookkeeping

# From-scratch evaluations: every column norm recomputed, dense annihilation.

def _scratch_norm_squared(fc, b0=None, b1=None):
    b0 = fc.branch0 if b0 is None else b0
    b1 = fc.branch1 if b1 is None else b1
    return abs(fc.weight0) ** 2 * np.prod([np.linalg.norm(u) ** 2 for u in b0]) + abs(
        fc.weight1
    ) ** 2 * np.prod([np.linalg.norm(v) ** 2 for v in b1])


def _scratch_flux(fc):
    a = annihilation(fc.spec.dim)
    n2 = _scratch_norm_squared(fc)
    flux = np.empty(fc.k)
    for j in range(fc.k):
        b0, b1 = list(fc.branch0), list(fc.branch1)
        b0[j], b1[j] = a @ b0[j], a @ b1[j]
        flux[j] = fc.spec.kappa * _scratch_norm_squared(fc, b0, b1) / n2
    return flux


def _scratch_parity_probability(fc, j):
    even = np.arange(fc.spec.dim) % 2 == 0
    p0 = abs(fc.weight0) ** 2 * np.prod(
        [np.linalg.norm(u) ** 2 for i, u in enumerate(fc.branch0) if i != j]
    )
    p1 = abs(fc.weight1) ** 2 * np.prod(
        [np.linalg.norm(v) ** 2 for i, v in enumerate(fc.branch1) if i != j]
    )
    w = p0 * np.linalg.norm(fc.branch0[j][even]) ** 2 + p1 * np.linalg.norm(
        fc.branch1[j][even]
    ) ** 2
    return float(w / _scratch_norm_squared(fc))


def _scratch_survival(fc, tau):
    decay = np.exp(-fc.spec.kappa * tau * np.arange(fc.spec.dim))
    p0 = abs(fc.weight0) ** 2 * np.prod([float(np.sum(np.abs(u) ** 2 * decay)) for u in fc.branch0])
    p1 = abs(fc.weight1) ** 2 * np.prod([float(np.sum(np.abs(v) ** 2 * decay)) for v in fc.branch1])
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
    return fc_repump(fc, j, ALPHA * np.exp(-op[2]))


def _assert_table(fc, prev):
    """The column table holds only live entries and its memo matches fresh values."""
    used = set(fc.slot0 + fc.slot1)
    assert used == set(range(len(fc.cols))) and len(fc.cols) <= 2 * fc.k
    assert len(fc._memo) == len(fc.cols)
    for j in range(fc.k):
        assert fc.branch0[j] is fc.cols[fc.slot0[j]] and fc.branch1[j] is fc.cols[fc.slot1[j]]
    for c, got in zip(fc.cols, fc._memo):
        if got is not None:
            assert got == (np.linalg.norm(c[::2]) ** 2, bool(c[::2].any()), bool(c[1::2].any()))
    # a derived chain never shares the memo it fills with its source
    assert fc._memo is not prev._memo


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), ops=st.lists(_ops(3), min_size=1, max_size=12))
def test_factored_chain_stored_norms_track_columns(k, ops):
    fc = factored_chain(SPEC, k)
    for op in ops:
        if op[0] == "repump":
            decayed = ALPHA * np.exp(-op[2])
            r = recovery_matrix(SPEC, decayed)
            assert np.max(np.abs(r @ r.conj().T - np.eye(NMAX + 1))) < 1e-12
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0, 0] = 1.0
            assert recovery_matrix(SPEC, decayed) is r
        fc, prev = _apply_op(fc, op), fc
        _assert_table(fc, prev)
        for cols, sq in ((fc.branch0, fc.sq_norms0), (fc.branch1, fc.sq_norms1)):
            assert all(s == np.linalg.norm(c) ** 2 for c, s in zip(cols, sq))
        assert abs(fc.normalized().norm_squared() - 1.0) <= 1e-12
        # the incremental arithmetic repeats a from-scratch evaluation bit for bit
        assert fc.norm_squared() == _scratch_norm_squared(fc)
        assert all(
            fc_parity_probability(fc, j) == _scratch_parity_probability(fc, j) for j in range(k)
        )
        assert np.array_equal(cat_code._fc_jump_flux(fc), _scratch_flux(fc))
        survival = cat_code._fc_survival(fc)
        for tau in (0.0, 0.01, 0.2):
            assert survival(tau) == _scratch_survival(fc, tau)
        _assert_table(fc, prev)


def _one_copy_per_cavity(fc):
    return FactoredChain(
        fc.weight0, fc.weight1, tuple(u.copy() for u in fc.branch0),
        tuple(v.copy() for v in fc.branch1), fc.spec,
    )


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 9), ops=st.lists(_ops(8), min_size=1, max_size=12))
def test_shared_columns_match_one_copy_per_cavity(k, ops):
    """Cavities sharing one column object evolve as private copies would, bit for bit."""
    shared = factored_chain(SPEC, k)
    plus, rot = cat_code._code_columns(SPEC.alpha, SPEC.n_max)
    assert all(u is plus for u in shared.branch0) and all(v is rot for v in shared.branch1)
    private = _one_copy_per_cavity(shared)
    for op in ops:
        prev = shared
        shared, private = _apply_op(shared, op), _apply_op(private, op)
        _assert_same_chain(shared, private)
        _assert_table(shared, prev)
        assert np.array_equal(cat_code._fc_jump_flux(shared), cat_code._fc_jump_flux(private))
        assert cat_code._fc_survival(shared)(0.05) == cat_code._fc_survival(private)(0.05)
        for c in shared.branch0 + shared.branch1:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0] = 0.0
    # drift maps each distinct column to one: the sharing survives it
    assert len({id(c) for c in fc_drift(shared, 0.01).branch0}) == len(
        {id(c) for c in shared.branch0}
    )


def test_resumed_chain_keeps_column_sharing():
    # no jumps at kappa = 0: the stored chain holds the two code columns
    spec = CavitySpec(ALPHA, NMAX, kappa=0.0)
    a = run_protected(spec, 4, 0.1, 0.05, 6, correct=False).record.final_state
    b = run_protected(spec, 4, 0.1, 0.05, 6, correct=True).record.final_state
    assert len({id(c) for c in a.branch0 + a.branch1}) == 2
    assert len({id(c) for c in b.branch0 + b.branch1}) == 2
    assert not {id(c) for c in a.branch0 + a.branch1} & {id(c) for c in b.branch0 + b.branch1}
    for c in a.branch0 + a.branch1 + b.branch0 + b.branch1:
        assert not c.flags.writeable


@settings(max_examples=200, deadline=None)
@given(
    re=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    im=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    log_scale=st.floats(-150.0, 150.0),
    stride=st.integers(1, 3),
)
def test_sq_norm_equals_numpy_norm_squared(re, im, log_scale, stride):
    size = min(len(re), len(im))
    col = (np.array(re[:size]) + 1j * np.array(im[:size])) * 10.0**log_scale
    for c in (col, col[::stride]):
        assert cat_code._sq_norm(c) == np.linalg.norm(c) ** 2


@settings(max_examples=200, deadline=None)
@given(
    flux=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=1, max_size=9
    ).filter(any),
    seed=st.integers(0, 2**63 - 1),
)
def test_jump_cavity_matches_numpy_choice(flux, seed):
    flux = np.array(flux)
    want = np.random.default_rng(seed).choice(len(flux), p=flux / flux.sum())
    assert cat_code._jump_cavity(flux, np.random.default_rng(seed).random()) == want


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "flux", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], [-1e-300, 1.0], [1e308, 1e308]]
)
def test_jump_flux_that_is_no_distribution_is_convergence_error(flux):
    with pytest.raises(ConvergenceError, match="not a distribution"):
        cat_code._jump_cavity(np.array(flux), 0.5)


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
        survival = cat_code._fc_survival(chain)
        for _ in range(20):
            remaining = float(rng.uniform(0.01, 0.5))
            r = float(rng.uniform(survival(remaining), 1.0))

            def f(x):
                return survival(x) - r

            assert cat_code.brentq(f, 0.0, remaining, 1e-16, 1e-14) == scipy_brentq(
                f, 0.0, remaining, xtol=1e-16, rtol=1e-14
            )


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
