"""Schedule-builder tests.

The executed schedules are cross-checked against two oracles: an
independent one (``oracle_register.dense_execute``) that embeds every
generator in the full register space and multiplies dense Pade
exponentials, and the step-by-step route (``oracle_register.step_execute``)
that ``execute``'s group gates replaced.
"""
from math import pi

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entpipe.errors import NotGhzClassError, ScheduleError
from entpipe.hilbert import (
    StateVector,
    apply_local,
    fidelity,
    ghz_fidelity,
    qubits,
    schmidt_spectrum,
)
from entpipe.spin_register import (
    CouplingSpec,
    PulseSpec,
    Schedule,
    ScheduleStep,
    bipartitions,
    build_bell,
    execute,
    ghz_branches,
    is_ghz_class,
    plan_ghz,
    plus_register,
    rotation,
)
import entpipe.spin_register
from oracle_register import (
    all_cuts_ghz_class,
    canonical_correction,
    canonical_ghz,
    dense_execute,
    heisenberg_matrix,
    ising_matrix,
    merge_blocks,
    report_from_schedule,
    step_execute,
    tensor_states,
)

J1 = 1.0e8
J2 = 1.0e8


# ---------------------------------------------------------------- generators

def test_heisenberg_matrix_spectrum():
    evals = np.sort(np.linalg.eigvalsh(heisenberg_matrix(J1)))
    assert np.allclose(evals, [-3 * J1, J1, J1, J1])


def test_heisenberg_is_swap_affine():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(heisenberg_matrix(J1), J1 * (2 * swap - np.eye(4)))


def test_exchange_interval_phases():
    # At t = pi/(8 J1) the triplet picks up e^{-i pi/8}, the singlet e^{+3 i pi/8}.
    u = entpipe.spin_register._coupling_gate("heisenberg", J1, pi / (8 * J1))
    triplet = np.array([1, 0, 0, 0], dtype=complex)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(u @ triplet, np.exp(-1j * pi / 8) * triplet, atol=1e-12)
    assert np.allclose(u @ singlet, np.exp(3j * pi / 8) * singlet, atol=1e-12)


def test_ising_interval_phases():
    u = entpipe.spin_register._coupling_gate("ising", J2, pi / (4 * J2))
    assert np.allclose(np.diag(u), np.exp(1j * np.array([-1, 1, 1, -1]) * pi / 4), atol=1e-12)


def test_rotation_pulse_convention():
    # pi/2 pulse about +X
    rx = rotation(pi / 2, 0.0)
    assert np.allclose(rx, np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2), atol=1e-12)
    # pi pulse with equatorial axis phase phi swaps the basis with -i e^{-+i phi}
    phi = -pi / 4
    rp = rotation(pi, phi)
    assert np.allclose(rp @ np.array([1, 0]), [0, -1j * np.exp(1j * phi)], atol=1e-12)
    assert np.allclose(rp @ np.array([0, 1]), [-1j * np.exp(-1j * phi), 0], atol=1e-12)


# ---------------------------------------------------------------- bell pairs

def test_build_bell_exact_state():
    state = execute(build_bell(J2))
    assert np.allclose(state.amplitudes, [2**-0.5, 0, 0, 2**-0.5], atol=1e-12)


def test_build_bell_oracle_agreement():
    sch = build_bell(J2)
    assert np.allclose(
        execute(sch).amplitudes, dense_execute(sch).amplitudes, atol=1e-12
    )


# ---------------------------------------------------------------- merging

def expected_raw_four() -> StateVector:
    amps = np.zeros(16, dtype=complex)
    amps[0b0001] = 2**-0.5
    amps[0b1110] = -1j * 2**-0.5
    return StateVector(amps, qubits(4))


def test_four_dot_raw_schedule_matches_oracle_and_pattern():
    sch, _ = plan_ghz(4, J1, J2, canonical=False)
    fast = execute(sch)
    slow = dense_execute(sch)
    assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-11)
    assert fidelity(fast, expected_raw_four()) >= 1 - 1e-10


def test_intermediate_maximum_entanglement_amplitudes():
    # After the ZZ contact interval plus phase corrections the amplitudes are
    # exactly (1/2)(|0000> + |0011> + |1100> - |1111>).
    sch, _ = plan_ghz(4, J1, J2, canonical=False)
    prefix = []
    for step in sch.steps:
        prefix.append(step)
        if step.pulse is not None and step.pulse.z_corrections and 0 in step.pulse.z_corrections:
            break
    state = dense_execute(Schedule(tuple(prefix), 4))
    want = np.zeros(16, dtype=complex)
    want[0b0000] = want[0b0011] = want[0b1100] = 0.5
    want[0b1111] = -0.5
    assert np.allclose(state.amplitudes, want, atol=1e-11)


def test_merge_blocks_joins_two_bell_pairs():
    bell = execute(build_bell(J2))
    state = tensor_states(bell, bell)
    merged = merge_blocks(state, 0, 2, J1, J2)
    assert fidelity(merged, expected_raw_four()) >= 1 - 1e-10


def test_merge_blocks_canonicalize_flag():
    bell = execute(build_bell(J2))
    merged = merge_blocks(tensor_states(bell, bell), 0, 2, J1, J2, canonicalize=True)
    assert fidelity(merged, canonical_ghz(4)) >= 1 - 1e-10


def test_merge_blocks_rejects_same_block_contacts():
    bell = execute(build_bell(J2))
    merged = merge_blocks(tensor_states(bell, bell), 0, 2, J1, J2)
    with pytest.raises(ScheduleError):
        merge_blocks(merged, 0, 2, J1, J2)


def test_merge_blocks_rejects_missing_partner():
    bell = execute(build_bell(J2))
    state = tensor_states(bell, bell)
    with pytest.raises(ScheduleError):
        merge_blocks(state, 0, 3, J1, J2)  # partner dot 4 does not exist


def test_wrong_pulse_axis_breaks_ghz_class():
    # Replacing the absorption pulse axis phase by 0 (no branch phase gap)
    # leaves a state that fails the Schmidt test on the cut {dot1, dot2}.
    sch, _ = plan_ghz(4, J1, J2, canonical=False)
    steps = []
    for step in sch.steps:
        if (
            step.pulse is not None
            and step.pulse.z_corrections is None
            and abs(step.pulse.angle - pi) < 1e-12
        ):
            step = ScheduleStep(
                step.layer, pulse=PulseSpec(target=step.pulse.target, angle=pi, axis_phase=0.0)
            )
        steps.append(step)
    bad = execute(Schedule(tuple(steps), 4))
    assert not is_ghz_class(bad)
    assert np.allclose(schmidt_spectrum(bad, (1, 2)), [0.5, 0.5, 0.5, 0.5], atol=1e-10)


# ---------------------------------------------------------------- full plans

@pytest.mark.parametrize("n", range(2, 9))
def test_plan_ghz_canonical_exact(n):
    state = execute(plan_ghz(n, J1, J2)[0])
    assert np.allclose(state.amplitudes, canonical_ghz(n).amplitudes, atol=1e-10)
    assert is_ghz_class(state)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_plan_ghz_oracle_agreement(n):
    sch, _ = plan_ghz(n, J1, J2)
    assert np.allclose(
        execute(sch).amplitudes, dense_execute(sch).amplitudes, atol=1e-10
    )


@pytest.mark.parametrize("n", [4, 6, 7])
def test_raw_plan_needs_at_most_one_flip(n):
    raw = execute(plan_ghz(n, J1, J2, canonical=False)[0])
    assert is_ghz_class(raw)
    fixed, info = canonical_correction(raw)
    assert len(info["x_flips"]) <= 1
    assert fidelity(fixed, canonical_ghz(n)) >= 1 - 1e-9


def test_execute_builds_each_distinct_group_gate_once():
    # 9 groups (five Bell pairs, four absorptions) but 3 distinct gates: the
    # Bell pairs share one, the first three absorptions another, and the
    # last absorption carries the plan's closing phase step
    gate = entpipe.spin_register._group_gate
    gate.cache_clear()
    schedule = plan_ghz(10, J1, J2)[0]
    first = execute(schedule)
    assert (gate.cache_info().misses, gate.cache_info().hits) == (3, 6)
    again = execute(schedule)
    assert (gate.cache_info().misses, gate.cache_info().hits) == (3, 15)
    assert np.array_equal(first.amplitudes, again.amplitudes)


def test_group_gates_are_read_only_and_unitary():
    keys = _plan_group_keys()
    assert len(keys) >= 4
    for key, k in keys:
        gate = entpipe.spin_register._group_gate(key, k)
        assert not gate.flags.writeable
        with pytest.raises(ValueError):
            gate[0, 0] = 0.0
        assert np.max(np.abs(gate.conj().T @ gate - np.eye(2**k))) <= 1e-15


def _plan_group_keys():
    """(key, k) of every group gate that plans of 2..10 dots apply."""
    keys = set()
    for n in range(2, 11):
        for canonical in (True, False):
            sch = plan_ghz(n, J1, J2, canonical=canonical)[0]
            for dots, steps in entpipe.spin_register._step_groups(sch.steps):
                pos = {dot: i for i, dot in enumerate(dots)}
                keys.add((tuple(entpipe.spin_register._step_key(s, pos) for s in steps), len(dots)))
    return keys


def test_coupling_gates_are_exact():
    sr = entpipe.spin_register
    ising = sr._coupling_gate("ising", J2, pi / (4 * J2))
    exchange = sr._coupling_gate("heisenberg", J1, pi / (8 * J1))
    assert np.array_equal(ising, scipy.linalg.expm(-1j * (pi / (4 * J2)) * ising_matrix(J2)))
    fresh = scipy.linalg.expm(-1j * (pi / (8 * J1)) * heisenberg_matrix(J1))
    assert np.max(np.abs(exchange - fresh)) <= 4e-16


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
@pytest.mark.parametrize("n", range(2, 11))
def test_grouped_execute_matches_step_oracle(n, canonical):
    sch = plan_ghz(n, J1, J2, canonical=canonical)[0]
    state = execute(sch)
    assert np.max(np.abs(state.amplitudes - step_execute(sch).amplitudes)) <= 1e-15
    if canonical:
        assert fidelity(state, canonical_ghz(n)) >= 1 - 1e-9


def test_execute_makes_one_local_call_per_group(monkeypatch):
    """Cost tripwire: a plan of n dots is applied in at most n - 1 group
    gates (9 at n = 10), not one call per step (34 at n = 10)."""
    calls = []

    def counted(state, op, sites):
        calls.append(sites)
        return apply_local(state, op, sites)

    monkeypatch.setattr(entpipe.spin_register, "apply_local", counted)
    for n in range(2, 11):
        calls.clear()
        execute(plan_ghz(n, J1, J2)[0])
        assert 1 <= len(calls) <= n - 1
    assert len(calls) == 9


@st.composite
def random_schedules(draw):
    """Both coupling kinds on random pairs for random durations, pi/2 and pi
    pulses at random axis phases, z-correction layers on 0-3 dots (none:
    a pure global-phase step)."""
    n = draw(st.integers(2, 6))
    dot = st.integers(0, n - 1)
    phase = st.floats(-pi, pi)
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        what = draw(st.sampled_from(["ising", "heisenberg", "pulse", "z"]))
        if what == "pulse":
            pulse = PulseSpec(target=draw(dot), angle=draw(st.sampled_from([pi / 2, pi])),
                              axis_phase=draw(phase))
            steps.append(ScheduleStep(0, pulse=pulse))
        elif what == "z":
            dots = draw(st.lists(dot, max_size=min(3, n), unique=True))
            z = {d: draw(phase) for d in dots}
            steps.append(ScheduleStep(0, pulse=PulseSpec(z_corrections=z,
                                                          global_phase=draw(phase))))
        else:
            pair = draw(st.lists(dot, min_size=2, max_size=2, unique=True))
            j = 10.0 ** draw(st.floats(6.0, 10.0))
            steps.append(ScheduleStep(0, coupling=CouplingSpec(what, j, tuple(pair)),
                                      duration=draw(st.floats(0.01, 2.0)) / j))
    return Schedule(tuple(steps), n)


@settings(max_examples=150, deadline=None)
@given(sch=random_schedules())
def test_grouped_execute_matches_oracles_on_random_schedules(sch):
    fused = execute(sch).amplitudes
    assert np.max(np.abs(fused - dense_execute(sch).amplitudes)) <= 1e-12
    assert np.max(np.abs(fused - step_execute(sch).amplitudes)) <= 1e-13
    sr = entpipe.spin_register
    groups = list(sr._step_groups(sch.steps))
    assert [s for _, steps in groups for s in steps] == list(sch.steps)
    for dots, steps in groups:
        assert set(dots) == {d for s in steps for d in sr._step_dots(s)}
        assert len(dots) <= 3


def test_schedule_refuses_a_step_on_more_than_three_dots():
    wide = PulseSpec(z_corrections={d: 0.1 * d for d in range(4)})
    with pytest.raises(ScheduleError):
        Schedule((ScheduleStep(0, pulse=wide),), 4)
    narrow = PulseSpec(z_corrections={d: 0.1 * d for d in range(3)})
    assert len(Schedule((ScheduleStep(0, pulse=narrow),), 4).steps) == 1


@settings(max_examples=200, deadline=None)
@given(log_j=st.floats(-6.0, 15.0), theta=st.floats(0.0, pi / 2))
@example(log_j=8.0, theta=pi / 4)
@example(log_j=8.0, theta=pi / 8)
def test_closed_form_gates_match_expm(log_j, theta):
    """The Ising gate equals scipy's Pade ``expm`` bit for bit at every theta.
    The exchange gate is within 4e-16 of it at the schedule's interval
    (duration pi/(8 J)), and within 2e-15 up to theta = pi/2, where
    ``expm``'s own rounding grows (the closed form stays within 2.5e-16 of
    the exact exponential there)."""
    j = 10.0**log_j
    t = theta / j
    sr = entpipe.spin_register
    ising = sr._coupling_gate("ising", j, t)
    assert np.array_equal(ising, scipy.linalg.expm(-1j * t * ising_matrix(j)))
    exchange = sr._coupling_gate("heisenberg", j, t)
    assert np.max(np.abs(exchange - scipy.linalg.expm(-1j * t * heisenberg_matrix(j)))) <= 2e-15
    t = pi / (8 * j)
    exchange = sr._coupling_gate("heisenberg", j, t)
    assert np.max(np.abs(exchange - scipy.linalg.expm(-1j * t * heisenberg_matrix(j)))) <= 4e-16


def test_canonical_correction_rejects_product_state():
    with pytest.raises(NotGhzClassError):
        canonical_correction(plus_register(3))


def test_ghz_class_rejects_product_and_w():
    assert not is_ghz_class(plus_register(4))
    w = StateVector.from_amplitudes(
        np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex), qubits(3)
    )
    assert not is_ghz_class(w)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    bits=st.integers(0, 2**8 - 1),
    delta=st.sampled_from([0.0, 1e-10, -1e-10, 1e-7, -1e-7, 1e-3, -1e-3]),
    phase=st.floats(-pi, pi),
)
def test_two_branch_ghz_check_matches_all_cuts(n, bits, delta, phase):
    """|a|^2 = 1/2 + delta on a random complementary pair: first cut decides."""
    p = bits % 2**n
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[p] = np.sqrt(0.5 + delta)
    amps[p ^ (2**n - 1)] = np.exp(1j * phase) * np.sqrt(0.5 - delta)
    state = StateVector(amps, qubits(n))
    ghz = abs(delta) < 1e-8
    assert is_ghz_class(state) == all_cuts_ghz_class(state) == ghz
    if ghz:
        first = min(p, p ^ (2**n - 1))
        reg = ghz_branches(state)
        assert (reg.pattern, reg.a, reg.b) == (
            first, state.amplitudes[first], state.amplitudes[first ^ (2**n - 1)]
        )
    else:  # an unbalanced pair is two branches, but not GHZ-class
        with pytest.raises(NotGhzClassError, match="not GHZ-class"):
            ghz_branches(state)


def _rotated_ghz():
    return apply_local(canonical_ghz(4), rotation(pi / 2, 0.0), (2,))


def _w_state():
    return StateVector.from_amplitudes(
        np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex), qubits(3)
    )


@pytest.mark.parametrize(
    "make, two_branch",
    [
        (lambda: execute(plan_ghz(6, J1, J2, canonical=False)[0]), True),
        (lambda: execute(plan_ghz(7, J1, J2, canonical=False)[0]), True),
        (lambda: plus_register(4), False),
        (_w_state, False),
        (_rotated_ghz, False),
    ],
    ids=["raw_plan_6", "raw_plan_7", "plus_register", "w", "rotated_ghz"],
)
def test_wide_support_ghz_check_matches_all_cuts(make, two_branch):
    """An executed plan is two branches plus rounding residue on every entry."""
    state = make()
    assert np.count_nonzero(state.amplitudes) > 2
    if two_branch:
        reg = ghz_branches(state)
        p, full = reg.pattern, state.amplitudes.size - 1
        assert (reg.a, reg.b) == (state.amplitudes[p], state.amplitudes[full ^ p])
        assert p < full ^ p
    else:
        with pytest.raises(NotGhzClassError, match="not two complementary"):
            ghz_branches(state)
    assert is_ghz_class(state) == all_cuts_ghz_class(state)


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_branches_reads_executed_plans(n):
    """An executed plan, canonical or raw, is handed on as its entries p and
    ~p, and a canonical one as pattern 0.  The ghz stage's two-entry GHZ
    fidelity equals the dense overlap bit for bit at every coupling ratio,
    and on canonical plans so does the pipeline's, read from the two-branch
    value."""
    for j1, j2 in ((J1, J2), (1.0, 1.0), (2.5e7, 4e9), (3e9, 1e6)):
        for canonical in (True, False):
            state = execute(plan_ghz(n, j1, j2, canonical=canonical)[0])
            amps = state.amplitudes
            dense = fidelity(state, canonical_ghz(n))
            assert ghz_fidelity(amps[0], amps[-1]) == dense
            reg = ghz_branches(state)
            assert reg.n == n
            assert (reg.a, reg.b) == (amps[reg.pattern], amps[reg.pattern ^ (2**n - 1)])
            if canonical:
                assert reg.pattern == 0 and reg.ghz_fidelity() == dense


def test_two_branch_ghz_check_takes_one_cut(monkeypatch):
    calls = []

    def counted(state, part):
        calls.append(part)
        return schmidt_spectrum(state, part)

    monkeypatch.setattr(entpipe.spin_register, "schmidt_spectrum", counted)
    assert is_ghz_class(canonical_ghz(10))
    assert len(calls) == 1
    calls.clear()
    assert is_ghz_class(_rotated_ghz())
    assert len(calls) == len(list(bipartitions(4)))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 8),
    base=st.sampled_from(["random", "plan", "raw_plan"]),
    bits=st.integers(0, 2**8 - 1),
    phase=st.floats(-pi, pi),
    spike=st.one_of(st.none(), st.integers(1, 2**8 - 2)),
    log_noise=st.floats(-16.0, -6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_two_branch_ghz_check_matches_all_cuts(
    n, base, bits, phase, spike, log_noise, seed
):
    """Two-branch states (random or executed plans) plus noise of norm
    10**log_noise, spread over every entry or all on one entry p ^ spike.
    A spike that flips a set S of dots leaves a cut's spectrum alone to
    first order unless the cut contains S or its complement, so the first
    cut can pass where a later one fails."""
    if base == "random":
        amps = np.zeros(2**n, dtype=np.complex128)
        p = bits % 2**n
        amps[p] = 1 / np.sqrt(2)
        amps[p ^ (2**n - 1)] = np.exp(1j * phase) / np.sqrt(2)
    else:
        amps = execute(plan_ghz(n, J1, J2, canonical=base == "plan")[0]).amplitudes
        p = int(np.argmax(np.abs(amps)))
    if spike is None:
        rng = np.random.default_rng(seed)
        noise = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)) / np.sqrt(2 * 2**n)
    else:
        noise = np.zeros(2**n, dtype=np.complex128)
        noise[p ^ (spike % 2**n)] = np.exp(1j * phase)
    state = StateVector.from_amplitudes(amps + 10.0**log_noise * noise, qubits(n))
    assert is_ghz_class(state) == all_cuts_ghz_class(state)


def test_executed_ghz_check_takes_one_cut(monkeypatch):
    # rounding leaves all 1024 entries nonzero; the Weyl bound still decides
    calls = []

    def counted(state, part):
        calls.append(part)
        return schmidt_spectrum(state, part)

    monkeypatch.setattr(entpipe.spin_register, "schmidt_spectrum", counted)
    state = execute(plan_ghz(10, J1, J2)[0])
    assert np.count_nonzero(state.amplitudes) > 2
    assert is_ghz_class(state) and len(calls) == 1


def test_bipartitions_count():
    assert len(list(bipartitions(4))) == 7
    assert len(list(bipartitions(3))) == 3


# ---------------------------------------------------------------- timing

@pytest.mark.parametrize(
    "n,ising,heis", [(2, 1, 0), (3, 2, 1), (4, 2, 1), (5, 3, 2), (6, 3, 2), (7, 4, 3), (8, 4, 3), (9, 5, 4), (10, 5, 4)]
)
def test_interval_counts(n, ising, heis):
    _, rep = plan_ghz(n, J1, J2)
    assert (rep.t_ising_steps, rep.t_heisenberg_steps) == (ising, heis)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    j1=st.floats(1e6, 1e10),
    j2=st.floats(1e6, 1e10),
)
def test_total_time_formula(n, j1, j2):
    _, rep = plan_ghz(n, j1, j2)
    expect = ((n + 1) // 2) * pi / (4 * j2) + ((n - 1) // 2) * pi / (8 * j1)
    assert rep.total_seconds == pytest.approx(expect, rel=1e-15)


def test_four_dot_timing_value():
    _, rep = plan_ghz(4, 1e8, 1e8)
    assert rep.total_seconds == pytest.approx(5 * pi / 8 * 1e-8, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_total_time_same_decade_as_hundred_ns_per_dot(n):
    _, rep = plan_ghz(n, 1e8, 1e8)
    ratio = rep.total_seconds / (n * 1e-8)
    assert 0.1 < ratio < 10


def test_report_recount_matches_plan():
    # the plan's closed-form report against a per-layer recount of its steps;
    # an interval is compared only where the plan has a layer of that kind
    for j1, j2 in ((J1, J2), (3.7e7, 1.9e8)):
        for n in range(2, 13):
            for canonical in (True, False):
                sch, rep = plan_ghz(n, j1, j2, canonical=canonical)
                rec = report_from_schedule(sch)
                assert (rec.t_ising_steps, rec.t_heisenberg_steps) == (
                    rep.t_ising_steps,
                    rep.t_heisenberg_steps,
                )
                assert rec.ising_interval == rep.ising_interval == pi / (4 * j2)
                if n > 2:
                    assert rec.heisenberg_interval == rep.heisenberg_interval
                else:
                    assert rec.t_heisenberg_steps == 0
                    assert rep.heisenberg_interval == pi / (8 * j1)
                assert rec.total_seconds == rep.total_seconds


def test_report_recount_refuses_unequal_concurrent_durations():
    steps = (
        ScheduleStep(0, coupling=CouplingSpec("ising", J2, (0, 1)), duration=1e-8),
        ScheduleStep(0, coupling=CouplingSpec("ising", J2, (2, 3)), duration=2e-8),
    )
    with pytest.raises(ScheduleError, match="share a duration"):
        report_from_schedule(Schedule(steps, 4))


# ---------------------------------------------------------------- validation

def test_coupling_spec_validation():
    with pytest.raises(ScheduleError):
        CouplingSpec("xy", J1, (0, 1))
    with pytest.raises(ScheduleError):
        CouplingSpec("ising", J1, (1, 1))
    with pytest.raises(ScheduleError):
        CouplingSpec("ising", -J1, (0, 1))


def test_pulse_spec_validation():
    with pytest.raises(ScheduleError):
        PulseSpec(target=0, angle=0.3)
    with pytest.raises(ScheduleError):
        PulseSpec()


def test_schedule_step_validation():
    with pytest.raises(ScheduleError):
        ScheduleStep(0)
    with pytest.raises(ScheduleError):
        ScheduleStep(0, coupling=CouplingSpec("ising", J1, (0, 1)), duration=0.0)


def test_plan_rejects_tiny_register():
    with pytest.raises(ScheduleError):
        plan_ghz(1, J1, J2)
