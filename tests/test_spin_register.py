"""Schedule-builder tests.

The executed schedules are cross-checked against an independent oracle
(``oracle_register.dense_execute``) that embeds every generator in the full
register space and multiplies dense Pade exponentials, rather than reusing
the two-dot fast path of ``execute``.
"""
from math import pi

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from entpipe.errors import NotGhzClassError, ScheduleError
from entpipe.hilbert import (
    StateVector,
    fidelity,
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
    canonical_ghz,
    execute,
    heisenberg_matrix,
    ising_matrix,
    is_ghz_class,
    plan_ghz,
    plus_register,
    report_from_schedule,
    rotation,
)
from oracle_register import canonical_correction, dense_execute, merge_blocks, tensor_states

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
    u = scipy.linalg.expm(-1j * (pi / (8 * J1)) * heisenberg_matrix(J1))
    triplet = np.array([1, 0, 0, 0], dtype=complex)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(u @ triplet, np.exp(-1j * pi / 8) * triplet, atol=1e-12)
    assert np.allclose(u @ singlet, np.exp(3j * pi / 8) * singlet, atol=1e-12)


def test_ising_interval_phases():
    u = scipy.linalg.expm(-1j * (pi / (4 * J2)) * ising_matrix(J2))
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


def test_canonical_correction_rejects_product_state():
    with pytest.raises(NotGhzClassError):
        canonical_correction(plus_register(3))


def test_ghz_class_rejects_product_and_w():
    assert not is_ghz_class(plus_register(4))
    w = StateVector.from_amplitudes(
        np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex), qubits(3)
    )
    assert not is_ghz_class(w)


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
    sch, rep = plan_ghz(7, J1, J2)
    rec = report_from_schedule(sch)
    assert (rec.t_ising_steps, rec.t_heisenberg_steps) == (
        rep.t_ising_steps,
        rep.t_heisenberg_steps,
    )
    assert rec.total_seconds == pytest.approx(rep.total_seconds, rel=1e-14)


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
