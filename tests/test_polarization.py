"""Dual-rail to polarization conversion tests.

The conversion is a pure branch map, so every expectation here is either an
exact amplitude transport or a closed-form herald product.  Rail-space and
polarization expectations read the dense expansion of a two-branch register
from the oracle module, and the two-branch route (``ghz_branches``,
``register_swap``, ``convert_register``) is checked bit for bit against the
dense swap and conversion it replaced.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpipe.errors import LayoutError, RailSubspaceError
from entpipe.hilbert import StateVector, TwoBranch, fidelity, qubits, schmidt_spectrum
from entpipe.photon_swap import register_swap
from entpipe.polarization import ConversionSpec, convert_register
from entpipe.spin_register import ghz_branches
from oracle_register import (
    DualRailState,
    canonical_ghz,
    convert_one,
    dense_convert_register,
    dense_register_swap,
    dense_two_branch,
    polarization_ghz,
)

INV_SQRT2 = 1 / math.sqrt(2)


def rail_photon(a_shifted, b_original):
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b10] = a_shifted
    amps[0b01] = b_original
    return StateVector(amps, qubits(2, prefix="r"))


def two_branch_register(n_photons, a, b):
    """a on every photon's shifted rail, b on every photon's original rail."""
    return TwoBranch(2 * n_photons, int("10" * n_photons, 2), a, b)


# ------------------------------------------------------------------ types


def test_spec_validation():
    with pytest.raises(ValueError):
        ConversionSpec(eta_bbo=0.0)
    with pytest.raises(ValueError):
        ConversionSpec(detector_efficiency=1.5)
    assert ConversionSpec(0.5, 0.8).herald_one == pytest.approx(0.4)


def test_dual_rail_validation():
    ok = DualRailState(rail_photon(INV_SQRT2, INV_SQRT2))
    assert ok.n_photons == 1
    with pytest.raises(RailSubspaceError):
        DualRailState(StateVector(np.array([INV_SQRT2, 0, 0, INV_SQRT2]), qubits(2)))
    with pytest.raises(LayoutError):
        DualRailState(StateVector(np.array([1.0, 0]), qubits(1)))


# ------------------------------------------------------------ convert_one


def test_convert_one_balanced():
    pol, herald = convert_one(rail_photon(INV_SQRT2, INV_SQRT2), ConversionSpec())
    assert herald == 1.0
    assert np.allclose(pol.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_convert_one_single_branch():
    pol, herald = convert_one(rail_photon(1.0, 0.0), ConversionSpec(0.5, 0.8))
    assert np.allclose(pol.amplitudes, [1.0, 0.0])
    assert herald == pytest.approx(0.4)


def test_convert_one_respects_relative_phase():
    pol, _ = convert_one(rail_photon(INV_SQRT2, -INV_SQRT2), ConversionSpec())
    assert np.allclose(pol.amplitudes, [INV_SQRT2, -INV_SQRT2])


def test_convert_one_needs_single_pair():
    with pytest.raises(LayoutError):
        convert_one(
            dense_two_branch(two_branch_register(2, INV_SQRT2, INV_SQRT2)), ConversionSpec()
        )


# ------------------------------------------------------- convert_register


def test_convert_register_pair_equals_convert_one():
    reg = two_branch_register(2, INV_SQRT2, INV_SQRT2)
    pol, herald = convert_register(reg, ConversionSpec(0.5, 0.8))
    one, herald_one = convert_one(rail_photon(INV_SQRT2, INV_SQRT2), ConversionSpec(0.5, 0.8))
    assert np.allclose(dense_two_branch(pol, "pol").amplitudes, one.amplitudes)
    assert herald == herald_one


def test_convert_register_three_photons_out():
    reg = two_branch_register(6, INV_SQRT2, INV_SQRT2)
    pol, herald = convert_register(reg, ConversionSpec())
    dense_fid = fidelity(dense_two_branch(pol, "pol"), polarization_ghz(3))
    assert pol.ghz_fidelity() == dense_fid == pytest.approx(1.0, abs=1e-12)
    assert herald == 1.0


def test_convert_register_herald_product():
    reg = two_branch_register(4, INV_SQRT2, INV_SQRT2)
    _, herald = convert_register(reg, ConversionSpec(0.5, 0.8))
    assert herald == (0.5 * 0.8) ** 2


def test_convert_register_odd_count_rejected():
    reg = two_branch_register(3, INV_SQRT2, INV_SQRT2)
    with pytest.raises(LayoutError):
        convert_register(reg, ConversionSpec())


def test_convert_register_rejects_mixed_branches():
    rails = TwoBranch(4, 0b1001, INV_SQRT2, INV_SQRT2)
    amps = dense_two_branch(rails).amplitudes
    assert amps[0b1001] == INV_SQRT2 and amps[0b0110] == INV_SQRT2
    with pytest.raises(RailSubspaceError):
        convert_register(rails, ConversionSpec())
    with pytest.raises(RailSubspaceError):
        dense_convert_register(dense_two_branch(rails), ConversionSpec())


def test_two_branch_rails_validation():
    """A rail register is a TwoBranch on two qubits per photon, each pair
    holding one excitation; ``convert_register`` refuses any other."""
    spec = ConversionSpec()
    with pytest.raises(RailSubspaceError):  # second photon on both rails
        convert_register(TwoBranch(4, 0b1011, INV_SQRT2, INV_SQRT2), spec)
    with pytest.raises(RailSubspaceError):
        convert_register(TwoBranch(2, 0b00, INV_SQRT2, INV_SQRT2), spec)
    with pytest.raises(LayoutError):
        convert_register(TwoBranch(3, 0b101, INV_SQRT2, INV_SQRT2), spec)
    with pytest.raises(LayoutError):
        TwoBranch(2, 0b11010, INV_SQRT2, INV_SQRT2)
    with pytest.raises(LayoutError):
        TwoBranch(0, 0, 1.0, 0.0)


def test_schmidt_spectrum_preserved():
    reg = two_branch_register(4, INV_SQRT2, INV_SQRT2)
    rail_spec = np.sort(schmidt_spectrum(dense_two_branch(reg), [0, 1, 2, 3]))[::-1]
    pol, _ = convert_register(reg, ConversionSpec())
    pol_spec = np.sort(schmidt_spectrum(dense_two_branch(pol, "pol"), [0]))[::-1]
    assert np.allclose(rail_spec[:2], pol_spec[:2], atol=1e-9)


def test_end_to_end_with_register_swap():
    rails, swap_herald = register_swap(ghz_branches(canonical_ghz(8)), 1.0)
    pol, conv_herald = convert_register(rails, ConversionSpec())
    assert pol.ghz_fidelity() >= 1 - 1e-9
    assert swap_herald == 1.0 and conv_herald == 1.0


@pytest.mark.parametrize(
    "dots, a, b",
    [
        (0, INV_SQRT2, INV_SQRT2),
        (int("1100" * 16, 2), np.exp(0.3j) * INV_SQRT2, np.exp(-1.1j) * INV_SQRT2),
    ],
    ids=["ghz", "paired_pattern"],
)
def test_sixty_four_dots_stay_two_branch(dots, a, b):
    """O(n) tripwire: 64 dots -> 128 rail qubits -> 32 polarization qubits.
    A dense fallback would need 2^128 rail amplitudes."""
    register = TwoBranch(64, dots, a, b)
    rails, swap_herald = register_swap(register, 0.95)
    pol, conv_herald = convert_register(rails, ConversionSpec(0.9, 0.8))
    assert swap_herald == pytest.approx(0.95**64, rel=1e-14, abs=0)
    assert conv_herald == (0.9 * 0.8) ** 32
    dot_bits = [(dots >> (63 - i)) & 1 for i in range(64)]
    rail_bits = "".join("01" if bit else "10" for bit in dot_bits)
    assert (rails.n, rails.pattern) == (128, int(rail_bits, 2))
    assert (pol.n, pol.pattern) == (32, int("".join(map(str, dot_bits[::2])), 2))
    assert (rails.a, rails.b) == (pol.a, pol.b) == (register.a, register.b)
    if dots == 0:
        assert pol.ghz_fidelity() == pytest.approx(1.0, abs=1e-15)
    else:
        assert pol.ghz_fidelity() == 0.0


@settings(max_examples=30, deadline=None)
@given(
    phase_a=st.floats(-math.pi, math.pi),
    phase_b=st.floats(-math.pi, math.pi),
)
def test_phase_transport(phase_a, phase_b):
    a = np.exp(1j * phase_a) * INV_SQRT2
    b = np.exp(1j * phase_b) * INV_SQRT2
    pol, _ = convert_register(two_branch_register(4, a, b), ConversionSpec())
    amps = dense_two_branch(pol, "pol").amplitudes
    assert amps[0b00] == a
    assert amps[0b11] == b
    assert np.count_nonzero(amps) == 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    bits=st.integers(0, 2**8 - 1),
    phase_a=st.floats(-math.pi, math.pi),
    phase_b=st.floats(-math.pi, math.pi),
)
def test_two_branch_route_matches_dense_oracle(n, bits, phase_a, phase_b):
    """ghz_branches -> register_swap -> convert_register equals the dense
    pair bit for bit.

    Random complementary dot patterns give every rail layout: an odd photon
    count, pairs split across rails (the mixed-pair rejection) and
    convertible registers.
    """
    p = bits % 2**n
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[p] = np.exp(1j * phase_a) * INV_SQRT2
    amps[p ^ (2**n - 1)] = np.exp(1j * phase_b) * INV_SQRT2
    register = StateVector(amps, qubits(n))
    spec = ConversionSpec(0.9, 0.8)

    rails, herald = register_swap(ghz_branches(register), 0.95)
    dense, dense_herald = dense_register_swap(register, 0.95)
    assert herald == dense_herald
    assert np.array_equal(dense_two_branch(rails).amplitudes, dense.amplitudes)

    dot_bits = [(p >> (n - 1 - i)) & 1 for i in range(n)]
    if n % 2 != 0:
        expected = LayoutError
    elif any(dot_bits[2 * i] != dot_bits[2 * i + 1] for i in range(n // 2)):
        expected = RailSubspaceError
    else:
        expected = None
    if expected is not None:
        with pytest.raises(expected):
            convert_register(rails, spec)
        with pytest.raises(expected):
            dense_convert_register(dense, spec)
        return
    pol, conv_herald = convert_register(rails, spec)
    dense_pol, dense_conv_herald = dense_convert_register(dense, spec)
    assert conv_herald == dense_conv_herald
    expanded = dense_two_branch(pol, "pol")
    assert expanded.layout == dense_pol.layout
    assert np.array_equal(expanded.amplitudes, dense_pol.amplitudes)
    # equal bit for bit from three output photons up; numpy's dot product
    # rounds differently on vectors of two and four entries
    dense_fid = fidelity(dense_pol, polarization_ghz(n // 2))
    assert pol.ghz_fidelity() == pytest.approx(dense_fid, rel=0, abs=4 * np.finfo(float).eps)
