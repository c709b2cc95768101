"""Core state-engine tests.

Local operators are checked against full-space embeddings; structure
properties (norms, composition, Schmidt data) run as hypothesis properties.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpipe.errors import LayoutError, NormalizationError
from entpipe.hilbert import (
    StateVector,
    SubsystemLayout,
    TwoBranch,
    apply_local,
    fidelity,
    qubits,
    schmidt_spectrum,
)
from oracle_register import (
    concat_layouts,
    dense_two_branch,
    embed_operator,
    moveaxis_apply_local,
    tensor_states,
)


def random_state(rng, dims):
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return StateVector(v / np.linalg.norm(v), SubsystemLayout(tuple(dims)))


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- states, operators

def test_state_norm_validation():
    layout = qubits(1)
    with pytest.raises(NormalizationError):
        StateVector(np.array([1.0, 1.0], dtype=complex), layout)
    # a NaN norm fails every ordering test, so the guard must not read "> tol"
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(NormalizationError):
            StateVector(np.array(bad, dtype=complex), layout)
    with pytest.raises(NormalizationError):
        StateVector(np.array([np.nan, 0, 0, 0]), qubits(2))
    ok = StateVector.from_amplitudes(np.array([1.0, 1.0]), layout)
    assert np.allclose(np.abs(ok.amplitudes), [2**-0.5, 2**-0.5])


def test_basis_state_digits():
    layout = SubsystemLayout((2, 3, 2))
    s = StateVector.basis(layout, (1, 2, 0))
    # big-endian: first subsystem is the slowest-varying index
    assert s.amplitudes[1 * 6 + 2 * 2 + 0] == 1.0


def test_tensor_products_follow_kron():
    rng = np.random.default_rng(5)
    a = random_state(rng, (2,))
    b = random_state(rng, (3,))
    ab = tensor_states(a, b)
    assert np.allclose(ab.amplitudes, np.kron(a.amplitudes, b.amplitudes))


def test_layout_concat_dedups_labels():
    a = qubits(2)
    b = qubits(2)
    c = concat_layouts(a, b)
    assert len(set(c.labels)) == 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), site=st.integers(0, 3))
def test_apply_local_matches_embedded_operator(seed, site):
    rng = np.random.default_rng(seed)
    layout = qubits(4)
    psi = random_state(rng, (2,) * 4)
    op = random_unitary(rng, 2)
    direct = apply_local(psi, op, (site,))
    full = embed_operator(layout, op, (site,))
    assert np.allclose(direct.amplitudes, full @ psi.amplitudes, atol=1e-12)


def test_apply_local_two_site_matches_embedding():
    rng = np.random.default_rng(9)
    layout = SubsystemLayout((2, 3, 2, 2))
    psi = random_state(rng, (2, 3, 2, 2))
    op = random_unitary(rng, 4)
    # non-adjacent, reversed-order sites exercise the axis bookkeeping
    direct = apply_local(psi, op, (3, 0))
    full = embed_operator(layout, op, (3, 0))
    assert np.allclose(direct.amplitudes, full @ psi.amplitudes, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    data=st.data(),
    seed=st.integers(0, 10**6),
)
def test_apply_local_matches_moveaxis_route_bit_for_bit(dims, data, seed):
    """One transpose and its inverse move the same axes as two moveaxis calls."""
    n_sites = data.draw(st.integers(1, min(3, len(dims))))
    sites = tuple(data.draw(st.permutations(range(len(dims))))[:n_sites])
    rng = np.random.default_rng(seed)
    psi = random_state(rng, dims)
    op = random_unitary(rng, int(np.prod([dims[s] for s in sites])))
    got = apply_local(psi, op, sites)
    assert np.array_equal(got.amplitudes, moveaxis_apply_local(psi, op, sites).amplitudes)


def test_embed_operator_identity_elsewhere():
    layout = qubits(3)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    full = embed_operator(layout, x, (1,))
    assert np.allclose(full, np.kron(np.kron(np.eye(2), x), np.eye(2)))


# ---------------------------------------------------------------- measures

def test_fidelity_and_global_phase_equality():
    rng = np.random.default_rng(2)
    psi = random_state(rng, (2, 2))
    shifted = StateVector(psi.amplitudes * np.exp(0.7j), psi.layout)
    assert abs(fidelity(psi, shifted) - 1) < 1e-12
    assert fidelity(psi, shifted) >= 1 - 1e-10
    other = random_state(rng, (2, 2))
    assert fidelity(psi, other) <= 1 + 1e-12


def test_schmidt_spectrum_ghz_and_w():
    ghz = StateVector.from_amplitudes(
        np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex), qubits(3)
    )
    assert np.allclose(schmidt_spectrum(ghz, (0,)), [2**-0.5, 2**-0.5], atol=1e-12)
    w = StateVector.from_amplitudes(
        np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex), qubits(3)
    )
    # reduced spectrum of one leg: eigenvalues 2/3 and 1/3
    assert np.allclose(schmidt_spectrum(w, (0,)), [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_schmidt_spectrum_properties(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, (2, 2, 2, 2))
    sv = schmidt_spectrum(psi, (0, 2))
    assert np.all(np.diff(sv) <= 1e-15)  # descending
    assert abs(np.sum(sv**2) - 1) < 1e-10
    comp = schmidt_spectrum(psi, (1, 3))
    assert np.allclose(sv, comp, atol=1e-10)


def test_schmidt_rejects_improper_partition():
    psi = StateVector.basis(qubits(2), 0)
    with pytest.raises(LayoutError):
        schmidt_spectrum(psi, ())
    with pytest.raises(LayoutError):
        schmidt_spectrum(psi, (0, 1))


# ---------------------------------------------------------------- two branches

def test_two_branch_validation():
    s = 1 / np.sqrt(2)
    reg = TwoBranch(3, 0b010, s, 1j * s)
    assert (type(reg.a), type(reg.b)) == (complex, complex)
    for n, pattern in ((0, 0), (3, -1), (3, 8), (2, 0b111)):
        with pytest.raises(LayoutError):
            TwoBranch(n, pattern, s, s)
    with pytest.raises(NormalizationError):
        TwoBranch(3, 0, 1.0, 1.0)
    TwoBranch(3, 0, 1.0 + 5e-10, 0.0)  # inside the StateVector tolerance
    with pytest.raises(NormalizationError):
        TwoBranch(3, 0, 1.0 + 2e-9, 0.0)
    for a, b in ((float("nan"), 0.0), (1.0, float("nan")), (float("inf"), 0.0), (0.0, -np.inf)):
        with pytest.raises(NormalizationError):
            TwoBranch(2, 0, a, b)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    bits=st.integers(0, 2**6 - 1),
    weight=st.floats(0.0, 1.0),
    phase=st.floats(-np.pi, np.pi),
)
def test_two_branch_ghz_fidelity_matches_dense_overlap(n, bits, weight, phase):
    """Zero off the patterns 0 and 1..1; on them, the dense overlap with
    canonical GHZ to 4 eps (equal bit for bit from three qubits up)."""
    p = bits % 2**n
    reg = TwoBranch(n, p, np.sqrt(weight), np.exp(1j * phase) * np.sqrt(1 - weight))
    ghz = np.zeros(2**n, dtype=np.complex128)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    dense = fidelity(dense_two_branch(reg, "q"), StateVector(ghz, qubits(n)))
    if p not in (0, 2**n - 1):
        assert reg.ghz_fidelity() == 0.0 and dense == 0.0
    else:
        assert reg.ghz_fidelity() == pytest.approx(dense, rel=0, abs=4 * np.finfo(float).eps)
        if n >= 3:
            assert reg.ghz_fidelity() == dense
