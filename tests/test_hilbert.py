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
    apply_local,
    fidelity,
    qubits,
    schmidt_spectrum,
)
from oracle_register import concat_layouts, embed_operator, tensor_states


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

