"""Conversion of dual-rail photonic entanglement into polarization entanglement.

Each logical photon occupies two frequency rails, represented as a pair of
occupation qubits: |10> means the photon sits on the shifted rail, |01> on
the original one.  Downconversion plus beam-splitter routing with a
heralding detector turns rail superpositions into polarization
superpositions; the elements are modeled as exact logical branch maps with
scalar success probabilities.  Two source photons feed one heralded
polarization photon, so a 2q-photon dual-rail register yields q
polarization qubits and the herald probabilities multiply.

The register arrives from the swap as two complementary branches
(``TwoBranchRails``), never as a dense 4^m rail vector, and the conversion
maps branch to branch; the dense forms are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, RailSubspaceError
from .hilbert import StateVector, qubits

# big-endian pair indices within one photon's two rail qubits
_SHIFTED = 2  # |10>
_ORIGINAL = 1  # |01>


@dataclass(frozen=True)
class ConversionSpec:
    """Success probabilities of the downconversion and heralding elements."""

    eta_bbo: float = 1.0
    detector_efficiency: float = 1.0

    def __post_init__(self):
        for label, p in (
            ("eta_bbo", self.eta_bbo),
            ("detector_efficiency", self.detector_efficiency),
        ):
            if not 0 < p <= 1:
                raise ValueError(f"{label} must lie in (0, 1], got {p}")

    @property
    def herald_one(self) -> float:
        """Herald probability for a single converted photon."""
        return self.eta_bbo * self.detector_efficiency


@dataclass(frozen=True)
class TwoBranchRails:
    """Dual-rail register a|p> + b|~p>: one rail pattern and two amplitudes.

    ``pattern`` holds two big-endian bits per photon, |10> for the shifted
    rail and |01> for the original one; the second branch is its bitwise
    complement, so both branches carry one excitation in every rail pair.
    """

    n_photons: int
    pattern: int
    a: complex
    b: complex

    def __post_init__(self):
        if self.n_photons < 1 or not 0 <= self.pattern < 4**self.n_photons:
            raise LayoutError("rail pattern needs one bit pair per photon")
        if any(pair not in (_SHIFTED, _ORIGINAL) for pair in self.pairs()):
            raise RailSubspaceError("a rail pair holds zero or two excitations")

    def pairs(self) -> list[int]:
        """Rail bits of each photon in the first branch, first photon first."""
        m = self.n_photons
        return [(self.pattern >> 2 * (m - 1 - i)) & 0b11 for i in range(m)]


def convert_register(rails: TwoBranchRails, spec: ConversionSpec) -> tuple[StateVector, float]:
    """Convert a two-branch dual-rail register, two source photons per output photon.

    Branch transport per output qubit: |10,10> -> |H>, |01,01> -> |V>, so
    a|p> + b|~p> maps to a|P> + b|~P> on q = m/2 polarization qubits in O(q).
    The register must hold an even number of photons, and the two photons
    of each pair must sit on the same rail; the herald probability is
    herald_one per output photon.
    """
    m = rails.n_photons
    if m % 2 != 0:
        raise LayoutError("register conversion consumes photons in pairs; odd count")
    q = m // 2
    pairs = rails.pairs()
    pol = 0
    for i in range(q):
        if pairs[2 * i] != pairs[2 * i + 1]:
            raise RailSubspaceError(
                f"photons {2 * i} and {2 * i + 1} sit on different rails; "
                "need both on the shifted or both on the original rail"
            )
        pol = (pol << 1) | int(pairs[2 * i] == _ORIGINAL)
    out = np.zeros(2**q, dtype=np.complex128)
    out[pol] = rails.a
    out[pol ^ (2**q - 1)] = rails.b
    return StateVector(out, qubits(q, prefix="pol")), spec.herald_one**q


def polarization_ghz(n: int) -> StateVector:
    """(|H...H> + |V...V>)/sqrt(2) on n polarization qubits."""
    if n < 1:
        raise ValueError("need at least one photon")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps, qubits(n, prefix="pol"))
