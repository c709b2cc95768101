"""Conversion of dual-rail photonic entanglement into polarization entanglement.

Each logical photon occupies two frequency rails, represented as a pair of
occupation qubits: |10> means the photon sits on the shifted rail, |01> on
the original one.  Downconversion plus beam-splitter routing with a
heralding detector turns rail superpositions into polarization
superpositions; the elements are modeled as exact logical branch maps with
scalar success probabilities.  Two source photons feed one heralded
polarization photon, so a 2q-photon dual-rail register yields q
polarization qubits and the herald probabilities multiply.

The register arrives from the swap as two complementary branches on 2m
rail qubits (``hilbert.TwoBranch``), never as a dense 4^m rail vector, and
the conversion maps branch to branch, to a ``TwoBranch`` on q = m/2
polarization qubits; the dense forms are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import LayoutError, RailSubspaceError
from .hilbert import TwoBranch

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


def convert_register(rails: TwoBranch, spec: ConversionSpec) -> tuple[TwoBranch, float]:
    """Convert a two-branch dual-rail register, two source photons per output photon.

    ``rails.pattern`` holds two big-endian bits per photon, |10> for the
    shifted rail and |01> for the original one, and the second branch is
    its complement.  Branch transport per output qubit: |10,10> -> |H>,
    |01,01> -> |V>, so a|p> + b|~p> maps to a|P> + b|~P> on q = m/2
    polarization qubits in O(q).  Every rail pair must hold one excitation,
    the register an even number of photons, and the two photons of each
    pair the same rail; the herald probability is herald_one per output
    photon.
    """
    if rails.n % 2 != 0:
        raise LayoutError("rail register needs two rail qubits per photon")
    m = rails.n // 2
    pairs = [(rails.pattern >> 2 * (m - 1 - i)) & 0b11 for i in range(m)]
    if any(pair not in (_SHIFTED, _ORIGINAL) for pair in pairs):
        raise RailSubspaceError("a rail pair holds zero or two excitations")
    if m % 2 != 0:
        raise LayoutError("register conversion consumes photons in pairs; odd count")
    q = m // 2
    pol = 0
    for i in range(q):
        if pairs[2 * i] != pairs[2 * i + 1]:
            raise RailSubspaceError(
                f"photons {2 * i} and {2 * i + 1} sit on different rails; "
                "need both on the shifted or both on the original rail"
            )
        pol = (pol << 1) | int(pairs[2 * i] == _ORIGINAL)
    return TwoBranch(q, pol, rails.a, rails.b), spec.herald_one**q
