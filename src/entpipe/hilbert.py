"""Composite Hilbert spaces: layouts, states, local operators, Schmidt tools.

Subsystems are ordered big-endian: the first subsystem in a layout is the
slowest-varying index of the flat amplitude vector, matching the ordering of
``numpy.kron``.  Global phases are physical here -- no operation silently
renormalizes or strips them.

A qubit register on two complementary branches, a|p> + b|~p>, is held as
its pattern and two amplitudes (``TwoBranch``), never as the 2^n vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, NormalizationError

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered list of subsystem dimensions with optional labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise LayoutError("layout needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise LayoutError(f"every subsystem dimension must be >= 2, got {dims}")
        labels = tuple(self.labels) if self.labels else tuple(f"s{i}" for i in range(len(dims)))
        if len(labels) != len(dims):
            raise LayoutError("label count must match dimension count")
        object.__setattr__(self, "labels", labels)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def check_sites(self, sites: Sequence[int]) -> tuple[int, ...]:
        sites = tuple(int(s) for s in sites)
        if len(set(sites)) != len(sites):
            raise LayoutError(f"repeated subsystem index in {sites}")
        for s in sites:
            if not 0 <= s < self.n_subsystems:
                raise LayoutError(f"subsystem index {s} outside layout of size {self.n_subsystems}")
        return sites


def qubits(n: int, prefix: str = "q") -> SubsystemLayout:
    return SubsystemLayout((2,) * n, tuple(f"{prefix}{i}" for i in range(n)))


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a subsystem layout (immutable)."""

    amplitudes: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.shape[0] != self.layout.total_dim:
            raise LayoutError(
                f"amplitude length {amps.shape[0]} != layout dimension {self.layout.total_dim}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise NormalizationError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, raw, layout: SubsystemLayout) -> "StateVector":
        """Build a state from unnormalized amplitudes (explicit normalization)."""
        raw = np.asarray(raw, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise NormalizationError("cannot normalize an all-zero amplitude vector")
        return cls(raw / norm, layout)

    @classmethod
    def basis(cls, layout: SubsystemLayout, index: int | Sequence[int]) -> "StateVector":
        """Computational basis state, given a flat index or per-subsystem digits."""
        if not isinstance(index, (int, np.integer)):
            flat = 0
            for d, i in zip(layout.dims, index, strict=True):
                if not 0 <= i < d:
                    raise LayoutError(f"basis digit {i} outside subsystem dimension {d}")
                flat = flat * d + int(i)
            index = flat
        amps = np.zeros(layout.total_dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, layout)

    def overlap(self, other: "StateVector") -> complex:
        if self.layout.dims != other.layout.dims:
            raise LayoutError("overlap requires identical layouts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class TwoBranch:
    """Qubit register a|p> + b|~p> on n qubits: one pattern, two amplitudes.

    ``pattern`` holds the n big-endian bits of the first branch; the second
    branch is its bitwise complement.  Like ``StateVector`` it refuses a
    norm off 1 by more than ``_NORM_TOL``.
    """

    n: int
    pattern: int
    a: complex
    b: complex

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.pattern < 2**self.n:
            raise LayoutError(f"pattern {self.pattern} needs one bit per qubit of {self.n}")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        norm = hypot(abs(self.a), abs(self.b))
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise NormalizationError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")

    def ghz_fidelity(self) -> float:
        """Fidelity with (|0..0> + |1..1>)/sqrt(2); 0.0 on any other pattern."""
        if self.pattern == 0:
            return ghz_fidelity(self.a, self.b)
        if self.pattern == 2**self.n - 1:
            return ghz_fidelity(self.b, self.a)
        return 0.0


def ghz_fidelity(x0: complex, x1: complex) -> float:
    """Fidelity with (|0..0> + |1..1>)/sqrt(2) of a normalized state whose
    |0..0> and |1..1> entries are x0 and x1: no other entry enters."""
    s = 1 / np.sqrt(2)
    return float(abs(x0.conjugate() * s + x1.conjugate() * s) ** 2)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place (for arrays held in shared memos)."""
    a.flags.writeable = False
    return a


def apply_local(state: StateVector, op: np.ndarray, sites: Sequence[int]) -> StateVector:
    """Apply an operator that acts only on ``sites`` (in the given order)."""
    sites = state.layout.check_sites(sites)
    dims = state.layout.dims
    op = np.asarray(op, dtype=np.complex128)
    d_site = prod(dims[s] for s in sites)
    if op.shape != (d_site, d_site):
        raise LayoutError(f"operator shape {op.shape} does not match site dims {d_site}")
    arr = apply_on_axes(state.amplitudes.reshape(dims), op, sites)
    return StateVector(arr.reshape(-1), state.layout)


def apply_on_axes(arr: np.ndarray, op: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """``op`` applied to the axes ``sites`` of ``arr`` (in the given order).

    The leading axes of ``arr`` are subsystems; every axis outside ``sites``,
    a trailing column axis included, rides along unchanged.
    """
    perm = sites + tuple(i for i in range(arr.ndim) if i not in sites)
    arr = arr.transpose(perm)
    moved_shape = arr.shape
    arr = op @ arr.reshape(op.shape[0], -1)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return arr.reshape(moved_shape).transpose(inverse)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 (insensitive to global phase)."""
    return float(abs(a.overlap(b)) ** 2)


def schmidt_spectrum(state: StateVector, part: Iterable[int]) -> np.ndarray:
    """Schmidt coefficients (descending) across the bipartition part|rest."""
    part = tuple(sorted(set(int(p) for p in part)))
    n = state.layout.n_subsystems
    if not part or len(part) >= n:
        raise LayoutError("bipartition must be a nonempty proper subset of subsystems")
    state.layout.check_sites(part)
    rest = tuple(i for i in range(n) if i not in part)
    dims = state.layout.dims
    arr = state.amplitudes.reshape(dims).transpose(part + rest)
    d_a = prod(dims[i] for i in part)
    svals = np.linalg.svd(arr.reshape(d_a, -1), compute_uv=False)
    return np.sort(svals)[::-1]

