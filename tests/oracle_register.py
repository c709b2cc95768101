"""Dense register tools that only tests use, and the oracle for ``execute``.

The package runs a schedule one group gate at a time: consecutive steps on
at most three dots are composed into one gate, applied locally
(``entpipe.spin_register.execute``).  Two oracles check it.
``step_execute`` applies every step on its own, each two-dot gate in
closed form and each pulse locally (``apply_step``, the route ``execute``
took before steps were grouped).  ``dense_execute`` instead builds every
coupling generator from Pauli matrices (``coupling_matrix``), embeds it
and every pulse in the full 2^n register space (``embed_operator``) and
multiplies dense Pade exponentials, so both the closed-form gates and the
fast path's axis bookkeeping are checked against an independent route.
``moveaxis_apply_local`` is the earlier form of ``hilbert.apply_local``
(axes moved by ``np.moveaxis`` rather than one transpose and its inverse),
kept to check that the two agree bit for bit.

The other helpers build test states and check them: the two-dot Bell
schedule (``build_bell``), product states (``tensor_states``), one block
merge at a time (``merge_blocks``, which the dense storage oracle uses),
the phase-and-flip correction that takes a
two-branch state to canonical GHZ (``canonical_correction``) and the
per-layer recount of a schedule's coupling intervals
(``report_from_schedule``), which checks ``spin_register.plan_ghz``'s
closed-form timing.

The rest are the dense register routes that the two-branch production
route replaced, kept as its oracles: the all-cuts GHZ-class check
(``all_cuts_ghz_class``), the dot-to-rail transport on the full 4^n rail
vector (``dense_register_swap``), the grouped-reshape conversion of that
vector (``dense_convert_register``), the validated dense dual-rail state
with its one-photon conversion (``DualRailState``, ``convert_one``), the
2^n expansion of a ``hilbert.TwoBranch`` value (``dense_two_branch``), and
the dense GHZ states of the register (``canonical_ghz``) and of the
polarization photons (``polarization_ghz``), whose overlaps the two-entry
formula ``hilbert.ghz_fidelity`` replaced.  Only tests import this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from entpipe.errors import LayoutError, NotGhzClassError, RailSubspaceError, ScheduleError
from entpipe.hilbert import (
    StateVector,
    SubsystemLayout,
    TwoBranch,
    apply_local,
    qubits,
    schmidt_spectrum,
)
from entpipe.polarization import _ORIGINAL, _SHIFTED, ConversionSpec
from entpipe.spin_register import (
    _GHZ_TOL,
    Schedule,
    ScheduleStep,
    TimingReport,
    _bell_steps,
    _coupling_gate,
    _merge_pair_steps,
    bipartitions,
    plus_register,
    rotation,
)

# Largest |rho_ab - rho_a (x) rho_b| entry that still counts as uncorrelated.
_CORRELATION_TOL = 1e-8

# Largest weight outside the one-excitation-per-pair rail subspace.
_LEAK_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def heisenberg_matrix(j: float) -> np.ndarray:
    """Two-dot isotropic exchange generator j*(XX + YY + ZZ)."""
    return j * (
        np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
    )


def ising_matrix(j: float) -> np.ndarray:
    """Two-dot longitudinal generator j*(ZZ)."""
    return j * np.kron(SIGMA_Z, SIGMA_Z)


def coupling_matrix(kind: str, strength: float) -> np.ndarray:
    """Generator of a "heisenberg" or "ising" coupling of the given strength."""
    if kind == "heisenberg":
        return heisenberg_matrix(strength)
    return ising_matrix(strength)


def concat_layouts(a: SubsystemLayout, b: SubsystemLayout) -> SubsystemLayout:
    """Layout of a followed by b; repeated labels of b get a prime."""
    labels = a.labels + tuple(lb if lb not in a.labels else f"{lb}'" for lb in b.labels)
    return SubsystemLayout(a.dims + b.dims, labels)


def tensor_states(*states: StateVector) -> StateVector:
    """Kronecker product of states; layouts concatenate left to right."""
    if not states:
        raise LayoutError("tensor_states needs at least one state")
    amps = states[0].amplitudes
    layout = states[0].layout
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        layout = concat_layouts(layout, s.layout)
    return StateVector(amps, layout)


def embed_operator(layout: SubsystemLayout, op: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    """Dense matrix for an operator on ``sites`` extended by identity elsewhere."""
    sites = layout.check_sites(sites)
    dims = layout.dims
    n = len(dims)
    op = np.asarray(op, dtype=np.complex128)
    # kron the operator with identities in permuted order, then permute the
    # tensor axes back so the factors sit at the requested sites.
    order = list(sites) + [i for i in range(n) if i not in sites]
    mat = op
    for i in range(n):
        if i not in sites:
            mat = np.kron(mat, np.eye(dims[i], dtype=np.complex128))
    perm_dims = [dims[i] for i in order]
    mat = mat.reshape(perm_dims + perm_dims)
    inv = np.argsort(order)
    mat = mat.transpose(tuple(inv) + tuple(n + j for j in inv))
    d = layout.total_dim
    return np.ascontiguousarray(mat.reshape(d, d))


def moveaxis_apply_local(state: StateVector, op: np.ndarray, sites: Sequence[int]) -> StateVector:
    """``apply_local`` with the axes moved by two ``np.moveaxis`` calls."""
    sites = state.layout.check_sites(sites)
    dims = state.layout.dims
    op = np.asarray(op, dtype=np.complex128)
    d_site = int(np.prod([dims[s] for s in sites]))
    if op.shape != (d_site, d_site):
        raise LayoutError(f"operator shape {op.shape} does not match site dims {d_site}")
    arr = state.amplitudes.reshape(dims)
    arr = np.moveaxis(arr, sites, range(len(sites)))
    moved_shape = arr.shape
    arr = op @ arr.reshape(d_site, -1)
    arr = np.moveaxis(arr.reshape(moved_shape), range(len(sites)), sites)
    return StateVector(arr.reshape(-1), state.layout)


def apply_step(state: StateVector, st: ScheduleStep) -> StateVector:
    """One schedule step applied to the state on its own."""
    if st.coupling is not None:
        c = st.coupling
        return apply_local(state, _coupling_gate(c.kind, c.strength, st.duration), c.pair)
    p = st.pulse
    if p.z_corrections is not None:
        amps = state.amplitudes * np.exp(1j * p.global_phase)
        out = StateVector(amps, state.layout)
        for dot, phi in sorted(p.z_corrections.items()):
            gate = np.diag([1.0, np.exp(1j * phi)]).astype(np.complex128)
            out = apply_local(out, gate, (dot,))
        return out
    return apply_local(state, rotation(p.angle, p.axis_phase), (p.target,))


def build_bell(j2: float) -> Schedule:
    """Two-dot schedule preparing (|00>+|11>)/sqrt(2) from |+>|+>."""
    return Schedule(_bell_steps(j2, (0, 1)), 2)


def step_execute(schedule: Schedule) -> StateVector:
    """Run a schedule from |+>^n one step at a time."""
    state = plus_register(schedule.n_dots)
    for st in schedule.steps:
        state = apply_step(state, st)
    return state


def dense_execute(schedule: Schedule) -> StateVector:
    """Run a schedule from |+>^n through full-space dense exponentials only."""
    layout = qubits(schedule.n_dots)
    amps = plus_register(schedule.n_dots).amplitudes.copy()
    for st in schedule.steps:
        if st.coupling is not None:
            c = st.coupling
            h = embed_operator(layout, coupling_matrix(c.kind, c.strength), c.pair)
            amps = scipy.linalg.expm(-1j * st.duration * h) @ amps
        elif st.pulse.z_corrections is not None:
            amps = amps * np.exp(1j * st.pulse.global_phase)
            for dot, phi in st.pulse.z_corrections.items():
                g = embed_operator(layout, np.diag([1, np.exp(1j * phi)]), (dot,))
                amps = g @ amps
        else:
            u = rotation(st.pulse.angle, st.pulse.axis_phase)
            amps = embed_operator(layout, u, (st.pulse.target,)) @ amps
    return StateVector(amps, layout)


def report_from_schedule(schedule: Schedule) -> TimingReport:
    """Recount coupling intervals per concurrency layer from the steps.

    Raises ScheduleError when two concurrent steps of one kind in one layer
    differ in duration.  A kind with no layer reads an interval of 0.0.
    """
    layers: dict[tuple[int, str], float] = {}
    for st in schedule.steps:
        if st.coupling is None:
            continue
        key = (st.layer, st.coupling.kind)
        if key in layers and abs(layers[key] - st.duration) > 1e-15:
            raise ScheduleError("concurrent steps in one layer must share a duration")
        layers[key] = st.duration
    ising = [d for (_, kind), d in layers.items() if kind == "ising"]
    heis = [d for (_, kind), d in layers.items() if kind == "heisenberg"]
    return TimingReport(
        len(ising), len(heis), ising[0] if ising else 0.0, heis[0] if heis else 0.0
    )


def merge_blocks(
    state: StateVector,
    contact_a: int,
    contact_b: int,
    j1: float,
    j2: float,
    *,
    canonicalize: bool = False,
) -> StateVector:
    """Absorb the Bell pair at (contact_b, contact_b+1) into the block of contact_a.

    The two contacts must belong to different entangled blocks of the current
    state; this is checked through two-dot correlations.
    """
    n = state.layout.n_subsystems
    state.layout.check_sites((contact_a, contact_b))
    if contact_b + 1 >= n or contact_b + 1 == contact_a:
        raise ScheduleError("pair partner of contact_b must exist and differ from contact_a")
    if _dots_correlated(state, contact_a, contact_b):
        raise ScheduleError(
            f"contacts {contact_a} and {contact_b} are correlated (same block)"
        )
    steps = _merge_pair_steps(contact_a, contact_b, j1, j2, 0, canonicalize)
    for st in steps:
        state = apply_step(state, st)
    return state


def _reduced_density(state: StateVector, sites: Sequence[int]) -> np.ndarray:
    sites = state.layout.check_sites(sites)
    dims = state.layout.dims
    arr = state.amplitudes.reshape(dims)
    arr = np.moveaxis(arr, sites, range(len(sites)))
    d = int(np.prod([dims[s] for s in sites]))
    m = arr.reshape(d, -1)
    return m @ m.conj().T


def _dots_correlated(state: StateVector, a: int, b: int) -> bool:
    rho_ab = _reduced_density(state, (a, b))
    rho_a = _reduced_density(state, (a,))
    rho_b = _reduced_density(state, (b,))
    return float(np.max(np.abs(rho_ab - np.kron(rho_a, rho_b)))) > _CORRELATION_TOL


def canonical_correction(state: StateVector) -> tuple[StateVector, dict]:
    """Find per-dot Z phases plus X flips taking a two-branch state to GHZ.

    Returns the corrected state and a description of the correction.  Raises
    NotGhzClassError when the state has no two-branch computational structure.
    """
    n = state.layout.n_subsystems
    amps = state.amplitudes
    order = np.argsort(np.abs(amps))[::-1]
    i0, i1 = int(order[0]), int(order[1])
    c0, c1 = amps[i0], amps[i1]
    rest = np.linalg.norm(np.delete(amps, [i0, i1]))
    if rest > 1e-6 or abs(abs(c0) - abs(c1)) > 1e-6:
        raise NotGhzClassError("state is not a balanced two-branch computational state")
    if i0 & (2**n - 1 - i1) != i0:
        raise NotGhzClassError("branch patterns are not complementary")
    # Flip every dot that reads 1 in the branch with fewer set bits.
    if bin(i0).count("1") > bin(i1).count("1"):
        i0, i1 = i1, i0
        c0, c1 = c1, c0
    flips = [d for d in range(n) if i0 >> (n - 1 - d) & 1]
    out = state
    for d in flips:
        out = apply_local(out, SIGMA_X, (d,))
    # After the flips the branches sit at |0..0> and |1..1>; one phase gate
    # on dot 0 absorbs the relative branch phase.
    rel = np.angle(out.amplitudes[-1] / out.amplitudes[0])
    gate = np.diag([1.0, np.exp(-1j * rel)]).astype(np.complex128)
    out = apply_local(out, gate, (0,))
    return out, {"x_flips": flips, "z_phase_dot0": float(-rel)}


# ------------------------------------------------------ dense register routes

def all_cuts_ghz_class(state: StateVector) -> bool:
    """True when every bipartition has Schmidt spectrum (1/sqrt2, 1/sqrt2)."""
    target = 1 / np.sqrt(2)
    for part in bipartitions(state.layout.n_subsystems):
        sv = schmidt_spectrum(state, part)
        if abs(sv[0] - target) > _GHZ_TOL or abs(sv[1] - target) > _GHZ_TOL:
            return False
        if sv.size > 2 and np.max(sv[2:]) > _GHZ_TOL:
            return False
    return True


def dense_register_swap(
    register: StateVector, p_success: float | list[float]
) -> tuple[StateVector, float]:
    """Dot register to the full 4^n dual-rail vector, one basis state at a time.

    Accepts every GHZ-class register, two-branch or not.
    """
    n = register.layout.n_subsystems
    if register.layout.dims != (2,) * n:
        raise LayoutError("register must be a qubit register")
    if n > 1 and not all_cuts_ghz_class(register):
        raise NotGhzClassError("register state is not GHZ-class")
    probs = [p_success] * n if np.isscalar(p_success) else list(p_success)
    if len(probs) != n:
        raise ValueError("need one success probability per dot")
    for p in probs:
        if not 0 < p <= 1:
            raise ValueError("success probabilities must lie in (0, 1]")
    herald = float(np.prod(probs))
    amps = register.amplitudes
    out = np.zeros(4**n, dtype=np.complex128)
    for idx in range(2**n):
        if amps[idx] == 0:
            continue
        photonic = 0
        for dot_i in range(n):
            bit = (idx >> (n - 1 - dot_i)) & 1
            rails = 0b01 if bit else 0b10
            photonic = (photonic << 2) | rails
        out[photonic] = amps[idx]
    return StateVector(out, qubits(2 * n, prefix="r")), herald


def dense_two_branch(register: TwoBranch, prefix: str = "r") -> StateVector:
    """The 2^n vector of a two-branch register (4^m for m rail photons)."""
    n = register.n
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[register.pattern] = register.a
    amps[register.pattern ^ (2**n - 1)] = register.b
    return StateVector(amps, qubits(n, prefix=prefix))


def canonical_ghz(n: int) -> StateVector:
    """(|0..0> + |1..1>)/sqrt(2) on n qubits."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps, qubits(n))


def polarization_ghz(n: int) -> StateVector:
    """(|H...H> + |V...V>)/sqrt(2) on n polarization qubits."""
    if n < 1:
        raise ValueError("need at least one photon")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps, qubits(n, prefix="pol"))


@dataclass(frozen=True)
class DualRailState:
    """Validated photonic state with one excitation in every rail pair."""

    state: StateVector

    def __post_init__(self):
        dims = self.state.layout.dims
        if any(d != 2 for d in dims):
            raise LayoutError("dual-rail states live on qubit rails")
        if len(dims) % 2 != 0 or len(dims) == 0:
            raise LayoutError("rails come in pairs, one pair per photon")
        leak = 1.0 - _paired_weight(self.state)
        if leak > _LEAK_TOL:
            raise RailSubspaceError(
                f"weight {leak:.3e} outside the one-excitation-per-pair subspace"
            )

    @property
    def n_photons(self) -> int:
        return self.state.layout.n_subsystems // 2


def _paired_weight(state: StateVector) -> float:
    """Probability weight with every rail pair in {|01>, |10>}."""
    m = state.layout.n_subsystems // 2
    grouped = state.amplitudes.reshape((4,) * m)
    valid = grouped[np.ix_(*([[_ORIGINAL, _SHIFTED]] * m))]
    return float(np.sum(np.abs(valid) ** 2))


def _as_dual_rail(state: StateVector | DualRailState) -> DualRailState:
    if isinstance(state, DualRailState):
        return state
    return DualRailState(state)


def convert_one(
    state: StateVector | DualRailState, spec: ConversionSpec
) -> tuple[StateVector, float]:
    """Convert a single dual-rail photon into a heralded polarization photon.

    The shifted-rail branch becomes |H>, the original-rail branch |V>, with
    amplitudes carried over exactly; the herald probability is the product
    of the downconversion and detection successes.
    """
    rails = _as_dual_rail(state)
    if rails.n_photons != 1:
        raise LayoutError("convert_one expects exactly one rail pair")
    amps = rails.state.amplitudes
    out = np.array([amps[_SHIFTED], amps[_ORIGINAL]], dtype=np.complex128)
    return StateVector(out, qubits(1, prefix="pol")), spec.herald_one


def dense_convert_register(
    state: StateVector | DualRailState, spec: ConversionSpec
) -> tuple[StateVector, float]:
    """Convert a dense dual-rail register, two source photons per output photon.

    Branch transport per output qubit: |10,10> -> |H>, |01,01> -> |V>.  The
    register must hold an even number of photons and carry no weight on
    mixed pair branches; the herald probability is herald_one per output
    photon.
    """
    rails = _as_dual_rail(state)
    m = rails.n_photons
    if m % 2 != 0:
        raise LayoutError("register conversion consumes photons in pairs; odd count")
    q = m // 2
    grouped = rails.state.amplitudes.reshape((4,) * m)
    out = np.zeros(2**q, dtype=np.complex128)
    for pattern in range(2**q):
        idx = []
        for i in range(q):
            bit = (pattern >> (q - 1 - i)) & 1
            pair = _ORIGINAL if bit else _SHIFTED
            idx.extend((pair, pair))
        out[pattern] = grouped[tuple(idx)]
    kept = float(np.sum(np.abs(out) ** 2))
    if abs(kept - 1.0) > _LEAK_TOL:
        raise RailSubspaceError(
            f"weight {1 - kept:.3e} on mixed rail branches; need a two-branch register"
        )
    return StateVector(out, qubits(q, prefix="pol")), spec.herald_one**q
