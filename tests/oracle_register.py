"""Dense register tools that only tests use, and the oracle for ``execute``.

The package runs a schedule by applying each two-dot exponential or pulse
locally (``entpipe.spin_register.execute``).  ``dense_execute`` instead
embeds every generator and pulse in the full 2^n register space
(``embed_operator``) and multiplies dense Pade exponentials, so the fast
path's axis bookkeeping is checked against an independent route.

The other helpers build test states and check them: product states
(``tensor_states``), one block merge at a time (``merge_blocks``, which the
dense storage oracle uses) and the phase-and-flip correction that takes a
two-branch state to canonical GHZ (``canonical_correction``).  Only tests
import this module.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg

from entpipe.errors import LayoutError, NotGhzClassError, ScheduleError
from entpipe.hilbert import StateVector, SubsystemLayout, apply_local, qubits
from entpipe.spin_register import (
    SIGMA_X,
    Schedule,
    _apply_step,
    _merge_pair_steps,
    plus_register,
    rotation,
)

# Largest |rho_ab - rho_a (x) rho_b| entry that still counts as uncorrelated.
_CORRELATION_TOL = 1e-8


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


def dense_execute(schedule: Schedule) -> StateVector:
    """Run a schedule from |+>^n through full-space dense exponentials only."""
    layout = qubits(schedule.n_dots)
    amps = plus_register(schedule.n_dots).amplitudes.copy()
    for st in schedule.steps:
        if st.coupling is not None:
            h = embed_operator(layout, st.coupling.matrix(), st.coupling.pair)
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
        state = _apply_step(state, st)
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
