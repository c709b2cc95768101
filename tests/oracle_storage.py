"""Dense state-vector storage route: the test oracle for ``FactoredChain``.

The package stores a chain only in factored form (``entpipe.cat_code``).
This module keeps the full-state-vector route that the factored one must
reproduce: cat and coherent states, closed-form overlaps, the dispersive
coupling, encode/decode into a cavity, chain growth by Bell-pair merging,
QND parity measurement, photon loss, no-jump drift, waiting-time loss
trajectories and repump correction.  Its cost grows as d^k, so it is
practical for a few cavities only.  Only tests import it.

It also keeps the factored route's plain protocol loop: a parity projection
that always masks (``project_parity_full``) and a trajectory that runs every
round itself (``run_protected_unshared``), the references for the parity
field's projection and for the pair prefix that ``cat_code.start_protected``
shares; the chain built from per-cavity columns with each cavity's parity
scanned from them (``chain_from_columns``); the dense state of a chain
(``state_vector``); and the
full-unitary repump that completes the code-space map by Gram-Schmidt
(``recovery_unitary``), the reference for the package's rank-2 map on the
code space.

Last, it keeps the factored loss segment one chain operation at a time
(``loss_segment_by_ops``): drift (``fc_drift``), the numpy jump flux
(``fc_jump_flux``) and cavity draw (``jump_cavity_numpy``), and the loss
(``fc_apply_loss``), each building its chain, with a survival function
that allocates its arrays (``fc_survival``).  ``cat_code.fc_loss_segment``
fuses these steps and must match them bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from entpipe.cat_code import (
    CavitySpec,
    FactoredChain,
    ProtectionResult,
    TrajectoryRecord,
    _fock,
    _jump_time,
    _lowdin,
    _norm_squared,
    _sq_norms,
    cat_column,
    coherent_column,
    factored_chain,
    fc_loss_segment,
    fc_parity_probability,
    fc_repump,
    recovery_matrix,
    required_levels,
)
from entpipe.errors import (
    ConvergenceError,
    EntpipeError,
    LayoutError,
    NullStateError,
    TruncationError,
)
from entpipe.hilbert import StateVector, SubsystemLayout, apply_local, fidelity, read_only
from oracle_register import merge_blocks, tensor_states

_SUBSPACE_TOL = 1e-6
_GS_TOL = 1e-7


class CodeSubspaceError(EntpipeError):
    """Input state lies outside the logical code subspace."""


class ChainFormError(EntpipeError):
    """State is not of qubit-plus-cat-cavities chain form."""


def _gram_schmidt_complete(fixed: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend fixed orthonormal columns to a full basis, deterministically."""
    basis = [np.asarray(v, dtype=np.complex128) for v in fixed]
    for i in range(dim):
        v = np.zeros(dim, dtype=np.complex128)
        v[i] = 1.0
        for _ in range(2):  # second pass restores orthogonality lost to roundoff
            for b in basis:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm > _GS_TOL:
            basis.append(v / nrm)
        if len(basis) == dim:
            break
    if len(basis) != dim:
        raise ConvergenceError("orthonormal completion failed")
    return basis


@dataclass(frozen=True)
class DispersiveCoupling:
    g: float
    delta: float

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("dispersive coupling requires nonzero detuning")

    def phase_angle(self, t: float) -> float:
        return self.g**2 * t / self.delta


def coherent(alpha: complex, n_max: int) -> StateVector:
    col = coherent_column(alpha, n_max)
    defect = abs(1.0 - np.linalg.norm(col) ** 2)
    if defect > 1e-10:
        raise TruncationError(
            f"truncated tail mass {defect:.2e} of |alpha|={abs(alpha):.3f} exceeds 1e-10"
        )
    return StateVector.from_amplitudes(col, SubsystemLayout((n_max + 1,)))


def cat(alpha: complex, sign: int, n_max: int) -> StateVector:
    if n_max < required_levels(alpha):
        raise TruncationError(f"n_max={n_max} too small for |alpha|={abs(alpha):.3f}")
    return StateVector(cat_column(alpha, sign, n_max), SubsystemLayout((n_max + 1,)))


def vacuum(n_max: int) -> StateVector:
    return StateVector.basis(SubsystemLayout((n_max + 1,)), 0)


def coherent_overlap(a: complex, b: complex) -> complex:
    """Closed form <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    return np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + np.conj(a) * b)


def cat_normalization(alpha: complex, sign: int) -> float:
    """Closed-form prefactor 1/sqrt(2(1 + sign e^{-2|a|^2}))."""
    return 1.0 / np.sqrt(2 * (1 + sign * np.exp(-2 * abs(alpha) ** 2)))


def cat_overlap(a: complex, b: complex) -> complex:
    """Closed-form overlap of two even cats <C_a+|C_b+>."""
    na, nb = cat_normalization(a, 1), cat_normalization(b, 1)
    return 2 * na * nb * (coherent_overlap(a, b) + coherent_overlap(a, -b))


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(np.complex128)


def parity_operator(dim: int) -> np.ndarray:
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def mean_photon(state: StateVector) -> float:
    if state.layout.n_subsystems != 1:
        raise LayoutError("mean_photon expects a single-cavity state")
    n = np.arange(state.layout.total_dim)
    return float(np.sum(n * np.abs(state.amplitudes) ** 2))


# --------------------------------------------------------------- dispersive

def dispersive_rotation(state: StateVector, coupling: DispersiveCoupling, t: float) -> StateVector:
    """Conditional cavity rotation |0><0| x e^{-i theta n} + |1><1| x 1.

    theta = g^2 t / delta; the branch-|0> cavity amplitude turns by e^{-i theta}.
    """
    dims = state.layout.dims
    if len(dims) != 2 or dims[0] != 2:
        raise LayoutError("dispersive rotation expects layout (qubit, cavity)")
    theta = coupling.phase_angle(t)
    rot = np.exp(-1j * theta * np.arange(dims[1]))
    u = np.zeros((2 * dims[1], 2 * dims[1]), dtype=np.complex128)
    u[: dims[1], : dims[1]] = np.diag(rot)
    u[dims[1] :, dims[1] :] = np.eye(dims[1])
    return apply_local(state, u, (0, 1))


# ----------------------------------------------------------- encode / decode

def encode_unitary(spec: CavitySpec) -> np.ndarray:
    """Unitary on (qubit, qubit, cavity) storing a shared bit in a cat axis.

    On the code subspace: |0,0,vac> -> |0,0,C_a+> and |1,1,vac> -> |0,1,C_ia+>
    (first qubit freed); the orthogonal complement is completed by
    deterministic Gram-Schmidt.
    """
    d = spec.dim
    total = 4 * d
    e00 = np.zeros(total, dtype=np.complex128)
    e00[0] = 1.0  # |0,0,vac>
    e11 = np.zeros(total, dtype=np.complex128)
    e11[3 * d] = 1.0  # |1,1,vac>
    t00 = np.zeros(total, dtype=np.complex128)
    t00[0:d] = cat_column(spec.alpha, 1, spec.n_max)  # |0,0,C+>
    t11 = np.zeros(total, dtype=np.complex128)
    t11[d : 2 * d] = cat_column(1j * spec.alpha, 1, spec.n_max)  # |0,1,C'>
    sources = [e00, e11]
    targets = [t00, t11]  # exactly orthonormal (second qubit differs)
    full_s = _gram_schmidt_complete(sources, total)
    full_t = _gram_schmidt_complete(targets, total)
    s_mat = np.stack(full_s, axis=1)
    t_mat = np.stack(full_t, axis=1)
    return t_mat @ s_mat.conj().T


def _code_subspace_weight(state: StateVector, sites: tuple[int, int, int]) -> float:
    """Weight of the state in span{|00>,|11>} x vacuum on the given sites."""
    dims = state.layout.dims
    d = dims[sites[2]]
    arr = state.amplitudes.reshape(dims)
    arr = np.moveaxis(arr, sites, (0, 1, 2))
    w = np.linalg.norm(arr[0, 0, 0]) ** 2 + np.linalg.norm(arr[1, 1, 0]) ** 2
    return float(w)


def encode(
    state: StateVector, spec: CavitySpec, sites: tuple[int, int, int] = (0, 1, 2)
) -> StateVector:
    """Store the shared bit of a dot pair into a fresh cavity's cat axis.

    ``sites`` = (freed dot, kept dot, cavity).  The input must live in the
    code subspace a|00,vac> + b|11,vac> on those sites (entangled bystanders
    are fine).
    """
    dims = state.layout.dims
    if dims[sites[0]] != 2 or dims[sites[1]] != 2 or dims[sites[2]] != spec.dim:
        raise LayoutError("encode sites must be (qubit, qubit, cavity of spec dimension)")
    if _code_subspace_weight(state, sites) < 1 - _SUBSPACE_TOL:
        raise CodeSubspaceError("input is not a|00,vac> + b|11,vac> on the encode sites")
    return apply_local(state, encode_unitary(spec), sites)


def decode(
    state: StateVector, spec: CavitySpec, sites: tuple[int, int, int] = (0, 1, 2)
) -> StateVector:
    """Inverse of ``encode`` on the given sites."""
    return apply_local(state, encode_unitary(spec).conj().T, sites)


# ------------------------------------------------------------- chain states

def chain_state(
    spec: CavitySpec, k: int, weights: tuple[complex, complex] = None
) -> StateVector:
    """Explicit chain target: w0|0>|C_a+>^k + w1|1>|C_ia+>^k."""
    if weights is None:
        weights = (2**-0.5, 2**-0.5)
    plus = cat_column(spec.alpha, 1, spec.n_max)
    rot = cat_column(1j * spec.alpha, 1, spec.n_max)
    b0 = np.array([1.0], dtype=np.complex128)
    b1 = np.array([1.0], dtype=np.complex128)
    for _ in range(k):
        b0 = np.kron(b0, plus)
        b1 = np.kron(b1, rot)
    amps = np.concatenate([weights[0] * b0, weights[1] * b1])
    layout = SubsystemLayout((2,) + (spec.dim,) * k)
    return StateVector.from_amplitudes(amps, layout)


def chain_weights(state: StateVector, spec: CavitySpec) -> tuple[complex, complex, float]:
    """Project onto the two chain branches; returns (w0, w1, residual)."""
    dims = state.layout.dims
    if dims[0] != 2 or any(d != spec.dim for d in dims[1:]):
        raise ChainFormError("layout is not (qubit, cavities...) at the configured cavity dimension")
    k = len(dims) - 1
    plus = cat_column(spec.alpha, 1, spec.n_max)
    rot = cat_column(1j * spec.alpha, 1, spec.n_max)
    arr = state.amplitudes.reshape(2, -1)
    v0 = np.array([1.0], dtype=np.complex128)
    v1 = np.array([1.0], dtype=np.complex128)
    for _ in range(k):
        v0 = np.kron(v0, plus)
        v1 = np.kron(v1, rot)
    w0 = complex(np.vdot(v0, arr[0]))
    w1 = complex(np.vdot(v1, arr[1]))
    residual = 1.0 - abs(w0) ** 2 - abs(w1) ** 2
    return w0, w1, float(max(residual, 0.0))


def _drop_zero_qubit(state: StateVector, site: int) -> StateVector:
    """Remove a qubit subsystem known to sit in |0> (weight >= 1 - 1e-9)."""
    dims = state.layout.dims
    arr = state.amplitudes.reshape(dims)
    taken = np.moveaxis(arr, site, 0)[0]
    nrm = np.linalg.norm(taken)
    if nrm < 1 - 1e-9:
        raise ChainFormError(f"subsystem {site} is not in |0>")
    new_dims = tuple(d for i, d in enumerate(dims) if i != site)
    return StateVector.from_amplitudes(taken.reshape(-1), SubsystemLayout(new_dims))


_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def extend_chain(state: StateVector, fresh_bell: StateVector, spec: CavitySpec) -> StateVector:
    """Grow a k-cavity chain to k+1 using a fresh Bell pair and cavity.

    The Bell pair is absorbed into the chain qubit with the register merge
    recipe, the aligned pair is encoded into the new cavity, the leftover
    correlation is cleared with a controlled flip, and the two freed qubits
    (both in |0>) are dropped.
    """
    dims = state.layout.dims
    if dims[0] != 2 or any(d != spec.dim for d in dims[1:]):
        raise ChainFormError("state is not (qubit, cavities...) at the configured cavity dimension")
    k = len(dims) - 1
    if k > 0:
        _, _, residual = chain_weights(state, spec)
        if residual > _SUBSPACE_TOL:
            raise ChainFormError(f"chain-form residual {residual:.2e} too large")
    bell_target = StateVector.from_amplitudes(
        np.array([1, 0, 0, 1], dtype=np.complex128), SubsystemLayout((2, 2))
    )
    if fidelity(fresh_bell, bell_target) < 1 - _SUBSPACE_TOL:
        raise ChainFormError("fresh_bell is not a (|00>+|11>)/sqrt(2) pair")
    big = tensor_states(state, fresh_bell, vacuum(spec.n_max))
    q2, q3, cav = k + 1, k + 2, k + 3
    big = merge_blocks(big, 0, q2, 1.0, 1.0, canonicalize=True)
    big = encode(big, spec, (q2, q3, cav))
    big = apply_local(big, _CNOT, (0, q3))
    big = _drop_zero_qubit(big, q3)
    big = _drop_zero_qubit(big, q2)
    target = chain_state(spec, k + 1)
    if fidelity(big, target) < 1 - _SUBSPACE_TOL:
        raise ChainFormError("extension did not reach the expected chain form")
    return big


def logical_fidelity(state: StateVector, spec: CavitySpec) -> float:
    """Overlap squared with the nominal balanced chain at the configured amplitude."""
    k = state.layout.n_subsystems - 1
    return fidelity(state, chain_state(spec, k))


# -------------------------------------------------------- cavity bookkeeping

def _cavity_sites(layout: SubsystemLayout) -> tuple[int, ...]:
    return tuple(i for i, d in enumerate(layout.dims) if d > 2)


def _site_of_cavity(state: StateVector, j: int) -> int:
    cavs = _cavity_sites(state.layout)
    if not 0 <= j < len(cavs):
        raise LayoutError(f"cavity index {j} out of range (state has {len(cavs)} cavities)")
    return cavs[j]


def parity_measure(
    state: StateVector, j: int, rng: np.random.Generator | None = None
) -> tuple[int, StateVector, float]:
    """QND photon-number parity measurement of cavity j.

    Returns (outcome, collapsed state, probability of that outcome).  The
    outcome is sampled when an ``rng`` is supplied; without one the call only
    succeeds if the outcome is deterministic to 1e-9.
    """
    site = _site_of_cavity(state, j)
    dims = state.layout.dims
    arr = np.moveaxis(state.amplitudes.reshape(dims), site, 0)
    even_mask = (np.arange(dims[site]) % 2 == 0)
    p_even = float(np.linalg.norm(arr[even_mask]) ** 2)
    p_even = min(max(p_even, 0.0), 1.0)
    if rng is not None:
        outcome = 1 if rng.random() < p_even else -1
    elif p_even >= 1 - 1e-9:
        outcome = 1
    elif p_even <= 1e-9:
        outcome = -1
    else:
        raise ValueError("parity outcome is stochastic; supply an rng to sample it")
    keep = even_mask if outcome == 1 else ~even_mask
    prob = p_even if outcome == 1 else 1 - p_even
    collapsed = arr.copy()
    collapsed[~keep] = 0.0
    collapsed = np.moveaxis(collapsed, 0, site).reshape(-1)
    collapsed_state = StateVector.from_amplitudes(collapsed, state.layout)
    return outcome, collapsed_state, prob


def _site_matrix(amps: np.ndarray, dims: tuple[int, ...], mat: np.ndarray, site: int) -> np.ndarray:
    """Apply a (possibly non-unitary) matrix to one subsystem; raw amplitudes."""
    arr = np.moveaxis(amps.reshape(dims), site, 0)
    out = np.tensordot(mat, arr, axes=([1], [0]))
    return np.moveaxis(out, 0, site).reshape(-1)


def apply_loss(state: StateVector, j: int) -> StateVector:
    """Apply the annihilation operator to cavity j and renormalize."""
    site = _site_of_cavity(state, j)
    raw = _site_matrix(state.amplitudes, state.layout.dims, annihilation(state.layout.dims[site]), site)
    return StateVector.from_amplitudes(raw, state.layout)


def no_jump_drift(state: StateVector, kappas: list[float], tau: float) -> StateVector:
    """Deterministic between-jump evolution exp(-kappa tau n/2), renormalized."""
    dims = state.layout.dims
    cavs = _cavity_sites(state.layout)
    if len(kappas) != len(cavs):
        raise LayoutError("one kappa per cavity required")
    arr = state.amplitudes.reshape(dims)
    for site, kap in zip(cavs, kappas):
        decay = np.exp(-kap * tau * np.arange(dims[site]) / 2)
        shape = [1] * len(dims)
        shape[site] = dims[site]
        arr = arr * decay.reshape(shape)
    return StateVector.from_amplitudes(arr.reshape(-1), state.layout)


def _rate_vector(layout: SubsystemLayout, kappas: list[float]) -> np.ndarray:
    """Total decay rate kappa_j * n_j summed over cavities, per basis index."""
    dims = layout.dims
    rates = np.zeros(dims, dtype=float)
    for site, kap in zip(_cavity_sites(layout), kappas):
        shape = [1] * len(dims)
        shape[site] = dims[site]
        rates = rates + kap * np.arange(dims[site]).reshape(shape)
    return rates.reshape(-1)


def loss_trajectory(
    state: StateVector, duration: float, specs: list[CavitySpec], seed
) -> TrajectoryRecord:
    """Sample one photon-loss trajectory over ``duration``.

    Waiting times are drawn exactly by solving the survival equation
    ||exp(-sum kappa n t/2) psi||^2 = r; each jump applies one annihilation
    operator to a cavity chosen with probability proportional to its loss
    flux kappa_j <n_j>.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    cavs = _cavity_sites(state.layout)
    if len(specs) != len(cavs):
        raise LayoutError("one CavitySpec per cavity required")
    for site, spec in zip(cavs, specs):
        if state.layout.dims[site] != spec.dim:
            raise LayoutError("CavitySpec dimension mismatch")
    kappas = [s.kappa for s in specs]
    rng = np.random.default_rng(seed)
    rates = _rate_vector(state.layout, kappas)
    amps = state.amplitudes.copy()
    t = 0.0
    jumps: list[list[float]] = [[] for _ in cavs]
    while t < duration:
        r = rng.random()
        weights = np.abs(amps) ** 2

        def survival(tau):
            return float(np.sum(weights * np.exp(-rates * tau)))

        remaining = duration - t
        if survival(remaining) >= r:
            amps = amps * np.exp(-rates * remaining / 2)
            amps /= np.linalg.norm(amps)
            break
        tau_star = brentq(lambda x: survival(x) - r, 0.0, remaining, xtol=1e-16, rtol=1e-14)
        amps = amps * np.exp(-rates * tau_star / 2)
        amps /= np.linalg.norm(amps)
        t += tau_star
        # channel choice by loss flux at the jump moment
        flux = np.array(
            [
                kap
                * np.linalg.norm(
                    _site_matrix(amps, state.layout.dims, annihilation(state.layout.dims[site]), site)
                )
                ** 2
                for site, kap in zip(cavs, kappas)
            ]
        )
        j = int(rng.choice(len(cavs), p=flux / flux.sum()))
        amps = _site_matrix(amps, state.layout.dims, annihilation(state.layout.dims[cavs[j]]), cavs[j])
        amps /= np.linalg.norm(amps)
        jumps[j].append(t)
    final = StateVector.from_amplitudes(amps, state.layout)
    return TrajectoryRecord(
        jump_times=tuple(tuple(js) for js in jumps),
        parity_outcomes=tuple(() for _ in cavs),
        measurement_times=(),
        seed=int(seed),
        final_state=final,
    )


def recovery_unitary(spec: CavitySpec, decayed_alpha: complex) -> np.ndarray:
    """``cat_code.recovery_matrix`` completed to a full unitary.

    The Loewdin sources and targets are each completed to a basis by
    deterministic Gram-Schmidt, so the map agrees with the package's rank-2
    one on the code space, and carries the complement's rounding residue
    onto odd Fock numbers.
    """
    n_max = spec.n_max
    src = _lowdin(
        [cat_column(decayed_alpha, -1, n_max), cat_column(1j * decayed_alpha, -1, n_max)]
    )
    tgt = _lowdin(
        [cat_column(spec.alpha, 1, n_max), -1j * cat_column(1j * spec.alpha, 1, n_max)]
    )
    full_s = _gram_schmidt_complete(src, n_max + 1)
    full_t = _gram_schmidt_complete(tgt, n_max + 1)
    return np.stack(full_t, axis=1) @ np.stack(full_s, axis=1).conj().T


def repump_correct(
    state: StateVector,
    syndrome: list[int],
    spec: CavitySpec,
    decayed_alphas: list[complex],
) -> StateVector:
    """Apply the repump isometry to every cavity with a -1 syndrome."""
    cavs = _cavity_sites(state.layout)
    if len(syndrome) != len(cavs):
        raise LayoutError("syndrome length must match the number of cavities")
    if len(decayed_alphas) != len(cavs):
        raise LayoutError("one decayed amplitude per cavity required")
    out = state
    for j, (s, a_dec) in enumerate(zip(syndrome, decayed_alphas)):
        if s == -1:
            out = apply_local(out, recovery_matrix(spec, a_dec), (cavs[j],))
    return out


# ------------------------------------------------- factored protocol loop

def chain_from_columns(weight0, weight1, branch0, branch1, spec: CavitySpec) -> FactoredChain:
    """A chain holding the given per-cavity columns: the table stacks the
    branch-0 columns in cavity order, then the branch-1 columns.

    Each cavity's parity is scanned from its two columns: +1 when neither
    has odd amplitude, -1 when neither has even amplitude.  A cavity whose
    columns are mixed or disagree raises ``ValueError``: no protocol
    operation makes one.
    """
    columns = tuple(branch0) + tuple(branch1)
    table = np.empty((len(columns), spec.dim), dtype=np.complex128)
    for i, c in enumerate(columns):
        table[i] = c
    parity = []
    for j, (u, v) in enumerate(zip(branch0, branch1)):
        if not (u[1::2].any() or v[1::2].any()):
            parity.append(1)
        elif not (u[::2].any() or v[::2].any()):
            parity.append(-1)
        else:
            raise ValueError(f"cavity {j}'s columns have no common parity")
    return FactoredChain(
        weight0, weight1, spec, read_only(table), tuple(_sq_norms(table).tolist()), tuple(parity)
    )


def state_vector(fc: FactoredChain) -> StateVector:
    """The chain's dense state: w0 |0> (x) branch-0 columns + w1 |1> (x) branch-1."""
    b0 = np.array([1.0], dtype=np.complex128)
    b1 = np.array([1.0], dtype=np.complex128)
    for u, v in zip(*branch_columns(fc)):
        b0 = np.kron(b0, u)
        b1 = np.kron(b1, v)
    amps = np.concatenate([fc.weight0 * b0, fc.weight1 * b1])
    return StateVector.from_amplitudes(amps, SubsystemLayout((2,) + (fc.spec.dim,) * fc.k))


def branch_columns(fc: FactoredChain) -> tuple[np.ndarray, np.ndarray]:
    """Each branch's per-cavity columns: the first and the second k rows of
    the chain's table, as views."""
    return fc.table[: fc.k], fc.table[fc.k :]


def project_parity_full(fc: FactoredChain, j: int, outcome: int) -> FactoredChain:
    """Parity projection of cavity j that masks both columns every time.

    Decided from the masked columns, not from ``fc.parity``.  A mask that
    removes nothing leaves the chain as it was, normalisation included; one
    that leaves no amplitude raises ``NullStateError``; otherwise the chain
    is rebuilt from its columns and renormalised.
    """
    keep = np.arange(fc.spec.dim) % 2 == (0 if outcome == 1 else 1)
    b0, b1 = map(list, branch_columns(fc))
    u, v = np.where(keep, b0[j], 0.0), np.where(keep, b1[j], 0.0)
    if np.array_equal(u, b0[j]) and np.array_equal(v, b1[j]):
        return fc
    b0[j], b1[j] = u, v
    masked = chain_from_columns(fc.weight0, fc.weight1, b0, b1, fc.spec)
    if not masked.norm_squared():
        raise NullStateError(f"outcome {outcome:+d} leaves cavity {j} no amplitude")
    return masked.normalized()


def run_protected_unshared(
    spec: CavitySpec,
    k: int,
    rounds: int,
    syndrome_interval: float,
    seed,
    correct: bool = True,
) -> ProtectionResult:
    """``cat_code.run_protected`` with every round run here, from t = 0.

    Every parity round masks and no prefix is shared, so this is the
    reference for a run that ``cat_code.run_protected`` continues from a
    ``start_protected`` prefix.  The rounds end where the float sum of the
    intervals reaches ``rounds * syndrome_interval``, up to a rounding
    guard, not on a round count: the reference for the package's counted
    loop.
    """
    duration = rounds * syndrome_interval
    if syndrome_interval <= 0:
        raise ValueError("syndrome interval must be positive")
    rng = np.random.default_rng(seed)
    fc = factored_chain(spec, k)
    t = 0.0
    last_repump = np.zeros(k)
    all_jumps: list[list[float]] = [[] for _ in range(k)]
    outcomes: list[list[int]] = [[] for _ in range(k)]
    meas_times: list[float] = []
    while t < duration - 1e-9 * syndrome_interval:
        seg = min(syndrome_interval, duration - t)
        fc, jumps = fc_loss_segment(fc, seg, rng, t_offset=t)
        for j in range(k):
            all_jumps[j].extend(jumps[j])
        t += seg
        meas_times.append(t)
        syndrome = []
        for j in range(k):
            p_even = fc_parity_probability(fc, j)
            out = 1 if rng.random() < p_even else -1
            fc = project_parity_full(fc, j, out)
            outcomes[j].append(out)
            syndrome.append(out)
        if correct:
            for j, s in enumerate(syndrome):
                if s == -1:
                    decayed = spec.alpha * np.exp(-spec.kappa * (t - last_repump[j]) / 2)
                    fc = fc_repump(fc, j, decayed)
                    last_repump[j] = t
    record = TrajectoryRecord(
        jump_times=tuple(tuple(js) for js in all_jumps),
        parity_outcomes=tuple(tuple(o) for o in outcomes),
        measurement_times=tuple(meas_times),
        seed=int(seed),
        final_state=fc,
    )
    record.validate(restored_each_round=correct)
    return ProtectionResult(
        seed=record.seed,
        corrected=correct,
        record=record,
        final_logical_fidelity=fc.logical_fidelity(),
    )


# ------------------------------------------- factored loss, op by op

def renormalised(fc: FactoredChain, table: np.ndarray, parity: tuple[int, ...]) -> FactoredChain:
    """``fc``'s weights on a new table, its rows normed in one reduction and
    the weights scaled by numpy's 1 / sqrt of the chain's squared norm."""
    sq_norms = tuple(_sq_norms(table).tolist())
    scale = 1.0 / np.sqrt(_norm_squared(fc.weight0, fc.weight1, sq_norms))
    return FactoredChain(
        fc.weight0 * scale, fc.weight1 * scale, fc.spec, read_only(table), sq_norms, parity
    )


def fc_drift(fc: FactoredChain, tau: float) -> FactoredChain:
    """No-jump evolution over tau, renormalised: one broadcast multiply into
    a new table.  Every cavity keeps its parity."""
    decay = np.exp(-fc.spec.kappa * tau * np.arange(fc.spec.dim) / 2)
    return renormalised(fc, fc.table * decay, fc.parity)


def lower(col: np.ndarray) -> np.ndarray:
    """Annihilation operator on one Fock column as a shifted multiply.

    Equal, bit for bit, to the dense annihilation matrix times ``col``: each
    output entry of that product has one nonzero term.
    """
    out = np.zeros(col.shape, dtype=np.complex128)
    out[:-1] = np.sqrt(np.arange(1, col.shape[0], dtype=float)) * col[1:]
    return out


def fc_apply_loss(fc: FactoredChain, j: int) -> FactoredChain:
    """A photon lost from cavity j, renormalised; j's parity flips."""
    table = fc.table.copy()
    table[j], table[fc.k + j] = lower(fc.table[j]), lower(fc.table[fc.k + j])
    return renormalised(fc, table, fc.parity[:j] + (-fc.parity[j],) + fc.parity[j + 1 :])


def fc_survival(fc: FactoredChain):
    """No-jump probability tau -> ||exp(-kappa tau n/2) psi||^2 of a
    normalized chain, each evaluation in fresh arrays."""
    weights = np.abs(fc.table) ** 2
    n = np.arange(fc.spec.dim)
    kappa = fc.spec.kappa
    w0, w1 = abs(fc.weight0) ** 2, abs(fc.weight1) ** 2
    k = fc.k

    def survival(tau: float) -> float:
        sums = (weights * np.exp(-kappa * tau * n)).sum(axis=1).tolist()
        return float(w0 * math.prod(sums[:k]) + w1 * math.prod(sums[k:]))

    return survival


def fc_jump_flux(fc: FactoredChain) -> np.ndarray:
    """Loss flux kappa <a^dag a> of every cavity as a numpy array, from one
    weighted row sum over the table and the stored norms; a branch of
    weight zero is left out."""
    k = fc.k
    x = fc.table.view(np.float64)
    lowered = (x * x * _fock(fc.spec.dim).pairs).sum(axis=-1)
    sq_norms = np.array(fc.sq_norms)
    b0 = abs(fc.weight0) ** 2 * math.prod(fc.sq_norms[:k])
    b1 = abs(fc.weight1) ** 2 * math.prod(fc.sq_norms[k:])
    flux = np.zeros(k)
    for b, rows in ((b0, slice(None, k)), (b1, slice(k, None))):
        if b:
            flux += b * lowered[rows] / sq_norms[rows]
    return fc.spec.kappa * flux / (b0 + b1)


def jump_cavity_numpy(flux: np.ndarray, u: float) -> int:
    """``rng.choice(len(flux), p=flux / flux.sum())`` for the draw u, in numpy's
    array steps: cumulative sum, rescaled by its last entry, right-sided search."""
    total = flux.sum()
    if not (np.isfinite(total) and total > 0 and (flux >= 0).all()):
        raise ConvergenceError(f"jump flux {flux.tolist()} is not a distribution")
    cdf = (flux / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def loss_segment_by_ops(
    fc: FactoredChain, duration: float, rng: np.random.Generator, t_offset: float = 0.0
) -> tuple[FactoredChain, list[list[float]]]:
    """``cat_code.fc_loss_segment`` one chain operation at a time: per draw,
    a survival function, then drift; per jump, the flux, the draw and the
    loss, each building its own chain."""
    t = 0.0
    jumps: list[list[float]] = [[] for _ in range(fc.k)]
    if fc.spec.kappa == 0 or fc.k == 0:
        return fc, jumps
    while t < duration:
        r = rng.random()
        remaining = duration - t
        survival = fc_survival(fc)
        at_end = survival(remaining)
        if at_end >= r:
            fc = fc_drift(fc, remaining)
            break
        tau_star = _jump_time(survival, remaining, at_end, r)
        fc = fc_drift(fc, tau_star)
        t += tau_star
        j = jump_cavity_numpy(fc_jump_flux(fc), rng.random())
        fc = fc_apply_loss(fc, j)
        jumps[j].append(t_offset + t)
    return fc, jumps
