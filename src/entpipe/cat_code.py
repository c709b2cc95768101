"""Cat-code cavity storage for a register qubit chain.

A logical chain is one qubit plus k cavities holding even cat states, with
the cavity amplitude axis (alpha vs i*alpha) correlated with the qubit:

    (|0> |C_a+>^k + |1> |C_ia+>^k) / sqrt(2)

Photon loss flips a cavity's photon-number parity, so single losses are
detected by quantum non-demolition parity measurements and undone by an
idealized repump isometry.  Trajectory evolution uses exact waiting-time
sampling of jump times (no time grid): between jumps the no-jump drift
exp(-kappa*t*n/2) acts, at a jump the annihilation operator acts.

Full state vectors are practical for a few cavities.  For longer chains the
two-branch product structure is preserved by every protocol operation, so a
factored representation (per-branch, per-cavity Fock columns) evolves
exactly at linear cost; it is cross-checked against the dense route in the
test-suite.

Cost of the factored route for k cavities of dimension d: an operation on
one cavity (loss, parity projection, repump) is O(d); drift, a jump (flux
of every channel) and a parity round are O(kd), plus O(k^2) scalar products
that keep the float results of a from-scratch evaluation bit for bit.  The
fixed matrices are memoised per process in bounded caches that fill on first
use: the nominal code columns per (alpha, n_max) and the repump isometry per
(spec, decayed amplitude).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ChainFormError,
    CodeSubspaceError,
    ConvergenceError,
    LayoutError,
    NullStateError,
    TruncationError,
)
from .hilbert import StateVector, SubsystemLayout, apply_local, fidelity, tensor_states

_SUBSPACE_TOL = 1e-6
_GS_TOL = 1e-7


def required_levels(alpha: complex) -> int:
    """Smallest Fock cutoff with negligible truncated tail for |alpha>."""
    a = abs(alpha)
    return math.ceil(a * a + 8 * a + 10)


@dataclass(frozen=True)
class CavitySpec:
    alpha: complex
    n_max: int
    kappa: float = 0.0

    def __post_init__(self):
        if self.n_max < required_levels(self.alpha):
            raise TruncationError(
                f"n_max={self.n_max} too small for |alpha|={abs(self.alpha):.3f}; "
                f"need at least {required_levels(self.alpha)}"
            )
        if self.kappa < 0:
            raise ValueError("loss rate kappa must be nonnegative")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class DispersiveCoupling:
    g: float
    delta: float

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("dispersive coupling requires nonzero detuning")

    def phase_angle(self, t: float) -> float:
        return self.g**2 * t / self.delta


# ------------------------------------------------------------- Fock builders

def coherent_column(alpha: complex, n_max: int) -> np.ndarray:
    """Exact truncated coherent amplitudes e^{-|a|^2/2} a^n/sqrt(n!)."""
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * alpha / np.sqrt(n)
    return out


def coherent(alpha: complex, n_max: int) -> StateVector:
    col = coherent_column(alpha, n_max)
    defect = abs(1.0 - np.linalg.norm(col) ** 2)
    if defect > 1e-10:
        raise TruncationError(
            f"truncated tail mass {defect:.2e} of |alpha|={abs(alpha):.3f} exceeds 1e-10"
        )
    return StateVector.from_amplitudes(col, SubsystemLayout((n_max + 1,)))


def cat_column(alpha: complex, sign: int, n_max: int) -> np.ndarray:
    """Normalized truncated cat amplitudes for N(|a> + sign|-a>)."""
    if sign not in (1, -1):
        raise ValueError("cat parity sign must be +1 or -1")
    col = coherent_column(alpha, n_max) + sign * coherent_column(-alpha, n_max)
    norm = np.linalg.norm(col)
    if norm < 1e-12:
        raise NullStateError("odd cat at alpha=0 is the null vector")
    return col / norm


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


def _lowdin(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Symmetric orthonormalization, closest orthonormal set to the inputs."""
    m = np.stack(columns, axis=1)
    overlap = m.conj().T @ m
    evals, evecs = np.linalg.eigh(overlap)
    if np.min(evals) < 1e-12:
        raise ConvergenceError("columns are numerically dependent")
    inv_sqrt = (evecs * (evals**-0.5)) @ evecs.conj().T
    out = m @ inv_sqrt
    return [out[:, i] for i in range(out.shape[1])]


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
    from .spin_register import merge_blocks

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


# ------------------------------------------------------------- trajectories

@dataclass(frozen=True)
class TrajectoryRecord:
    """One stochastic trajectory: jump history plus syndrome history."""

    jump_times: tuple[tuple[float, ...], ...]  # per cavity
    parity_outcomes: tuple[tuple[int, ...], ...]  # per cavity, per round
    measurement_times: tuple[float, ...]
    seed: int
    final_state: object  # StateVector or FactoredChain

    def validate(self, restored_each_round: bool = True) -> None:
        """Check outcome = base * (-1)^(jumps since previous round), per cavity.

        With ``restored_each_round`` the baseline resets to even after every
        round (the correcting protocol repumps each -1 cavity); without it
        the measured parity itself carries forward as the baseline.
        """
        for jumps, outcomes in zip(self.jump_times, self.parity_outcomes):
            prev = 0.0
            base = 1
            for t_meas, out in zip(self.measurement_times, outcomes):
                n = sum(1 for t in jumps if prev < t <= t_meas)
                if base * (-1) ** n != out:
                    raise ValueError("parity outcome inconsistent with jump count")
                base = 1 if restored_each_round else out
                prev = t_meas

    @property
    def jump_counts(self) -> tuple[int, ...]:
        return tuple(len(j) for j in self.jump_times)


def _rng_from_seed(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


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
    rng = _rng_from_seed(seed)
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
        seed=seed if isinstance(seed, int) else -1,
        final_state=final,
    )


# ---------------------------------------------------------------- recovery

@functools.lru_cache(maxsize=32)
def recovery_matrix(spec: CavitySpec, decayed_alpha: complex) -> np.ndarray:
    """Ideal repump isometry for a cavity with confirmed odd parity.

    Maps the decayed odd cats back onto nominal even cats:
        |C_a'->  ->  |C_a+>        |C_ia'->  ->  -i |C_ia+>
    The -i undoes the branch phase imprinted by the annihilation operator
    (a C_ia+ is proportional to i a' C_ia-), so recovery inverts the known
    loss channel on both logical branches without reading the branch.
    Sources and targets are symmetrically orthonormalized and completed to
    full unitaries by deterministic Gram-Schmidt.

    Memoised: a repeat call returns the same read-only array.  The decayed
    amplitudes of a run take few distinct values (one per repump interval).
    """
    n_max = spec.n_max
    s0 = cat_column(decayed_alpha, -1, n_max)
    s1 = cat_column(1j * decayed_alpha, -1, n_max)
    t0 = cat_column(spec.alpha, 1, n_max)
    t1 = -1j * cat_column(1j * spec.alpha, 1, n_max)
    src = _lowdin([s0, s1])
    tgt = _lowdin([t0, t1])
    full_s = _gram_schmidt_complete(src, n_max + 1)
    full_t = _gram_schmidt_complete(tgt, n_max + 1)
    out = np.stack(full_t, axis=1) @ np.stack(full_s, axis=1).conj().T
    out.flags.writeable = False
    return out


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


# --------------------------------------------------------- factored chains

@functools.lru_cache(maxsize=8)
def _code_columns(alpha: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Nominal code columns (|C_a+>, |C_ia+>) as read-only arrays, memoised."""
    plus = cat_column(alpha, 1, n_max)
    rot = cat_column(1j * alpha, 1, n_max)
    plus.flags.writeable = False
    rot.flags.writeable = False
    return plus, rot


def _squared_norms(columns: tuple[np.ndarray, ...]) -> tuple[float, ...]:
    return tuple(np.linalg.norm(c) ** 2 for c in columns)


def _lower(col: np.ndarray) -> np.ndarray:
    """Annihilation operator on one Fock column as a shifted multiply.

    Equal, bit for bit, to ``annihilation(d) @ col``: each output entry of
    the dense product has one nonzero term.
    """
    out = np.zeros(col.shape, dtype=np.complex128)
    out[:-1] = np.sqrt(np.arange(1, col.shape[0], dtype=float)) * col[1:]
    return out


@dataclass(frozen=True)
class FactoredChain:
    """Two-branch product chain: w0|0> prod u_j + w1|1> prod v_j.

    Cross terms between branches vanish exactly (orthogonal qubit states),
    so norms, parities, losses, drift, repump and overlaps with product
    targets all reduce to per-cavity vector work.  Protocol operations keep
    the form closed, which is what makes long chains tractable.

    ``sq_norms0``/``sq_norms1`` hold ``np.linalg.norm(col) ** 2`` of every
    column; ``None`` (the default) computes them from the columns.  The
    ``fc_*`` operations keep them current: one touching cavity j recomputes
    only j's entries, O(d); drift recomputes all of them, O(kd).  Norms,
    parity probabilities and jump fluxes then multiply stored values left to
    right, as ``np.prod`` over freshly computed norms would, so the results
    are bit-identical to a from-scratch evaluation.  Code that swaps columns
    through ``dataclasses.replace`` must pass ``sq_norms0=None,
    sq_norms1=None`` with them.
    """

    weight0: complex
    weight1: complex
    branch0: tuple[np.ndarray, ...]
    branch1: tuple[np.ndarray, ...]
    spec: CavitySpec
    sq_norms0: tuple[float, ...] | None = None
    sq_norms1: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.sq_norms0 is None:
            object.__setattr__(self, "sq_norms0", _squared_norms(self.branch0))
        if self.sq_norms1 is None:
            object.__setattr__(self, "sq_norms1", _squared_norms(self.branch1))

    @property
    def k(self) -> int:
        return len(self.branch0)

    def norm_squared(self) -> float:
        p0 = math.prod(self.sq_norms0)
        p1 = math.prod(self.sq_norms1)
        return float(abs(self.weight0) ** 2 * p0 + abs(self.weight1) ** 2 * p1)

    def normalized(self) -> "FactoredChain":
        scale = 1.0 / np.sqrt(self.norm_squared())
        return FactoredChain(
            self.weight0 * scale, self.weight1 * scale, self.branch0, self.branch1,
            self.spec, self.sq_norms0, self.sq_norms1,
        )

    def state_vector(self) -> StateVector:
        d = self.spec.dim
        b0 = np.array([1.0], dtype=np.complex128)
        b1 = np.array([1.0], dtype=np.complex128)
        for u, v in zip(self.branch0, self.branch1):
            b0 = np.kron(b0, u)
            b1 = np.kron(b1, v)
        amps = np.concatenate([self.weight0 * b0, self.weight1 * b1])
        return StateVector.from_amplitudes(amps, SubsystemLayout((2,) + (d,) * self.k))

    def logical_fidelity(self) -> float:
        plus, rot = _code_columns(self.spec.alpha, self.spec.n_max)
        nrm = np.sqrt(self.norm_squared())
        ov0 = np.prod([np.vdot(plus, u) for u in self.branch0]) if self.k else 1.0
        ov1 = np.prod([np.vdot(rot, v) for v in self.branch1]) if self.k else 1.0
        amp = (self.weight0 * ov0 + self.weight1 * ov1) / (np.sqrt(2) * nrm)
        return float(abs(amp) ** 2)


def fc_logical_amplitudes(fc: FactoredChain) -> tuple[complex, complex]:
    """Amplitudes of the two nominal logical branches in the normalized chain.

    The squared moduli sum to at most one; the deficit is weight that has
    leaked out of the cat code space.
    """
    plus, rot = _code_columns(fc.spec.alpha, fc.spec.n_max)
    nrm = np.sqrt(fc.norm_squared())
    ov0 = np.prod([np.vdot(plus, u) for u in fc.branch0]) if fc.k else 1.0
    ov1 = np.prod([np.vdot(rot, v) for v in fc.branch1]) if fc.k else 1.0
    return complex(fc.weight0 * ov0 / nrm), complex(fc.weight1 * ov1 / nrm)


def factored_chain(spec: CavitySpec, k: int) -> FactoredChain:
    plus, rot = _code_columns(spec.alpha, spec.n_max)
    return FactoredChain(
        weight0=2**-0.5,
        weight1=2**-0.5,
        branch0=tuple(plus.copy() for _ in range(k)),
        branch1=tuple(rot.copy() for _ in range(k)),
        spec=spec,
    )


def _with_cavity(fc: FactoredChain, j: int, u: np.ndarray, v: np.ndarray) -> FactoredChain:
    """``fc`` with cavity j's columns set to (u, v); only j's norms are recomputed."""
    b0, b1 = list(fc.branch0), list(fc.branch1)
    s0, s1 = list(fc.sq_norms0), list(fc.sq_norms1)
    b0[j], b1[j] = u, v
    s0[j], s1[j] = np.linalg.norm(u) ** 2, np.linalg.norm(v) ** 2
    return FactoredChain(fc.weight0, fc.weight1, tuple(b0), tuple(b1), fc.spec, tuple(s0), tuple(s1))


def fc_drift(fc: FactoredChain, tau: float) -> FactoredChain:
    decay = np.exp(-fc.spec.kappa * tau * np.arange(fc.spec.dim) / 2)
    return FactoredChain(
        fc.weight0,
        fc.weight1,
        tuple(u * decay for u in fc.branch0),
        tuple(v * decay for v in fc.branch1),
        fc.spec,
    ).normalized()


def fc_apply_loss(fc: FactoredChain, j: int) -> FactoredChain:
    return _with_cavity(fc, j, _lower(fc.branch0[j]), _lower(fc.branch1[j])).normalized()


def fc_parity_probability(fc: FactoredChain, j: int) -> float:
    """Probability of outcome +1 on cavity j."""
    n2 = fc.norm_squared()
    p0 = abs(fc.weight0) ** 2 * math.prod(fc.sq_norms0[:j] + fc.sq_norms0[j + 1 :])
    p1 = abs(fc.weight1) ** 2 * math.prod(fc.sq_norms1[:j] + fc.sq_norms1[j + 1 :])
    w = p0 * np.linalg.norm(fc.branch0[j][::2]) ** 2 + p1 * np.linalg.norm(
        fc.branch1[j][::2]
    ) ** 2
    return float(w / n2)


def fc_project_parity(fc: FactoredChain, j: int, outcome: int) -> FactoredChain:
    mask = (np.arange(fc.spec.dim) % 2 == 0) if outcome == 1 else (
        np.arange(fc.spec.dim) % 2 == 1
    )
    return _with_cavity(
        fc, j, np.where(mask, fc.branch0[j], 0.0), np.where(mask, fc.branch1[j], 0.0)
    ).normalized()


def fc_repump(fc: FactoredChain, j: int, decayed_alpha: complex) -> FactoredChain:
    r = recovery_matrix(fc.spec, decayed_alpha)
    return _with_cavity(fc, j, r @ fc.branch0[j], r @ fc.branch1[j]).normalized()


def _fc_survival(fc: FactoredChain):
    """No-jump probability tau -> ||exp(-kappa tau n/2) psi||^2 of a normalized chain.

    |u|^2 of all 2k columns is stacked once, so an evaluation is one
    exponential, one row-sum and two products.
    """
    k = fc.k
    weights = np.abs(np.stack(fc.branch0 + fc.branch1)) ** 2
    n = np.arange(fc.spec.dim)
    w0, w1 = abs(fc.weight0) ** 2, abs(fc.weight1) ** 2

    def survival(tau: float) -> float:
        sums = (weights * np.exp(-fc.spec.kappa * tau * n)).sum(axis=1).tolist()
        return float(w0 * math.prod(sums[:k]) + w1 * math.prod(sums[k:]))

    return survival


def _fc_jump_flux(fc: FactoredChain) -> np.ndarray:
    """Loss flux kappa <a^dag a> of every cavity, from the stored norms."""
    n2 = fc.norm_squared()
    w0, w1 = abs(fc.weight0) ** 2, abs(fc.weight1) ** 2
    flux = np.empty(fc.k)
    for j in range(fc.k):
        s0, s1 = list(fc.sq_norms0), list(fc.sq_norms1)
        s0[j] = np.linalg.norm(_lower(fc.branch0[j])) ** 2
        s1[j] = np.linalg.norm(_lower(fc.branch1[j])) ** 2
        flux[j] = fc.spec.kappa * (w0 * math.prod(s0) + w1 * math.prod(s1)) / n2
    return flux


def fc_loss_segment(
    fc: FactoredChain, duration: float, rng: np.random.Generator, t_offset: float = 0.0
) -> tuple[FactoredChain, list[list[float]]]:
    """Waiting-time trajectory evolution of a factored chain over a segment."""
    fc = fc.normalized()
    t = 0.0
    jumps: list[list[float]] = [[] for _ in range(fc.k)]
    if fc.spec.kappa == 0 or fc.k == 0:
        return fc, jumps
    while t < duration:
        r = rng.random()
        remaining = duration - t
        survival = _fc_survival(fc)
        if survival(remaining) >= r:
            fc = fc_drift(fc, remaining)
            break
        tau_star = brentq(lambda x: survival(x) - r, 0.0, remaining, xtol=1e-16, rtol=1e-14)
        fc = fc_drift(fc, tau_star)
        t += tau_star
        flux = _fc_jump_flux(fc)
        j = int(rng.choice(fc.k, p=flux / flux.sum()))
        fc = fc_apply_loss(fc, j)
        jumps[j].append(t_offset + t)
    return fc, jumps


@dataclass(frozen=True)
class ProtectionResult:
    seed: int
    corrected: bool
    record: TrajectoryRecord
    final_logical_fidelity: float


def run_protected(
    spec: CavitySpec,
    k: int,
    duration: float,
    syndrome_interval: float,
    seed,
    correct: bool = True,
) -> ProtectionResult:
    """One trajectory of the storage protocol on a k-cavity chain.

    Loss evolves the chain between syndrome rounds; each round measures the
    parity of every cavity and, when correcting, repumps the -1 cavities
    back to the nominal amplitude.  Corrected and uncorrected runs consume
    identical random streams (repump is deterministic), so a shared seed
    yields a paired comparison.
    """
    if syndrome_interval <= 0:
        raise ValueError("syndrome interval must be positive")
    rng = _rng_from_seed(seed)
    fc = factored_chain(spec, k)
    t = 0.0
    last_repump = np.zeros(k)
    all_jumps: list[list[float]] = [[] for _ in range(k)]
    outcomes: list[list[int]] = [[] for _ in range(k)]
    meas_times: list[float] = []
    while t < duration - 1e-15:
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
            fc = fc_project_parity(fc, j, out)
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
        seed=seed if isinstance(seed, int) else -1,
        final_state=fc,
    )
    record.validate(restored_each_round=correct)
    return ProtectionResult(
        seed=record.seed,
        corrected=correct,
        record=record,
        final_logical_fidelity=fc.logical_fidelity(),
    )
