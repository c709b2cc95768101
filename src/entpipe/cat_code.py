"""Cat-code cavity storage for a register qubit chain.

A logical chain is one qubit plus k cavities holding even cat states, with
the cavity amplitude axis (alpha vs i*alpha) correlated with the qubit:

    (|0> |C_a+>^k + |1> |C_ia+>^k) / sqrt(2)

Photon loss flips a cavity's photon-number parity, so single losses are
detected by quantum non-demolition parity measurements and undone by an
idealized repump isometry.  Trajectory evolution uses exact waiting-time
sampling of jump times (no time grid): between jumps the no-jump drift
exp(-kappa*t*n/2) acts, at a jump the annihilation operator acts.

The two-branch product structure is preserved by every protocol operation,
so the chain is stored factored (per-branch, per-cavity Fock columns) and
evolves exactly at linear cost in the number of cavities.  This is the only
storage route in the package.  The dense state-vector route (encode/decode,
chain growth, parity measurement, loss and repump on full state vectors)
is kept in ``tests/oracle_storage.py`` as the cross-check for the factored
one; it is practical for a few cavities only.

Cost of the factored route for k cavities of dimension d.  Cavities that
hold the same column share one read-only array: a fresh chain holds the
two code columns in every slot, and drift maps each distinct column to one
decayed column, so a cavity gets a column of its own only when a loss or
repump hits it.  Drift and a jump (the flux of every channel) cost O(m d)
array work for the m <= 2k distinct columns, plus O(k) scalar work per
cavity: products over the stored per-cavity norms that keep the float
results of a from-scratch evaluation bit for bit.  Loss, repump and a
parity projection that removes amplitude replace one cavity's columns,
O(d); a projection onto the parity a cavity already has (every cavity no
repump has touched, since drift and loss keep parity exactly) only
renormalises.  A parity round reads each cavity's even weight, O(kd).  The
corrected and uncorrected runs of a seed agree up to the first round that
reads -1, so a pair costs that shared prefix once plus the two suffixes
after it.

Memoised per process, in bounded stores that fill on first use:
  - the nominal code columns per (alpha, n_max), 8 entries, shared by
    every fresh chain;
  - the repump isometry per (spec, decayed amplitude), 32 entries;
  - the fork point of the last ``run_protected`` call per (spec, k,
    duration, syndrome interval, int seed), one entry, which the next call
    with the same arguments resumes from and removes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NullStateError, TruncationError
from .hilbert import StateVector, SubsystemLayout, read_only

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


# ------------------------------------------------------------- Fock builders

def coherent_column(alpha: complex, n_max: int) -> np.ndarray:
    """Exact truncated coherent amplitudes e^{-|a|^2/2} a^n/sqrt(n!)."""
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * alpha / np.sqrt(n)
    return out


def cat_column(alpha: complex, sign: int, n_max: int) -> np.ndarray:
    """Normalized truncated cat amplitudes for N(|a> + sign|-a>)."""
    if sign not in (1, -1):
        raise ValueError("cat parity sign must be +1 or -1")
    col = coherent_column(alpha, n_max) + sign * coherent_column(-alpha, n_max)
    norm = np.linalg.norm(col)
    if norm < 1e-12:
        raise NullStateError("odd cat at alpha=0 is the null vector")
    return col / norm


# ------------------------------------------------------ orthonormalization

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
    return read_only(np.stack(full_t, axis=1) @ np.stack(full_s, axis=1).conj().T)


# --------------------------------------------------------- factored chains

@functools.lru_cache(maxsize=8)
def _code_columns(alpha: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Nominal code columns (|C_a+>, |C_ia+>) as read-only arrays, memoised."""
    return read_only(cat_column(alpha, 1, n_max)), read_only(cat_column(1j * alpha, 1, n_max))


def _distinct(columns: tuple[np.ndarray, ...]) -> tuple[list[np.ndarray], list[int]]:
    """The distinct column objects (by identity), and each column's index among them."""
    slot: dict[int, int] = {}
    unique: list[np.ndarray] = []
    index: list[int] = []
    for c in columns:
        i = slot.get(id(c))
        if i is None:
            i = slot[id(c)] = len(unique)
            unique.append(c)
        index.append(i)
    return unique, index


def _map_columns(fc: FactoredChain, f) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Both branches with ``f`` applied once per distinct column, results read-only.

    Cavities that shared a column share its image.
    """
    unique, index = _distinct(fc.branch0 + fc.branch1)
    cols = [read_only(f(c)) for c in unique]
    return tuple(cols[i] for i in index[: fc.k]), tuple(cols[i] for i in index[fc.k :])


def _sq_norm(c: np.ndarray) -> float:
    """``np.linalg.norm(c) ** 2``, bit for bit, without its dispatch overhead.

    Repeats numpy's default-norm path for a complex vector: ravel, the real
    and imaginary dot products, the square root, then the square.
    """
    x = c.ravel(order="K")
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im)) ** 2


def _squared_norms(columns: tuple[np.ndarray, ...]) -> tuple[float, ...]:
    """``_sq_norm`` of every column, computed once per distinct column object."""
    unique, index = _distinct(columns)
    norms = [_sq_norm(c) for c in unique]
    return tuple(norms[i] for i in index)


def _lower(col: np.ndarray) -> np.ndarray:
    """Annihilation operator on one Fock column as a shifted multiply.

    Equal, bit for bit, to the dense annihilation matrix times ``col``: each
    output entry of that product has one nonzero term.
    """
    out = np.zeros(col.shape, dtype=np.complex128)
    out[:-1] = np.sqrt(np.arange(1, col.shape[0], dtype=float)) * col[1:]
    return out


@dataclass(frozen=True, eq=False)
class FactoredChain:
    """Two-branch product chain: w0|0> prod u_j + w1|1> prod v_j.

    Cross terms between branches vanish exactly (orthogonal qubit states),
    so norms, parities, losses, drift, repump and overlaps with product
    targets all reduce to per-cavity vector work.  Protocol operations keep
    the form closed, which is what makes long chains tractable.

    ``sq_norms0``/``sq_norms1`` hold ``np.linalg.norm(col) ** 2`` of every
    column; ``None`` (the default) computes them from the columns, once per
    distinct column object.  The ``fc_*`` operations keep them current: one
    touching cavity j recomputes only j's entries, O(d); drift recomputes
    one per distinct column, O(d) each.  Columns are read-only arrays, and
    cavities holding equal columns may share one object.  Norms,
    parity probabilities and jump fluxes then multiply stored values left to
    right, as ``np.prod`` over freshly computed norms would, so the results
    are bit-identical to a from-scratch evaluation.  Code that swaps columns
    through ``dataclasses.replace`` must pass ``sq_norms0=None,
    sq_norms1=None`` with them.

    Equality and hashing are by identity: the array fields have no single
    truth value, so a field-wise ``==`` could not answer.
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
        ov0, ov1, nrm = _code_overlaps(self)
        amp = (self.weight0 * ov0 + self.weight1 * ov1) / (np.sqrt(2) * nrm)
        return float(abs(amp) ** 2)


def _code_overlaps(fc: FactoredChain) -> tuple[complex, complex, float]:
    """Each branch's overlap with its nominal code product, and the chain norm."""
    plus, rot = _code_columns(fc.spec.alpha, fc.spec.n_max)
    nrm = np.sqrt(fc.norm_squared())
    ov0 = np.prod([np.vdot(plus, u) for u in fc.branch0]) if fc.k else 1.0
    ov1 = np.prod([np.vdot(rot, v) for v in fc.branch1]) if fc.k else 1.0
    return ov0, ov1, nrm


def fc_logical_amplitudes(fc: FactoredChain) -> tuple[complex, complex]:
    """Amplitudes of the two nominal logical branches in the normalized chain.

    The squared moduli sum to at most one; the deficit is weight that has
    leaked out of the cat code space.
    """
    ov0, ov1, nrm = _code_overlaps(fc)
    return complex(fc.weight0 * ov0 / nrm), complex(fc.weight1 * ov1 / nrm)


def factored_chain(spec: CavitySpec, k: int) -> FactoredChain:
    plus, rot = _code_columns(spec.alpha, spec.n_max)
    return FactoredChain(
        weight0=2**-0.5,
        weight1=2**-0.5,
        branch0=(plus,) * k,
        branch1=(rot,) * k,
        spec=spec,
    )


def _with_cavity(fc: FactoredChain, j: int, u: np.ndarray, v: np.ndarray) -> FactoredChain:
    """``fc`` with cavity j's columns set to (u, v); only j's norms are recomputed."""
    b0, b1 = list(fc.branch0), list(fc.branch1)
    s0, s1 = list(fc.sq_norms0), list(fc.sq_norms1)
    b0[j], b1[j] = read_only(u), read_only(v)
    s0[j], s1[j] = _sq_norm(u), _sq_norm(v)
    return FactoredChain(fc.weight0, fc.weight1, tuple(b0), tuple(b1), fc.spec, tuple(s0), tuple(s1))


def fc_drift(fc: FactoredChain, tau: float) -> FactoredChain:
    """No-jump evolution over tau, renormalised; each distinct column decays once."""
    decay = np.exp(-fc.spec.kappa * tau * np.arange(fc.spec.dim) / 2)
    branch0, branch1 = _map_columns(fc, lambda c: c * decay)
    return FactoredChain(fc.weight0, fc.weight1, branch0, branch1, fc.spec).normalized()


def fc_apply_loss(fc: FactoredChain, j: int) -> FactoredChain:
    return _with_cavity(fc, j, _lower(fc.branch0[j]), _lower(fc.branch1[j])).normalized()


def fc_parity_probability(fc: FactoredChain, j: int) -> float:
    """Probability of outcome +1 on cavity j."""
    n2 = fc.norm_squared()
    p0 = abs(fc.weight0) ** 2 * math.prod(fc.sq_norms0[:j] + fc.sq_norms0[j + 1 :])
    p1 = abs(fc.weight1) ** 2 * math.prod(fc.sq_norms1[:j] + fc.sq_norms1[j + 1 :])
    w = p0 * _sq_norm(fc.branch0[j][::2]) + p1 * _sq_norm(fc.branch1[j][::2])
    return float(w / n2)


def fc_project_parity(fc: FactoredChain, j: int, outcome: int) -> FactoredChain:
    """Project cavity j onto parity ``outcome`` (+1 even, -1 odd) and renormalise.

    Drift and loss keep a column's parity, so a column that no repump has
    touched has exactly zero amplitude on the rejected Fock numbers.  When
    that holds for both branches (``any()``, not a squared norm, which
    underflows to zero below ~1e-162) the projection would change no entry,
    so the chain is only renormalised.
    """
    rejected = 1 if outcome == 1 else 0
    u, v = fc.branch0[j], fc.branch1[j]
    if not (u[rejected::2].any() or v[rejected::2].any()):
        return fc.normalized()
    u, v = u.copy(), v.copy()
    u[rejected::2] = 0.0
    v[rejected::2] = 0.0
    return _with_cavity(fc, j, u, v).normalized()


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
    """Loss flux kappa <a^dag a> of every cavity, from the stored norms.

    The lowered norm of each distinct column is computed once.
    """
    n2 = fc.norm_squared()
    w0, w1 = abs(fc.weight0) ** 2, abs(fc.weight1) ** 2
    k = fc.k
    unique, index = _distinct(fc.branch0 + fc.branch1)
    lowered = [_sq_norm(_lower(c)) for c in unique]
    flux = np.empty(k)
    for j in range(k):
        s0, s1 = list(fc.sq_norms0), list(fc.sq_norms1)
        s0[j] = lowered[index[j]]
        s1[j] = lowered[index[k + j]]
        flux[j] = fc.spec.kappa * (w0 * math.prod(s0) + w1 * math.prod(s1)) / n2
    return flux


def brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).

    A step-for-step port of scipy's ``Zeros/brentq.c``: the same iterates in
    the same float operations, so the root equals ``scipy.optimize.brentq``'s
    bit for bit.  Raises ``ConvergenceError`` when f(xa) and f(xb) have the
    same sign, when f returns NaN, or after ``maxiter`` iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(f"root bracket function is NaN at x={x!r}")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceError(f"root bracket [{xpre!r}, {xcur!r}] has no sign change")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here, which always bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"Brent root did not converge in {maxiter} iterations")


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


# The fork point of the last run whose pair partner has not run yet, keyed by
# (spec, k, duration, syndrome_interval, seed).  At most one entry.
_FORK: dict = {}


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

    The two runs of a pair are identical up to the first round that reads
    a -1, before its repump (the fork point).  For an int seed the run
    stores its state there (at the end when no round reads -1), and the
    next run with the same arguments, either ``correct``, resumes from it
    instead of repeating the prefix.  Results are the same in either order
    and whether the entry is used or not.
    """
    if syndrome_interval <= 0:
        raise ValueError("syndrome interval must be positive")
    key = (spec, k, duration, syndrome_interval, seed) if isinstance(seed, int) else None
    fork = _FORK.pop(key, None) if key is not None else None
    rng = _rng_from_seed(seed)
    if fork is not None:
        fc, rng_state, t, all_jumps, outcomes, meas_times, syndrome = fork
        rng.bit_generator.state = rng_state
        # the pair partner may return the stored chain: hand back a private
        # copy, one per distinct column so cavities that shared a column still do
        branch0, branch1 = _map_columns(fc, np.copy)
        fc = FactoredChain(
            fc.weight0, fc.weight1, branch0, branch1, spec, fc.sq_norms0, fc.sq_norms1
        )
    else:
        fc = factored_chain(spec, k)
        t = 0.0
        all_jumps: list[list[float]] = [[] for _ in range(k)]
        outcomes: list[list[int]] = [[] for _ in range(k)]
        meas_times: list[float] = []
        syndrome: list[int] = []
    store = fork is None and key is not None
    last_repump = np.zeros(k)
    while True:
        if store and (-1 in syndrome or not t < duration - 1e-15):
            _FORK.clear()
            _FORK[key] = (
                fc, rng.bit_generator.state, t, [list(js) for js in all_jumps],
                [list(o) for o in outcomes], list(meas_times), syndrome,
            )
            store = False
        if correct:
            for j, s in enumerate(syndrome):
                if s == -1:
                    decayed = spec.alpha * np.exp(-spec.kappa * (t - last_repump[j]) / 2)
                    fc = fc_repump(fc, j, decayed)
                    last_repump[j] = t
        if not t < duration - 1e-15:
            break
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
