"""Cat-code cavity storage for a register qubit chain.

A logical chain is one qubit plus k cavities holding even cat states, with
the cavity amplitude axis (alpha vs i*alpha) correlated with the qubit:

    (|0> |C_a+>^k + |1> |C_ia+>^k) / sqrt(2)

Photon loss flips a cavity's photon-number parity, so single losses are
detected by quantum non-demolition parity measurements and undone by an
idealized repump map on the code space.  Trajectory evolution uses exact
waiting-time sampling of jump times (no time grid): between jumps the
no-jump drift exp(-kappa*t*n/2) acts, at a jump the annihilation operator
acts.

The two-branch product structure is preserved by every protocol operation,
so the chain is stored factored (per-branch, per-cavity Fock columns) and
evolves exactly at linear cost in the number of cavities.  This is the only
storage route in the package.  The dense state-vector route (encode/decode,
chain growth, parity measurement, loss and repump on full state vectors)
is kept in ``tests/oracle_storage.py`` as the cross-check for the factored
one; it is practical for a few cavities only.

Every column along a trajectory has a definite parity, even or odd, in
exact float arithmetic, not only to rounding: the code columns are even
cats, whose odd entries cancel exactly; drift scales each Fock amplitude by
a positive factor and loss shifts the column by one, so neither turns a
zero entry nonzero; and the repump map's odd rows are exact zeros, so a
repumped column is even.  A chain therefore carries each cavity's parity
as a field, set by the operation that writes the cavity, and every parity
read has a fixed outcome: its probability is exactly 1.0 or 0.0, and the
projection onto the parity a cavity has returns the chain unchanged.

Cost of the factored route for k cavities of dimension d.  A chain holds
its columns as the rows of one read-only (2k, d) table: row j is cavity j's
branch-0 column and row k + j its branch-1 column.  A loss segment
(``fc_loss_segment``) keeps its weights, table, row norms and parities in
locals and builds one chain when it ends.  Each waiting time drifts the
table in one broadcast multiply into a fresh table, O(k d); a jump reads
every channel's flux from that table in one weighted row sum, draws the
cavity from k Python floats, and lowers the cavity's two rows of it in
place, so only those two are normed again.  The survival function of a
jump time is one exponential, one product and one row sum per evaluation,
written into work arrays that the segment allocates once, plus O(k)
scalar work (products over the row norms).  A repump writes cavity j's
two rows into one copy of the table, O(k d), and scales the branch
weights to norm one before it builds the one chain it returns.  A parity
round is O(k) field reads.  A jump time is the root of ln S(tau) = ln r,
which Brent's method finds in about 6 survival evaluations per jump (7.7
on S(tau) - r): ln S is convex, and exactly linear when one decay rate is
left.
A run is a whole number of syndrome rounds, one interval each, and both
drivers step through them in one round loop.  The corrected and
uncorrected runs of a seed agree up to the first round that reads -1.
``start_protected`` runs the loop uncorrected up to that round, before its
repump, and returns that prefix as a value; ``run_protected`` runs either
arm's rest from it to the last round, so a pair costs the prefix once plus
the two suffixes after it.

Memoised per process, in bounded stores that fill on first use:
  - the nominal code columns per (alpha, n_max), 8 entries, which every
    fresh chain's table copies;
  - the Fock factors of the loss kernel per dimension (n, sqrt(n) and n
    per float pair), 8 entries;
  - the repump map per (spec, decayed amplitude), 32 entries.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NullStateError, TruncationError
from .hilbert import StateVector, SubsystemLayout, read_only


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
        the measured parity itself carries forward as the baseline.  A round
        from t0 to t1 counts the jumps at t0 < t <= t1 (t0 = 0 for the
        first), found by bisection in each cavity's jumps, sorted once.
        """
        for jumps, outcomes in zip(self.jump_times, self.parity_outcomes):
            jumps = sorted(jumps)
            prev = 0.0
            base = 1
            for t_meas, out in zip(self.measurement_times, outcomes):
                n = 0
                if jumps and prev < t_meas:
                    n = bisect.bisect_right(jumps, t_meas) - bisect.bisect_right(jumps, prev)
                if base * (-1) ** n != out:
                    raise ValueError("parity outcome inconsistent with jump count")
                base = 1 if restored_each_round else out
                prev = t_meas

    @property
    def jump_counts(self) -> tuple[int, ...]:
        return tuple(len(j) for j in self.jump_times)


# ---------------------------------------------------------------- recovery

@functools.lru_cache(maxsize=32)
def recovery_matrix(spec: CavitySpec, decayed_alpha: complex) -> np.ndarray:
    """Ideal repump for a cavity with confirmed odd parity, on the code space.

    Maps the decayed odd cats back onto nominal even cats:
        |C_a'->  ->  |C_a+>        |C_ia'->  ->  -i |C_ia+>
    The -i undoes the branch phase imprinted by the annihilation operator
    (a C_ia+ is proportional to i a' C_ia-), so recovery inverts the known
    loss channel on both logical branches without reading the branch.
    Sources and targets are symmetrically orthonormalized, and the map is
    the rank-2 partial isometry tgt @ src^dagger: it carries span{src} onto
    span{tgt} and annihilates the rest, which holds only truncation and
    rounding residue of a lost code state.  The targets' odd Fock entries
    are exact zeros (|a> + |-a> cancels them term by term), so are the
    matrix's odd rows, and a repumped column has no odd amplitude at all.

    Memoised: a repeat call returns the same read-only array.  The decayed
    amplitudes of a run take few distinct values (one per repump interval).
    """
    n_max = spec.n_max
    s0 = cat_column(decayed_alpha, -1, n_max)
    s1 = cat_column(1j * decayed_alpha, -1, n_max)
    t0 = cat_column(spec.alpha, 1, n_max)
    t1 = -1j * cat_column(1j * spec.alpha, 1, n_max)
    src = np.stack(_lowdin([s0, s1]), axis=1)
    tgt = np.stack(_lowdin([t0, t1]), axis=1)
    return read_only(tgt @ src.conj().T)


# --------------------------------------------------------- factored chains

@functools.lru_cache(maxsize=8)
def _code_columns(alpha: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Nominal code columns (|C_a+>, |C_ia+>) as read-only arrays, memoised."""
    return read_only(cat_column(alpha, 1, n_max)), read_only(cat_column(1j * alpha, 1, n_max))


class _Fock(NamedTuple):
    """Per-dimension Fock factors of the loss kernel, read-only."""

    n: np.ndarray  # the photon number n of each entry, as floats
    root: np.ndarray  # sqrt(n) for n >= 1: the annihilation operator's entries
    pairs: np.ndarray  # n for each float of a column viewed as float64 pairs


@functools.lru_cache(maxsize=8)
def _fock(dim: int) -> _Fock:
    n = np.arange(dim, dtype=float)
    return _Fock(read_only(n), read_only(np.sqrt(n[1:])), read_only(np.repeat(n, 2)))


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a complex array (a 0-d array for a column).

    Sums re^2 and im^2 along the last axis in one reduction.  A row of a
    stacked table gets the same float as the column on its own, so stored
    norms do not depend on whether a column was normed alone or in a table.
    """
    x = np.ascontiguousarray(a).view(np.float64)
    return (x * x).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class FactoredChain:
    """Two-branch product chain: w0|0> prod u_j + w1|1> prod v_j.

    Cross terms between branches vanish exactly (orthogonal qubit states),
    so norms, parities, losses, drift, repump and overlaps with product
    targets all reduce to per-cavity vector work.  Protocol operations keep
    the form closed, which is what makes long chains tractable.

    The columns are the rows of ``table``, one read-only C-ordered (2k, d)
    complex array: cavity j's branch-0 column is row j and its branch-1
    column row k + j.  No chain's table is written once the chain is built:
    a derived chain that changes rows holds a new table.  Of the protocol's
    operations two build chains: a loss segment builds one at its end, on the table it
    drifted and lowered in place, and a repump builds one on a copy with
    two rows overwritten.  ``sq_norms[i]`` is row i's
    squared norm (``_sq_norms``); a branch's norm multiplies its k entries
    left to right in cavity order, as ``np.prod`` over freshly computed
    norms would, so the results are bit-identical to a from-scratch
    evaluation.

    ``parity[j]`` is the photon-number parity both of cavity j's columns
    have: +1 (no odd amplitude) or -1 (no even amplitude).  The operation
    that writes a cavity sets it: the code columns and a repump give +1, a
    loss flips it, drift keeps it (see the module notes).

    Equality and hashing are by identity: the array fields have no single
    truth value, so a field-wise ``==`` could not answer.
    """

    weight0: complex
    weight1: complex
    spec: CavitySpec
    table: np.ndarray
    sq_norms: tuple[float, ...]
    parity: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.parity)

    def norm_squared(self) -> float:
        return _norm_squared(self.weight0, self.weight1, self.sq_norms)

    def normalized(self) -> "FactoredChain":
        return FactoredChain(
            *_unit_weights(self.weight0, self.weight1, self.sq_norms),
            self.spec, self.table, self.sq_norms, self.parity,
        )

    def state_vector(self) -> StateVector:
        d = self.spec.dim
        b0 = np.array([1.0], dtype=np.complex128)
        b1 = np.array([1.0], dtype=np.complex128)
        for u, v in zip(self.table[: self.k], self.table[self.k :]):
            b0 = np.kron(b0, u)
            b1 = np.kron(b1, v)
        amps = np.concatenate([self.weight0 * b0, self.weight1 * b1])
        return StateVector.from_amplitudes(amps, SubsystemLayout((2,) + (d,) * self.k))

    def logical_fidelity(self) -> float:
        ov0, ov1, nrm = _code_overlaps(self)
        amp = (self.weight0 * ov0 + self.weight1 * ov1) / (np.sqrt(2) * nrm)
        return float(abs(amp) ** 2)


def _norm_squared(w0: complex, w1: complex, sq_norms) -> float:
    """Squared norm of a chain: |w0|^2 times the product of the first half
    of ``sq_norms``, plus |w1|^2 times the product of the second half."""
    k = len(sq_norms) // 2
    return float(abs(w0) ** 2 * math.prod(sq_norms[:k]) + abs(w1) ** 2 * math.prod(sq_norms[k:]))


def _unit_weights(w0: complex, w1: complex, sq_norms) -> tuple[complex, complex]:
    """The branch weights scaled so that the chain they weight has norm one.

    Operations scale the weights before they build the chain they return,
    so each builds it once."""
    scale = 1.0 / math.sqrt(_norm_squared(w0, w1, sq_norms))
    return w0 * scale, w1 * scale


def _code_overlaps(fc: FactoredChain) -> tuple[complex, complex, float]:
    """Each branch's overlap with its nominal code product, and the chain norm.

    One ``np.vdot`` per row, multiplied in cavity order.
    """
    nrm = np.sqrt(fc.norm_squared())
    k = fc.k
    out = []
    for code, rows in zip(_code_columns(fc.spec.alpha, fc.spec.n_max), (fc.table[:k], fc.table[k:])):
        out.append(np.prod([np.vdot(code, row) for row in rows]))
    return out[0], out[1], nrm


def fc_logical_amplitudes(fc: FactoredChain) -> tuple[complex, complex]:
    """Amplitudes of the two nominal logical branches in the normalized chain.

    The squared moduli sum to at most one; the deficit is weight that has
    leaked out of the cat code space.
    """
    ov0, ov1, nrm = _code_overlaps(fc)
    return complex(fc.weight0 * ov0 / nrm), complex(fc.weight1 * ov1 / nrm)


def factored_chain(spec: CavitySpec, k: int) -> FactoredChain:
    """The fresh chain (|0> |C_a+>^k + |1> |C_ia+>^k) / sqrt(2)."""
    table = np.repeat(np.stack(_code_columns(spec.alpha, spec.n_max)), k, axis=0)
    return FactoredChain(
        2**-0.5, 2**-0.5, spec, read_only(table), tuple(_sq_norms(table).tolist()), (1,) * k
    )


def _with_cavity(
    fc: FactoredChain, j: int, u: np.ndarray, v: np.ndarray, parity: int
) -> FactoredChain:
    """``fc`` with cavity j's columns set to (u, v) of the given parity,
    renormalised: one copy of ``fc.table`` with rows j and k + j overwritten,
    its rows normed in one reduction and the weights scaled to norm one.
    """
    table = fc.table.copy()
    table[j], table[fc.k + j] = u, v
    sq_norms = tuple(_sq_norms(table).tolist())
    return FactoredChain(
        *_unit_weights(fc.weight0, fc.weight1, sq_norms), fc.spec, read_only(table), sq_norms,
        fc.parity[:j] + (parity,) + fc.parity[j + 1 :],
    )


def fc_parity_probability(fc: FactoredChain, j: int) -> float:
    """Probability of outcome +1 on cavity j: exactly 1.0 or 0.0, since both
    of j's columns have parity ``fc.parity[j]``."""
    return 1.0 if fc.parity[j] == 1 else 0.0


def fc_project_parity(fc: FactoredChain, j: int, outcome: int) -> FactoredChain:
    """Project cavity j onto parity ``outcome`` (+1 even, -1 odd).

    Onto the parity j has the projection removes nothing, and ``fc`` itself
    is returned; the other outcome has probability zero and raises
    ``NullStateError``.
    """
    if outcome != fc.parity[j]:
        raise NullStateError(f"cavity {j} has parity {fc.parity[j]:+d}, not {outcome:+d}")
    return fc


def fc_repump(fc: FactoredChain, j: int, decayed_alpha: complex) -> FactoredChain:
    """Repump cavity j, which must have read -1, and renormalise.

    The map acts on the odd code space only and would send even amplitude
    to zero, so a column with any even amplitude raises ``ValueError``.
    The repumped columns are even (the map's odd rows are exact zeros).
    """
    u, v = fc.table[j], fc.table[fc.k + j]
    if u[::2].any() or v[::2].any():
        raise ValueError(f"cavity {j} has even amplitude: only a cavity that read -1 is repumped")
    r = recovery_matrix(fc.spec, decayed_alpha)
    return _with_cavity(fc, j, r @ u, r @ v, 1)


def _survival_scratch(k: int, dim: int) -> tuple[np.ndarray, ...]:
    """Work arrays of ``_fc_survival`` for a (2k, dim) table: the weights
    |u|^2, the decay factors, the weighted terms and the row sums."""
    return np.empty((2 * k, dim)), np.empty(dim), np.empty((2 * k, dim)), np.empty(2 * k)


def _fc_survival(table: np.ndarray, w0: complex, w1: complex, kappa: float, scratch):
    """No-jump probability tau -> ||exp(-kappa tau n/2) psi||^2 of the normalized
    chain with branch weights (w0, w1) on ``table``.

    |u|^2 of the table's 2k rows is taken once, so an evaluation is one
    exponential, one row-sum and two products over the cavities.  The
    weights and every evaluation's arrays live in ``scratch``
    (``_survival_scratch``), so no evaluation allocates, and a survival
    built later on the same scratch overwrites this one's weights.
    """
    weights, decay, terms, sums = scratch
    np.abs(table, out=weights)
    np.square(weights, out=weights)
    n = _fock(table.shape[1]).n
    w0, w1 = abs(w0) ** 2, abs(w1) ** 2
    k = len(table) // 2

    def survival(tau: float) -> float:
        np.multiply(-kappa * tau, n, out=decay)
        np.exp(decay, out=decay)
        np.multiply(weights, decay, out=terms)
        rows = np.add.reduce(terms, axis=1, out=sums).tolist()
        return float(w0 * math.prod(rows[:k]) + w1 * math.prod(rows[k:]))

    return survival


def _jump_flux(
    table: np.ndarray, w0: complex, w1: complex, sq_norms: list[float], kappa: float
) -> list[float]:
    """Loss flux kappa <a^dag a> of every cavity of a normalized chain.

    ||a c||^2 = sum_n n |c_n|^2, so one weighted row sum over the table
    gives every row's lowered weight.  Lowering cavity j scales each
    branch's weight by its row's lowered weight over its stored norm.  A
    branch of weight zero (one of its columns is zero) adds nothing and is
    left out, so no ratio divides by a zero norm.  The k fluxes are Python
    floats, each from the operations numpy would apply to it in an array.
    """
    k = len(sq_norms) // 2
    x = table.view(np.float64)
    lowered = (x * x * _fock(table.shape[1]).pairs).sum(axis=-1).tolist()
    b0 = abs(w0) ** 2 * math.prod(sq_norms[:k])
    b1 = abs(w1) ** 2 * math.prod(sq_norms[k:])
    flux = [0.0] * k
    for b, off in ((b0, 0), (b1, k)):
        if b:
            flux = [f + b * lowered[off + j] / sq_norms[off + j] for j, f in enumerate(flux)]
    total = b0 + b1
    return [kappa * f / total for f in flux]


def _pairwise_sum(values) -> float:
    """``np.add.reduce`` of a float64 vector, in numpy's order: 0.0 plus the
    pairwise sum, which adds fewer than 8 entries in turn and more in 8
    interleaved partial sums (numpy's ``pairwise_sum``, blocks of 128)."""
    n = len(values)
    if n > 128:
        half = n // 2
        half -= half % 8
        return 0.0 + (_pairwise_sum(values[:half]) + _pairwise_sum(values[half:]))
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r = list(values[:8])
    i = 8
    while i < n - n % 8:
        for lane in range(8):
            r[lane] += values[i + lane]
        i += 8
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[i:]:
        total += v
    return 0.0 + total


def _jump_cavity(flux: list[float], u: float) -> int:
    """``rng.choice(len(flux), p=flux / flux.sum())`` for the draw u = ``rng.random()``.

    numpy's own steps in Python floats (a pairwise total, the cumulative
    sum of the shares, rescaled by its last entry, then a right-sided
    search), so the index is the same.  A flux that is not finite, is
    negative or sums to zero raises ``ConvergenceError``.
    """
    total = _pairwise_sum(flux)
    if not (math.isfinite(total) and total > 0 and min(flux) >= 0):
        raise ConvergenceError(f"jump flux {list(flux)} is not a distribution")
    cdf = list(itertools.accumulate(f / total for f in flux))
    last = cdf[-1]
    return bisect.bisect_right([c / last for c in cdf], u)


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


_TINY = 5e-324  # the smallest subnormal float
# Absolute tolerance of the jump-time root, in seconds, at every kappa.
_JUMP_XTOL = 1e-16


def _jump_time(survival, remaining: float, at_end: float, r: float) -> float:
    """The waiting time tau in [0, remaining] at which the survival S falls
    to the level r, given ``at_end`` = S(remaining) < r.

    Brent solves ln S(tau) = ln r: S is a mixture of exponentials, so ln S
    is convex and, for one decay rate, linear in tau, where interpolation
    lands closest.  S is clamped at the smallest subnormal, so a survival
    that underflows keeps a finite log.  Brent's first two evaluations are
    the bracket ends: the one at ``remaining`` reuses ``at_end`` (survival
    is a pure function, so it is the same float).
    """
    log_r = math.log(r)
    log_end = math.log(max(at_end, _TINY))
    return brentq(
        lambda x: (log_end if x == remaining else math.log(max(survival(x), _TINY))) - log_r,
        0.0, remaining, xtol=_JUMP_XTOL, rtol=1e-14,
    )


def fc_loss_segment(
    fc: FactoredChain, duration: float, rng: np.random.Generator, t_offset: float = 0.0
) -> tuple[FactoredChain, list[list[float]]]:
    """Waiting-time trajectory evolution of a factored chain over a segment.

    ``fc`` must be normalised: the survival function reads its weights as
    probabilities.  The chain returned is normalised too.

    The segment's state lives in locals and one chain is built at its end.
    Each draw drifts the table to the jump time or to the end: one broadcast
    multiply into a fresh table, its rows normed in one reduction, the
    weights scaled to norm one.  Decay scales every Fock amplitude by a
    positive factor, so every cavity keeps its parity.  A jump reads its
    flux from that table and lowers cavity j's two rows in place, so only
    those two are normed again, and j's parity flips.
    """
    t = 0.0
    k = fc.k
    jumps: list[list[float]] = [[] for _ in range(k)]
    kappa = fc.spec.kappa
    if kappa == 0 or k == 0 or not duration > 0:
        return fc, jumps
    fock = _fock(fc.spec.dim)
    scratch = _survival_scratch(k, fc.spec.dim)
    w0, w1, table = fc.weight0, fc.weight1, fc.table
    sq_norms, parity = list(fc.sq_norms), list(fc.parity)
    while t < duration:
        r = rng.random()
        remaining = duration - t
        survival = _fc_survival(table, w0, w1, kappa, scratch)
        at_end = survival(remaining)
        tau = remaining if at_end >= r else _jump_time(survival, remaining, at_end, r)
        table = table * np.exp(-kappa * tau * fock.n / 2)
        sq_norms = _sq_norms(table).tolist()
        w0, w1 = _unit_weights(w0, w1, sq_norms)
        if at_end >= r:
            break
        t += tau
        j = _jump_cavity(_jump_flux(table, w0, w1, sq_norms, kappa), rng.random())
        rows = table[j::k]  # cavity j's branch-0 and branch-1 rows, a view
        rows[:, :-1] = fock.root * rows[:, 1:]
        rows[:, -1] = 0.0
        sq_norms[j], sq_norms[k + j] = _sq_norms(rows).tolist()
        parity[j] = -parity[j]
        w0, w1 = _unit_weights(w0, w1, sq_norms)
        jumps[j].append(t_offset + t)
    return FactoredChain(w0, w1, fc.spec, read_only(table), tuple(sq_norms), tuple(parity)), jumps


@dataclass(frozen=True)
class ProtectionResult:
    seed: int
    corrected: bool
    record: TrajectoryRecord
    final_logical_fidelity: float


class ProtectionPrefix(NamedTuple):
    """The rounds that the corrected and the uncorrected run of a seed share.

    ``record`` holds the trajectory up to the first round that reads -1,
    before its repump, or through all ``rounds`` rounds when no round
    does: its ``final_state`` is the chain there, and ``rng_state`` is the
    state of the seed's generator there.  ``run_protected`` reads a prefix
    and writes nothing into it, so one prefix starts both runs of a pair.

    An immutable named tuple rather than a frozen dataclass: defining the
    class costs about 0.06 ms at import against 0.5 ms for the dataclass
    (Python 3.11, 2-core VM), and every CLI run pays it.
    """

    rounds: int
    syndrome_interval: float
    record: TrajectoryRecord
    rng_state: dict


def _run_rounds(
    start: TrajectoryRecord, rng: np.random.Generator | None, rounds: int, interval: float,
    correct: bool, until_loss: bool,
) -> TrajectoryRecord:
    """The storage protocol's round loop, run on from ``start``.

    Each pass first repumps, when ``correct``, every cavity that the last
    round read -1.  It then stops once ``rounds`` rounds have run, or, with
    ``until_loss``, once a round has read -1; otherwise it runs one round:
    loss from t over the segment, then a parity read of every cavity.  t
    sums the segments, and the last one ends at ``rounds * interval``.
    Returns the record of the whole trajectory so far.  ``rng`` is read only
    when a round runs, so it may be None when ``start`` has every round.
    """
    fc = start.final_state
    spec = fc.spec
    jumps, outcomes = list(map(list, start.jump_times)), list(map(list, start.parity_outcomes))
    meas_times = list(start.measurement_times)
    t = meas_times[-1] if meas_times else 0.0
    syndrome = [o[-1] for o in outcomes] if meas_times else []
    last_repump = np.zeros(fc.k)  # a prefix repumps no cavity
    duration = rounds * interval
    while True:
        if correct:
            for j, s in enumerate(syndrome):
                if s == -1:
                    decayed = spec.alpha * np.exp(-spec.kappa * (t - last_repump[j]) / 2)
                    fc = fc_repump(fc, j, decayed)
                    last_repump[j] = t
        if len(meas_times) == rounds or (until_loss and -1 in syndrome):
            break
        seg = min(interval, duration - t)
        fc, seg_jumps = fc_loss_segment(fc, seg, rng, t_offset=t)
        syndrome = []
        for j, u in enumerate(rng.random(fc.k).tolist()):  # the stream of k ``rng.random()`` calls
            jumps[j].extend(seg_jumps[j])
            syndrome.append(1 if u < fc_parity_probability(fc, j) else -1)
            fc = fc_project_parity(fc, j, syndrome[j])
            outcomes[j].append(syndrome[j])
        t += seg
        meas_times.append(t)
    return TrajectoryRecord(
        tuple(map(tuple, jumps)), tuple(map(tuple, outcomes)), tuple(meas_times), start.seed, fc
    )


def start_protected(
    spec: CavitySpec, k: int, rounds: int, syndrome_interval: float, seed: int
) -> ProtectionPrefix:
    """The prefix that both runs of ``seed`` on a k-cavity chain share.

    Corrected and uncorrected runs consume identical random streams (the
    repump is deterministic) and first differ at the repump after a round
    that reads -1, so the rounds up to that one run here, uncorrected, once
    per pair.  ``rounds`` is the whole number of syndrome rounds in the
    run, each ``syndrome_interval`` long.
    """
    if syndrome_interval <= 0:
        raise ValueError("syndrome interval must be positive")
    if not (isinstance(rounds, (int, np.integer)) and rounds >= 0):
        raise ValueError(f"round count must be a nonnegative integer, got {rounds!r}")
    rng = np.random.default_rng(seed)
    empty = TrajectoryRecord(((),) * k, ((),) * k, (), int(seed), factored_chain(spec, k))
    record = _run_rounds(empty, rng, rounds, syndrome_interval, correct=False, until_loss=True)
    return ProtectionPrefix(rounds, syndrome_interval, record, rng.bit_generator.state)


def run_protected(prefix: ProtectionPrefix, correct: bool = True) -> ProtectionResult:
    """One trajectory of the storage protocol: the run of ``prefix``'s seed.

    Loss evolves the chain between syndrome rounds; each round measures the
    parity of every cavity and, when correcting, repumps the -1 cavities
    back to the nominal amplitude.  The rounds after the prefix run here,
    so the result is the run from t = 0, bit for bit, and a shared seed
    yields a paired comparison.
    """
    rng = None  # a prefix that ran every round leaves no draw to make
    if len(prefix.record.measurement_times) < prefix.rounds:
        rng = np.random.default_rng(prefix.record.seed)
        rng.bit_generator.state = prefix.rng_state
    record = _run_rounds(
        prefix.record, rng, prefix.rounds, prefix.syndrome_interval, correct, until_loss=False
    )
    try:
        record.validate(restored_each_round=correct)
    except ValueError as exc:  # a jump time rounded onto 0 or a round's end
        raise ConvergenceError(
            f"{exc} at kappa = {record.final_state.spec.kappa:g}: jump times unresolved at root "
            f"tolerance {_JUMP_XTOL:g} s"
        ) from exc
    return ProtectionResult(record.seed, correct, record, record.final_state.logical_fidelity())
