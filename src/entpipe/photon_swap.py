"""Single-photon frequency conversion on a driven three-level emitter.

A photon in a Gaussian wavepacket scatters off a ladder emitter with two
decay channels (rates gamma1 back to the input transition, gamma2 to the
lower transition), converting it to the shifted frequency rail with
probability P(t) = integral |g2(k)|^2 dk.  The continuum is discretized on a
uniform frequency grid with trapezoid weights; the state is 2 n_k + 1
amplitudes, one per grid point and rail plus the excited emitter.

The amplitudes are propagated in the static-coefficient form obtained by
folding the time-dependent phase factors of the rotating-frame equations
into the amplitudes: a sparse time-independent generator, applied by Krylov
propagation (``propagate_static``).  This is the only dynamics route in the
package; the swap series, the sweep and both comparison reports use it.
The adaptive-integrator routes (rotating frame and static form, both with
``scipy.integrate``) and the two-rail generator they integrate are kept in
``tests/oracle_swap.py`` as the oracles it is cross-checked against.

When the lower splitting w2 is zero the two rails see the same detunings,
and the rails merge.  The emitter then couples only to the bright
combination c1 g1 + c2 g2, with c = (b1, b2) / b and b = hypot(b1, b2); the
orthogonal dark combination starts at -c2 f and only picks up the free
phase e^{i delta t}.  This is exact (the even/odd decomposition of Shen &
Fan, PRL 95, 213001 (2005)), so the Krylov solver propagates the n_k + 1
bright amplitudes and the rails are rebuilt from them in closed form.  Every
production conversion run (the sweep, and the swap stage at its default
w2 = 0) takes this route; w2 > 0 propagates both rails.

The printed closed-form emission probability is also evaluated verbatim for
comparison reports; it contains a growing exponential and is never used as a
reference, the propagated dynamics are the ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .errors import GridError, LayoutError, NotGhzClassError
from .hilbert import StateVector, qubits

_PLATEAU_TOL = 1e-3  # |P(t_end) - P(0.9 t_end)| that counts as converged
_MAX_EXTENSIONS = 6  # sweep attempts, each 1.5x longer than the last
_CLOSED_FORM_STEPS = 2000  # trapezoid intervals of the printed closed form


@dataclass(frozen=True)
class ThreeLevelDot:
    w1: float  # upper transition frequency (rad/s)
    w2: float  # lower level splitting (rad/s)
    gamma1: float  # decay rate back to the input channel (1/s)
    gamma2: float  # decay rate into the shifted channel (1/s)

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("decay rates must be nonnegative")
        if not self.w1 > self.w2 >= 0:
            raise ValueError("transition frequencies must satisfy w1 > w2 >= 0")


@dataclass(frozen=True)
class SpectralGrid:
    k_min: float
    k_max: float
    n_k: int

    def __post_init__(self):
        if not self.k_min < self.k_max:
            raise GridError("k_min must be below k_max")
        if self.n_k < 64:
            raise GridError("need at least 64 grid points")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.n_k)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights; they sum to the grid span."""
        dk = (self.k_max - self.k_min) / (self.n_k - 1)
        w = np.full(self.n_k, dk)
        w[0] = w[-1] = dk / 2
        return w

    @property
    def span(self) -> float:
        return self.k_max - self.k_min


@dataclass(frozen=True)
class GaussianMode:
    d: float  # bandwidth (rad/s)
    center: float  # carrier (rad/s)

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("bandwidth must be positive")


def gaussian_mode(mode: GaussianMode, grid: SpectralGrid) -> np.ndarray:
    """Sample the normalized Gaussian wavepacket on the grid."""
    if grid.k_min > mode.center - 6 * mode.d or grid.k_max < mode.center + 6 * mode.d:
        raise GridError("grid must span at least six bandwidths around the mode center")
    k = grid.points
    f = (2 / (math.pi * mode.d**2)) ** 0.25 * np.exp(-((k - mode.center) ** 2) / mode.d**2)
    norm = float(np.sum(grid.weights * np.abs(f) ** 2))
    if abs(norm - 1.0) > 1e-6:
        raise GridError(f"discrete mode norm {norm:.8f} deviates from 1 beyond 1e-6")
    return f.astype(np.complex128)


def _validate_recurrence(grid: SpectralGrid, t_end: float):
    """A uniform grid echoes at 2 pi / dk; stay well inside that horizon."""
    dk = grid.span / (grid.n_k - 1)
    t_rec = 2 * math.pi / dk
    if t_end > t_rec / 2:
        raise GridError(
            f"t_end={t_end:.3e} beyond half the grid recurrence time {t_rec:.3e}; raise n_k"
        )


def grid_points_for(t_end: float, half: float) -> int:
    """Grid size for a window of half-width ``half`` that is run to ``t_end``.

    The smallest multiple of 256 (at least 1024) whose recurrence time
    2 pi / dk is at least 2.2 t_end, so ``t_end`` stays inside the
    recurrence guard of ``propagate_static`` with a 10% margin.
    """
    return max(1024, 256 * math.ceil(2.2 * t_end * half / math.pi / 256))


def detunings(dot: ThreeLevelDot, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    k = grid.points
    return dot.w1 - k, dot.w1 - dot.w2 - k


# ----------------------------------------------------------- static route

def _rails_merge(dot: ThreeLevelDot) -> bool:
    """Both rails see the same detunings, so only their bright sum couples."""
    return dot.w2 == 0


def _rail_couplings(dot: ThreeLevelDot) -> tuple[float, float]:
    """Channel couplings b_j = sqrt(gamma_j / 2 pi)."""
    return math.sqrt(dot.gamma1 / (2 * math.pi)), math.sqrt(dot.gamma2 / (2 * math.pi))


def _arrowhead(diag: np.ndarray, col: np.ndarray, row: np.ndarray) -> scipy.sparse.csr_matrix:
    """CSR of [[diag(diag), col], [row, 0]], built from its index arrays.

    Each photon row holds its diagonal and its emitter entry; the emitter row
    holds every photon column.  Zero entries (a grid point on resonance, a
    closed channel) and the emitter's diagonal are not stored.
    """
    n = len(diag)
    photons = np.arange(n, dtype=np.int32)
    indices = np.empty(3 * n, dtype=np.int32)
    indices[0 : 2 * n : 2] = photons
    indices[1 : 2 * n : 2] = n
    indices[2 * n :] = photons
    data = np.empty(3 * n, dtype=np.complex128)
    data[0 : 2 * n : 2] = diag
    data[1 : 2 * n : 2] = col
    data[2 * n :] = row
    indptr = np.append(np.arange(0, 2 * n + 1, 2, dtype=np.int32), np.int32(3 * n))
    m = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))
    m.eliminate_zeros()
    return m


def static_generator(dot: ThreeLevelDot, grid: SpectralGrid) -> scipy.sparse.csr_matrix:
    """Time-independent generator for phase-folded amplitudes u = g e^{i t delta}.

    du1/dt = i delta u1 - b1 u3; du2/dt = i delta' u2 - b2 u3;
    du3/dt = sum_k w_k (b1 u1 + b2 u2).  Moduli match the rotating frame
    pointwise, so probabilities agree between the two routes.

    With w2 = 0 (delta' = delta) the rails merge: for the bright amplitude
    B = c1 u1 + c2 u2, c = (b1, b2) / b, the equations close as
    dB/dt = i delta B - b u3 and du3/dt = sum_k w_k b B, with
    b = hypot(b1, b2), while the dark amplitude c1 u2 - c2 u1 evolves
    freely.  The generator is then (n_k + 1)-dimensional over (B, u3).
    Otherwise it is (2 n_k + 1)-dimensional over (u1, u2, u3).
    """
    n = grid.n_k
    w = grid.weights
    delta, delta_p = detunings(dot, grid)
    b1, b2 = _rail_couplings(dot)
    if _rails_merge(dot):
        b = math.hypot(b1, b2)
        return _arrowhead(1j * delta, np.full(n, -b), b * w)
    return _arrowhead(
        np.concatenate([1j * delta, 1j * delta_p]),
        np.concatenate([np.full(n, -b1), np.full(n, -b2)]),
        np.concatenate([b1 * w, b2 * w]),
    )


def propagate_static(
    dot: ThreeLevelDot, mode: GaussianMode, grid: SpectralGrid, times: np.ndarray
) -> np.ndarray:
    """Phase-folded amplitudes (u1, u2, u3) at the requested times (Krylov).

    Rows have the two-rail layout of 2 n_k + 1 amplitudes whichever
    generator was propagated.  On merged rails the bright amplitude B is
    propagated from c1 f, and with the free part F = f e^{i delta t} and
    R = B - c1 F the rails are u1 = F + c1 R and u2 = c2 R: both rails are
    exactly (f, 0) at t = 0, where R vanishes.

    Raises ``GridError`` when the last time lies beyond half the grid's
    recurrence time.
    """
    _validate_recurrence(grid, max(times, default=0.0))
    f = gaussian_mode(mode, grid)
    n = grid.n_k
    merged = _rails_merge(dot)
    b1, b2 = _rail_couplings(dot)
    b = math.hypot(b1, b2)
    c1, c2 = (b1 / b, b2 / b) if b > 0 else (1.0, 0.0)
    m = static_generator(dot, grid)
    y = np.zeros(m.shape[0], dtype=np.complex128)
    y[:n] = c1 * f if merged else f
    states = np.empty((len(times), m.shape[0]), dtype=np.complex128)
    prev_t = 0.0
    for i, t in enumerate(times):
        if t < prev_t:
            raise ValueError("times must be nondecreasing")
        if t > prev_t:
            y = expm_multiply(m * (t - prev_t), y)
            prev_t = t
        states[i] = y
    if not merged:
        return states
    delta, _ = detunings(dot, grid)
    free = f * np.exp(1j * np.outer(times, delta))
    residual = states[:, :n] - c1 * free
    out = np.empty((len(times), 2 * n + 1), dtype=np.complex128)
    out[:, :n] = free + c1 * residual
    out[:, n : 2 * n] = c2 * residual
    out[:, 2 * n] = states[:, n]
    return out


def conversion_probability(grid: SpectralGrid, amps: np.ndarray) -> np.ndarray:
    """P = sum_k w_k |g2(k)|^2, the shifted-rail weight, per row of ``amps``.

    Phase folding keeps moduli, so rows from ``propagate_static`` give the
    rotating-frame probability.
    """
    n = grid.n_k
    return np.sum(grid.weights * np.abs(amps[:, n : 2 * n]) ** 2, axis=1)


# ------------------------------------------------------- printed closed form

def closed_form_emission(dot: ThreeLevelDot, mode: GaussianMode, t: float) -> float:
    """Evaluate the printed closed-form emission probability.

    The formula is reproduced verbatim, including its growing exponential
    exp(+(gamma1+gamma2) t''/2); the value is returned for the record and is
    never asserted against the integrated dynamics.
    """
    g = dot.gamma1 + dot.gamma2
    tpp = np.linspace(0.0, t, _CLOSED_FORM_STEPS + 1)
    integrand = np.exp(-mode.d**2 * tpp**2 / 4 + g * tpp / 2)
    inner = scipy.integrate.cumulative_trapezoid(integrand, tpp, initial=0.0)
    return float(
        scipy.integrate.trapezoid(
            dot.gamma1 * dot.gamma2 * mode.d / math.sqrt(2 * math.pi) * np.abs(inner) ** 2, tpp
        )
    )


def closed_form_report(dot: ThreeLevelDot, mode: GaussianMode, t: float, p_ode: float) -> dict:
    """Dynamics vs printed-formula comparison as plain data (never a pass/fail).

    ``p_ode`` is the conversion probability at ``t`` that the caller has
    already propagated.
    """
    p_closed = closed_form_emission(dot, mode, t)
    return {
        "params": {
            "gamma1": dot.gamma1,
            "gamma2": dot.gamma2,
            "d": mode.d,
            "t": t,
        },
        "p_ode": p_ode,
        "p_closed": p_closed,
        "abs_diff": abs(p_ode - p_closed),
    }


# ------------------------------------------------------------------- sweep

def sweep_point(d: float, gamma: float) -> dict:
    """Long-time conversion probability for one (bandwidth, rate) pair.

    Dimensionless convention: gamma1 = gamma2 = gamma, frequencies in the
    common reference unit.  The spectral window spans twelve total
    linewidths (or six bandwidths, whichever is wider); the plateau and
    grid-convergence checks all operate at fixed window.  The run is
    extended (x1.5, regridding as needed) until P plateaus:
    |P(t_end) - P(0.9 t_end)| <= ``_PLATEAU_TOL``, for at most
    ``_MAX_EXTENSIONS`` attempts.  Rows that never plateau are flagged, not
    dropped.
    """
    if d <= 0 or gamma <= 0:
        raise ValueError("sweep parameters must be positive")
    g_tot = 2 * gamma
    half = max(6 * d, 12 * g_tot)
    center = 10 * half  # keep w1 > w2 = 0 with the window far from zero
    dot = ThreeLevelDot(w1=center, w2=0.0, gamma1=gamma, gamma2=gamma)
    mode = GaussianMode(d=d, center=center)
    t_cur = 6.0 / d + 8.0 / g_tot
    converged = False
    p_end = math.nan
    used_nk = 0
    for _ in range(_MAX_EXTENSIONS):
        used_nk = grid_points_for(t_cur, half)
        grid = SpectralGrid(center - half, center + half, used_nk)
        amps = propagate_static(dot, mode, grid, np.array([0.9 * t_cur, t_cur]))
        p_late, p_end = (float(p) for p in conversion_probability(grid, amps))
        if abs(p_end - p_late) <= _PLATEAU_TOL:
            converged = True
            break
        t_cur *= 1.5
    return {
        "d": d,
        "gamma": gamma,
        "p_longtime": min(max(p_end, 0.0), 1.0),
        "converged": int(converged),
        "t_end": t_cur,
        "n_k": used_nk,
    }


def sweep_surface(d_values: np.ndarray, gamma_values: np.ndarray, map_fn=map) -> list[dict]:
    """Conversion-probability surface over a (d, gamma) box.

    ``map_fn`` lets callers supply a parallel mapper; results keep row order
    (d outer, gamma inner) regardless of execution order.
    """
    points = [(float(d), float(g)) for d in d_values for g in gamma_values]
    return list(map_fn(_sweep_point_star, points))


def _sweep_point_star(args) -> dict:
    return sweep_point(*args)


# ---------------------------------------------------------- register swap

def register_swap(
    register: StateVector, p_success: float | list[float]
) -> tuple[StateVector, float]:
    """Heralded map from a GHZ-class dot register to dual-rail photons.

    Per dot: the |0> branch emits into the shifted-frequency rail (|10>),
    the |1> branch leaves the input photon on the original rail (|01>); the
    dots decouple in |1>.  The herald probability is the product of the
    per-dot conversion successes.
    """
    from .spin_register import is_ghz_class

    n = register.layout.n_subsystems
    if register.layout.dims != (2,) * n:
        raise LayoutError("register must be a qubit register")
    if n > 1 and not is_ghz_class(register):
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
