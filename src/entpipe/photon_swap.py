"""Single-photon frequency conversion on a driven three-level emitter.

A photon in a Gaussian wavepacket scatters off a ladder emitter with two
decay channels (rates gamma1 back to the input transition, gamma2 to the
lower transition), converting it to the shifted frequency rail with
probability P(t).  One route computes P: the model's exact continuum form
(``continuum_probability``).  With Gamma = gamma1 + gamma2 and the pulse
psi(t) = (d^2/2pi)^{1/4} e^{-d^2 t^2/4} entering at t = 0 (the paper's
half-pulse convention), the emitter amplitude is
a(s) = -sqrt(gamma1) int_0^s psi(t') e^{-Gamma (s - t')/2} dt', an erfcx
expression (``_emitter_amplitude``), and P(t) = gamma2 int_0^t |a(s)|^2 ds
is a cumulative Gauss-Legendre quadrature on panels sized from the
timescales 1/d and 1/Gamma.  The swap stage and the sweep both evaluate it
out to the same ``horizon``.  P does not depend on the lower splitting w2:
only the bright combination of the two rails couples to the emitter (the
even/odd decomposition of Shen & Fan, PRL 95, 213001 (2005)).

The sweep report also carries one fixed reference propagation (d = gamma = 1,
t = 6) of the continuum discretized on a uniform frequency grid with
trapezoid weights.  On degenerate rails (w2 = 0) only the bright rail
couples, so its state is the n_k + 1 amplitudes of that rail and the
excited emitter, written in the static-coefficient form obtained by folding
the rotating-frame phase factors into the amplitudes: a sparse
time-independent generator applied by Krylov propagation
(``propagate_static``), from which both rails are rebuilt in closed form.
Its P sits O(Gamma / window) above the continuum form (about 4e-3 at
+-12 Gamma).  It stays until the benchmark's tracer no longer needs its
spans; ``tests/oracle_swap.py`` keeps the Krylov sweep loop, the two-rail
generator and the adaptive-integrator routes as the oracles of both routes.

The printed closed-form emission probability is also evaluated verbatim for
comparison reports; it contains a growing exponential and is never used as a
reference.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply
from scipy.special import erfcx

from .errors import GridError, LayoutError, NotGhzClassError
from .hilbert import StateVector
from .polarization import TwoBranchRails

_PLATEAU_TOL = 1e-3  # |P(t_end) - P(0.9 t_end)| that counts as converged
_MAX_EXTENSIONS = 6  # sweep attempts, each 1.5x longer than the last
_CLOSED_FORM_STEPS = 2000  # trapezoid intervals of the printed closed form
_GL_ORDER = 16  # Gauss-Legendre nodes on every time panel of the continuum form
_GAUSS_CUTOFF = 64.0  # e^{-u^2/4} is already 0.0 in float64 beyond u = 55


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


def detunings(dot: ThreeLevelDot, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    k = grid.points
    return dot.w1 - k, dot.w1 - dot.w2 - k


# ----------------------------------------------------------- static route

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
    """Bright-rail generator for phase-folded amplitudes u = g e^{i t delta}.

    du1/dt = i delta u1 - b1 u3; du2/dt = i delta' u2 - b2 u3;
    du3/dt = sum_k w_k (b1 u1 + b2 u2).  Moduli match the rotating frame
    pointwise, so probabilities agree between the two frames.

    With w2 = 0 (delta' = delta) the rails merge: for the bright amplitude
    B = c1 u1 + c2 u2, c = (b1, b2) / b, the equations close as
    dB/dt = i delta B - b u3 and du3/dt = sum_k w_k b B, with
    b = hypot(b1, b2), while the dark amplitude c1 u2 - c2 u1 evolves
    freely.  The generator is (n_k + 1)-dimensional over (B, u3).  Split
    rails (w2 > 0) raise ``ValueError``; ``tests/oracle_swap.py`` keeps
    their two-rail generator.
    """
    if dot.w2 != 0:
        raise ValueError("only degenerate rails (w2 = 0) merge into one bright rail")
    delta, _ = detunings(dot, grid)
    b = math.hypot(*_rail_couplings(dot))
    return _arrowhead(1j * delta, np.full(grid.n_k, -b), b * grid.weights)


def propagate_static(
    dot: ThreeLevelDot, mode: GaussianMode, grid: SpectralGrid, times: np.ndarray
) -> np.ndarray:
    """Phase-folded amplitudes (u1, u2, u3) at the requested times (Krylov).

    Rows have the two-rail layout of 2 n_k + 1 amplitudes.  The bright
    amplitude B is propagated from c1 f, and with the free part
    F = f e^{i delta t} and R = B - c1 F the rails are u1 = F + c1 R and
    u2 = c2 R: both rails are exactly (f, 0) at t = 0, where R vanishes.

    Raises ``GridError`` when the last time lies beyond half the grid's
    recurrence time, and ``ValueError`` on split rails (w2 > 0).
    """
    _validate_recurrence(grid, max(times, default=0.0))
    f = gaussian_mode(mode, grid)
    n = grid.n_k
    b1, b2 = _rail_couplings(dot)
    b = math.hypot(b1, b2)
    c1, c2 = (b1 / b, b2 / b) if b > 0 else (1.0, 0.0)
    m = static_generator(dot, grid)
    y = np.zeros(m.shape[0], dtype=np.complex128)
    y[:n] = c1 * f
    states = np.empty((len(times), m.shape[0]), dtype=np.complex128)
    prev_t = 0.0
    for i, t in enumerate(times):
        if t < prev_t:
            raise ValueError("times must be nondecreasing")
        if t > prev_t:
            y = expm_multiply(m * (t - prev_t), y)
            prev_t = t
        states[i] = y
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

def _trapezoid_panels(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid area of every interval, in scipy.integrate's operation order.

    Their sum and running sum equal ``scipy.integrate.trapezoid`` and
    ``cumulative_trapezoid`` bit for bit.
    """
    return np.diff(x) * (y[1:] + y[:-1]) / 2.0


def closed_form_emission(dot: ThreeLevelDot, mode: GaussianMode, t: float) -> float | None:
    """Evaluate the printed closed-form emission probability.

    The formula is reproduced verbatim, including its growing exponential
    exp(+(gamma1+gamma2) t''/2); the value is returned for the record and is
    never asserted against the integrated dynamics.  ``None`` when a step of
    the formula leaves float64 (that exponential overflows first).
    """
    g = dot.gamma1 + dot.gamma2
    tpp = np.linspace(0.0, t, _CLOSED_FORM_STEPS + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            integrand = np.exp(-mode.d**2 * tpp**2 / 4 + g * tpp / 2)
            inner = np.concatenate(([0.0], np.cumsum(_trapezoid_panels(integrand, tpp))))
            outer = dot.gamma1 * dot.gamma2 * mode.d / math.sqrt(2 * math.pi) * np.abs(inner) ** 2
            p = float(np.sum(_trapezoid_panels(outer, tpp)))
    except (FloatingPointError, OverflowError):
        return None
    return p if math.isfinite(p) else None


def closed_form_report(dot: ThreeLevelDot, mode: GaussianMode, t: float, p_ode: float) -> dict:
    """Dynamics vs printed-formula comparison as plain data (never a pass/fail).

    ``p_ode`` is the conversion probability at ``t`` that the caller has
    already computed.  ``p_closed`` and ``abs_diff`` are ``None`` when the
    printed formula leaves float64.
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
        "abs_diff": None if p_closed is None else abs(p_ode - p_closed),
    }


# ---------------------------------------------------- continuum closed form

def _emitter_amplitude(u: np.ndarray, r: float) -> np.ndarray:
    """Emitter amplitude of the continuum model, scaled to be O(1): r J(u).

    Time is u = d s in units of the pulse and r = Gamma / d.  With
    x0 = r/2 and x1 = u/2 - x0, completing the square gives
    int_0^s psi(t') e^{-Gamma (s - t')/2} dt' = (d^2/2pi)^{1/4} (sqrt(pi)/d) J
    with J = e^{x0^2 - r u/2} (erf x0 + erf x1).  Through erfcx no growing
    exponential is formed:
    J = e^{-u^2/4} erfcx(-x1) - e^{-r u/2} erfcx(x0) for x1 <= 0, and
    J = 2 e^{-x0 (u - x0)} - e^{-u^2/4} erfcx(x1) - e^{-r u/2} erfcx(x0)
    for x1 > 0, where x0 (u - x0) >= x0^2.  So
    |a(s)|^2 = sqrt(pi/2) gamma1 d / Gamma^2 (r J)^2.
    """
    x0 = r / 2
    x1 = u / 2 - x0
    gauss = np.exp(-np.minimum(u, _GAUSS_CUTOFF) ** 2 / 4)
    j = np.empty_like(u)
    before = x1 <= 0
    j[before] = gauss[before] * erfcx(-x1[before])
    after = ~before
    j[after] = 2 * np.exp(-x0 * (u[after] - x0)) - gauss[after] * erfcx(x1[after])
    j -= np.exp(-x0 * u) * erfcx(x0)
    return r * j


def _time_panels(r: float, u_times: np.ndarray) -> np.ndarray:
    """Quadrature panel edges in u = d t, from 0 to the last requested time.

    Going back from the last time, each panel is half as wide as the one
    after it, down to 1/16 of the shorter timescale (1 for the pulse, 1/r
    for the decay).  A panel is then never wider than the time before it,
    so the Gaussian and the exponential are smooth on every panel at every
    scale, and the count grows only as log2 of u_end / timescale.  The
    requested times are edges, so each P(t) is a partial sum.
    """
    top = float(np.max(u_times))
    h0 = min(1.0, 1.0 / r) / 16
    n = max(0, math.ceil(math.log2(top) - math.log2(h0)))
    edges = np.concatenate(([0.0], top * np.exp2(-np.arange(n + 1.0)), u_times))
    return np.unique(edges)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The panel rule, built on first use (read-only, as every caller shares
    it): stages that never sweep skip its eigenvalue solve at import."""
    rule = np.polynomial.legendre.leggauss(_GL_ORDER)
    for a in rule:
        a.setflags(write=False)
    return rule


def _cumulative_panels(edges: np.ndarray, r: float) -> np.ndarray:
    """int_0^u (r J)^2 du' at every edge."""
    nodes, weights = _gauss_legendre()
    mid = (edges[1:] + edges[:-1]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    u = mid[:, None] + half[:, None] * nodes
    f = _emitter_amplitude(u.ravel(), r).reshape(u.shape) ** 2
    return np.concatenate(([0.0], np.cumsum(half * (f @ weights))))


def continuum_probability(
    d: float, gamma1: float, gamma2: float, times
) -> tuple[np.ndarray, int]:
    """P(t) = gamma2 int_0^t |a(s)|^2 ds of the continuum model, and the node count.

    The pulse enters at t = 0 (half-pulse convention).  In u = d s,
    P = sqrt(pi/2) (gamma1/Gamma) (gamma2/Gamma) int_0^{d t} (r J)^2 du, one
    cumulative pass over the panels of ``_time_panels`` for all ``times``.
    With both rates zero the emitter never couples: P = 0 and no nodes.
    """
    if d <= 0 or gamma1 < 0 or gamma2 < 0:
        raise ValueError("need a positive bandwidth and nonnegative rates")
    g_tot = gamma1 + gamma2
    times = np.asarray(times, dtype=float)
    if g_tot == 0 or not np.any(times > 0):
        return np.zeros(times.shape), 0
    r = g_tot / d
    u = d * times
    edges = _time_panels(r, u)
    cum = _cumulative_panels(edges, r)
    scale = math.sqrt(math.pi / 2) * (gamma1 / g_tot) * (gamma2 / g_tot)
    return scale * cum[np.searchsorted(edges, u)], _GL_ORDER * (edges.size - 1)


def horizon(d: float, g_tot: float) -> float:
    """Run length 6/d + 8/Gamma: the pulse's passage plus eight decay times.

    ``g_tot`` is Gamma = gamma1 + gamma2; with Gamma = 0 nothing decays and
    the run covers only the pulse.
    """
    return 6.0 / d + (8.0 / g_tot if g_tot > 0 else 0.0)


# ------------------------------------------------------------------- sweep

def sweep_point(d: float, gamma: float) -> dict:
    """Long-time conversion probability for one (bandwidth, rate) pair.

    Dimensionless convention: gamma1 = gamma2 = gamma, frequencies in the
    common reference unit.  P comes from the continuum closed form
    (``continuum_probability``), so there is no spectral window and no
    grid.  The run is extended (x1.5) until P plateaus:
    |P(t_end) - P(0.9 t_end)| <= ``_PLATEAU_TOL``, for at most
    ``_MAX_EXTENSIONS`` attempts.  Rows that never plateau are flagged, not
    dropped.  ``n_t`` counts the quadrature nodes of the last attempt.
    """
    if d <= 0 or gamma <= 0:
        raise ValueError("sweep parameters must be positive")
    t_cur = horizon(d, 2 * gamma)
    converged = False
    p_end = math.nan
    n_t = 0
    for _ in range(_MAX_EXTENSIONS):
        p, n_t = continuum_probability(d, gamma, gamma, [0.9 * t_cur, t_cur])
        p_late, p_end = float(p[0]), float(p[1])
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
        "n_t": n_t,
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
) -> tuple[TwoBranchRails, float]:
    """Heralded map from a two-branch GHZ-class dot register to dual-rail photons.

    Per dot: the |0> branch emits into the shifted-frequency rail (|10>),
    the |1> branch leaves the input photon on the original rail (|01>); the
    dots decouple in |1>.  The register must be a|p> + b|~p> on two
    complementary dot patterns with balanced weights, so the photons are the
    rail pattern of p, its complement and the same two amplitudes, built in
    O(n) without the 4^n rail vector.  Amplitude on other patterns is
    dropped only within the GHZ tolerance (``complementary_branches``), as
    an executed schedule leaves it.  Any other register, GHZ-class or not,
    raises NotGhzClassError.  The herald probability is the product of
    the per-dot conversion successes.
    """
    from .spin_register import complementary_branches, is_ghz_class

    n = register.layout.n_subsystems
    if register.layout.dims != (2,) * n:
        raise LayoutError("register must be a qubit register")
    branches = complementary_branches(register)
    if branches is None:
        raise NotGhzClassError("register is not two complementary computational branches")
    if n > 1 and not is_ghz_class(register):
        raise NotGhzClassError("register state is not GHZ-class")
    probs = [p_success] * n if np.isscalar(p_success) else list(p_success)
    if len(probs) != n:
        raise ValueError("need one success probability per dot")
    for p in probs:
        if not 0 < p <= 1:
            raise ValueError("success probabilities must lie in (0, 1]")
    herald = float(np.prod(probs))
    dots, a, b = branches
    rails = 0
    for dot_i in range(n):
        bit = (dots >> (n - 1 - dot_i)) & 1
        rails = (rails << 2) | (0b01 if bit else 0b10)
    return TwoBranchRails(n, rails, a, b), herald
