"""Test oracles for both conversion routes of ``entpipe.photon_swap``.

The swap stage and the sweep evaluate the continuum closed form.
``krylov_sweep_point`` is the plateau loop that computed the sweep before,
by Krylov propagation on a uniform frequency grid sized by
``grid_points_for``; its values converge to the closed form as the
spectral window widens, so it serves as the closed form's oracle.

The sweep report's fixed reference point propagates the merged-rail
static-coefficient generator by Krylov.  This module keeps two independent
integrations of the same amplitude equations with
``scipy.integrate.solve_ivp``: the rotating frame with explicit phase
factors, and the static-coefficient (lab) frame.  The lab frame uses
``two_rail_generator``, the (2 n_k + 1)-dimensional generator assembled
through ``lil_matrix``; it is the reference for the package's merged-rail
route and the only generator of split rails (w2 > 0).  Acceptance 07, the
frame-invariance tests and the reference-point check of the sweep report
compare against them.  Only tests import it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse

from entpipe.errors import EntpipeError, GridError
from entpipe.photon_swap import (
    GaussianMode,
    SpectralGrid,
    ThreeLevelDot,
    _validate_recurrence,
    conversion_probability,
    detunings,
    gaussian_mode,
    propagate_static,
)


class StepSizeError(EntpipeError):
    """Integration step does not resolve the fastest dynamical scale."""


_NORM_DRIFT_HARD = 1e-4
_MAX_EXTENSIONS = 6  # Krylov sweep attempts, each 1.5x longer than the last
_PLATEAU_TOL = 1e-3  # |P(t_end) - P(0.9 t_end)| that ends the Krylov extension loop


def grid_points_for(t_end: float, half: float) -> int:
    """Grid size for a window of half-width ``half`` that is run to ``t_end``.

    The smallest multiple of 256 (at least 1024) whose recurrence time
    2 pi / dk is at least 2.2 t_end, so ``t_end`` stays inside the
    recurrence guard of ``propagate_static`` with a 10% margin.
    """
    return max(1024, 256 * math.ceil(2.2 * t_end * half / math.pi / 256))


def grid_for_dot(dot: ThreeLevelDot, mode: GaussianMode, n_k: int = 1024) -> SpectralGrid:
    """Default window: centered on the mode, wide enough for mode and lines."""
    half = max(6 * mode.d, 20 * (dot.gamma1 + dot.gamma2))
    return SpectralGrid(mode.center - half, mode.center + half, n_k)


@dataclass(frozen=True)
class AmplitudeState:
    """Joint photon-emitter amplitudes at one time.

    g1[k]: photon at k, emitter on the input transition; g2[k]: photon at k,
    emitter on the shifted transition; g3: excited emitter, no photon.
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: complex
    t: float

    def norm_squared(self, grid: SpectralGrid) -> float:
        w = grid.weights
        return float(
            np.sum(w * (np.abs(self.g1) ** 2 + np.abs(self.g2) ** 2)) + abs(self.g3) ** 2
        )


@dataclass(frozen=True)
class SwapTrajectory:
    times: np.ndarray
    g1: np.ndarray  # shape (n_times, n_k)
    g2: np.ndarray
    g3: np.ndarray  # shape (n_times,)
    dot: ThreeLevelDot
    mode: GaussianMode
    grid: SpectralGrid

    def state_at(self, i: int) -> AmplitudeState:
        return AmplitudeState(self.g1[i], self.g2[i], complex(self.g3[i]), float(self.times[i]))

    def norm_squared(self) -> np.ndarray:
        w = self.grid.weights
        return (
            np.sum(w * (np.abs(self.g1) ** 2 + np.abs(self.g2) ** 2), axis=1)
            + np.abs(self.g3) ** 2
        )


def two_rail_generator(dot: ThreeLevelDot, grid: SpectralGrid) -> scipy.sparse.csr_matrix:
    """Time-independent generator for phase-folded amplitudes u = g e^{i t delta}.

    du1/dt = i delta u1 - b1 u3; du2/dt = i delta' u2 - b2 u3;
    du3/dt = sum_k w_k (b1 u1 + b2 u2).  Moduli match the rotating frame
    pointwise, so probabilities agree between the two routes.
    """
    n = grid.n_k
    w = grid.weights
    delta, delta_p = detunings(dot, grid)
    b1 = math.sqrt(dot.gamma1 / (2 * math.pi))
    b2 = math.sqrt(dot.gamma2 / (2 * math.pi))
    diag = np.concatenate([1j * delta, 1j * delta_p, [0.0]])
    m = scipy.sparse.lil_matrix((2 * n + 1, 2 * n + 1), dtype=np.complex128)
    m.setdiag(diag)
    m[: n, 2 * n] = -b1
    m[n : 2 * n, 2 * n] = -b2
    m[2 * n, :n] = b1 * w
    m[2 * n, n : 2 * n] = b2 * w
    return m.tocsr()


def _validate_step(dot: ThreeLevelDot, mode: GaussianMode, grid: SpectralGrid, dt: float):
    """Require >= 20 steps per fastest timescale (decay, bandwidth, grid phases)."""
    rates = [dot.gamma1 + dot.gamma2, mode.d, grid.span / (2 * math.pi)]
    fastest = max(r for r in rates if r > 0)
    if dt > 1.0 / (20 * fastest):
        raise StepSizeError(
            f"dt={dt:.3e} too coarse; fastest rate {fastest:.3e} needs dt <= {1/(20*fastest):.3e}"
        )


def integrate_dynamics(
    dot: ThreeLevelDot,
    mode: GaussianMode,
    grid: SpectralGrid,
    t_end: float,
    dt: float,
    n_samples: int = 201,
) -> SwapTrajectory:
    """Integrate the rotating-frame amplitude equations from the bare photon.

    The equations carry explicit phase factors exp(-+ i t delta_k); they are
    integrated with an adaptive solver whose maximum step is ``dt`` after the
    step-size and grid-recurrence guards pass.
    """
    _validate_step(dot, mode, grid, dt)
    _validate_recurrence(grid, t_end)
    f = gaussian_mode(mode, grid)
    n = grid.n_k
    w = grid.weights
    delta, delta_p = detunings(dot, grid)
    b1 = math.sqrt(dot.gamma1 / (2 * math.pi))
    b2 = math.sqrt(dot.gamma2 / (2 * math.pi))

    def rhs(t, y):
        g1 = y[:n]
        g2 = y[n : 2 * n]
        g3 = y[2 * n]
        ph1 = np.exp(-1j * t * delta)
        ph2 = np.exp(-1j * t * delta_p)
        d1 = -b1 * g3 * ph1
        d2 = -b2 * g3 * ph2
        d3 = np.sum(w * (b1 * g1 * np.conj(ph1) + b2 * g2 * np.conj(ph2)))
        return np.concatenate([d1, d2, [d3]])

    y0 = np.concatenate([f, np.zeros(n, dtype=np.complex128), [0.0 + 0.0j]])
    t_eval = np.linspace(0.0, t_end, n_samples)
    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t_end), y0, t_eval=t_eval, max_step=dt, rtol=1e-10, atol=1e-12
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    g1 = sol.y[:n].T
    g2 = sol.y[n : 2 * n].T
    g3 = sol.y[2 * n]
    traj = SwapTrajectory(sol.t, g1, g2, g3, dot, mode, grid)
    drift = float(np.max(np.abs(traj.norm_squared() - 1.0)))
    if drift > _NORM_DRIFT_HARD:
        raise GridError(f"norm drift {drift:.2e} indicates grid aliasing")
    return traj


def swap_probability(traj: SwapTrajectory) -> np.ndarray:
    """P(t): weight on the shifted-frequency rail at every stored sample."""
    w = traj.grid.weights
    p = np.sum(w * np.abs(traj.g2) ** 2, axis=1)
    return np.clip(p.real, 0.0, 1.0)


def integrate_lab_frame(
    dot: ThreeLevelDot,
    mode: GaussianMode,
    grid: SpectralGrid,
    t_end: float,
    dt: float,
    n_samples: int = 201,
) -> SwapTrajectory:
    """Integrate the static-coefficient form with the same adaptive solver.

    Amplitude moduli coincide with the rotating frame, so this provides the
    frame-invariance check for P(t).
    """
    _validate_step(dot, mode, grid, dt)
    _validate_recurrence(grid, t_end)
    f = gaussian_mode(mode, grid)
    n = grid.n_k
    m = two_rail_generator(dot, grid)
    y0 = np.concatenate([f, np.zeros(n, dtype=np.complex128), [0.0 + 0.0j]])
    t_eval = np.linspace(0.0, t_end, n_samples)
    sol = scipy.integrate.solve_ivp(
        lambda t, y: m @ y, (0.0, t_end), y0, t_eval=t_eval, max_step=dt, rtol=1e-10, atol=1e-12
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    traj = SwapTrajectory(
        sol.t, sol.y[:n].T, sol.y[n : 2 * n].T, sol.y[2 * n], dot, mode, grid
    )
    drift = float(np.max(np.abs(traj.norm_squared() - 1.0)))
    if drift > _NORM_DRIFT_HARD:
        raise GridError(f"norm drift {drift:.2e} indicates grid aliasing")
    return traj


def krylov_sweep_point(d: float, gamma: float, window: float = 1.0) -> dict:
    """Long-time conversion probability by Krylov propagation on a grid.

    The same convention and first horizon as ``entpipe.photon_swap.sweep_point``,
    which needs no plateau test: its closed form has stopped moving there.
    The spectral window spans ``window`` times twelve total linewidths (or six
    bandwidths, whichever is wider); the plateau and grid-convergence checks
    all operate at fixed window.  The run is extended (x1.5, regridding as
    needed) until P plateaus.  P carries a bias of O(Gamma / window) against
    the continuum, so doubling ``window`` halves the gap.
    """
    if d <= 0 or gamma <= 0:
        raise ValueError("sweep parameters must be positive")
    g_tot = 2 * gamma
    half = window * max(6 * d, 12 * g_tot)
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
