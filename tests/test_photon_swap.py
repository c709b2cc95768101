"""Photon-conversion dynamics tests.

The discretized amplitude equations, integrated by the adaptive-solver
oracles of ``oracle_swap``, are checked against an independently written
fixed-step Runge-Kutta integrator at four times the resolution; the sweep
report's grid reference route is checked against those oracles, against
scipy's propagation of the oracle's two-rail generator (the merged-rail
route), and against exact invariances (norm conservation, dimensionless
rescaling, rail-splitting independence); its Chebyshev propagator is
checked against an eigendecomposition and scipy's Taylor method, and its
coefficients against scipy's Bessel function.  The continuum closed form is
checked against a direct double integral and against Krylov as the window
widens, and its exact long-time limit against the quadrature far past the
horizon; its in-module ``erfcx`` is checked against ``scipy.special.erfcx``
and its coefficient table against Weideman's FFT recipe.  The printed
closed-form probability is checked through scipy's trapezoid rules: taken
verbatim it leaves [0, 1], and with its missing decay factor restored it
meets the continuum form that the sweep report's comparison reads.
"""
import concurrent.futures
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from entpipe import photon_swap, runner
from entpipe.config import default_config
from entpipe.errors import GridError, LayoutError, NotGhzClassError
from entpipe.hilbert import StateVector, apply_local, qubits, schmidt_spectrum
from entpipe.photon_swap import (
    GaussianMode,
    SpectralGrid,
    ThreeLevelDot,
    _ERFCX_COEFFS,
    _ERFCX_L,
    _GL_NODES,
    _GL_WEIGHTS,
    _arrowhead,
    _chebyshev_coefficients,
    _cumulative_panels,
    _secular_radius,
    _time_panels,
    closed_form_report,
    continuum_probability,
    conversion_probability,
    erfcx,
    gaussian_mode,
    propagate_static,
    register_swap,
    static_generator,
    horizon,
    longtime_probability,
    sweep_point,
)
from entpipe.runner import _dimensionless_reference, run_sweep
from entpipe.spin_register import execute, ghz_branches, plan_ghz
from oracle_register import all_cuts_ghz_class, canonical_ghz, dense_two_branch
from oracle_swap import (
    AmplitudeState,
    StepSizeError,
    grid_for_dot,
    integrate_dynamics,
    integrate_lab_frame,
    krylov_sweep_point,
    swap_probability,
    two_rail_generator,
)

CENTER = 50.0
T_END = 20.0
DT = 0.01

INV_SQRT2 = 1 / math.sqrt(2)


@pytest.fixture(scope="module")
def small_dot():
    return ThreeLevelDot(w1=CENTER, w2=0.0, gamma1=1.0, gamma2=1.0)


@pytest.fixture(scope="module")
def small_mode():
    return GaussianMode(d=1.0, center=CENTER)


@pytest.fixture(scope="module")
def small_grid():
    # odd point count puts the mode center exactly on a grid point
    return SpectralGrid(CENTER - 12.0, CENTER + 12.0, 257)


@pytest.fixture(scope="module")
def small_traj(small_dot, small_mode, small_grid):
    return integrate_dynamics(small_dot, small_mode, small_grid, T_END, DT, n_samples=41)


# ------------------------------------------------------------------ types


def test_dot_validation():
    with pytest.raises(ValueError):
        ThreeLevelDot(w1=1.0, w2=0.0, gamma1=-0.1, gamma2=1.0)
    with pytest.raises(ValueError):
        ThreeLevelDot(w1=1.0, w2=2.0, gamma1=1.0, gamma2=1.0)
    with pytest.raises(ValueError):
        ThreeLevelDot(w1=0.0, w2=0.0, gamma1=1.0, gamma2=1.0)


def test_grid_validation():
    with pytest.raises(GridError):
        SpectralGrid(1.0, 1.0, 128)
    with pytest.raises(GridError):
        SpectralGrid(0.0, 1.0, 63)


def test_grid_weights_sum_to_span():
    grid = SpectralGrid(-3.0, 9.0, 97)
    assert grid.weights.sum() == pytest.approx(grid.span, abs=1e-12)
    assert grid.points[0] == -3.0 and grid.points[-1] == 9.0


def test_mode_validation():
    with pytest.raises(ValueError):
        GaussianMode(d=0.0, center=1.0)


def test_default_grid_window(small_dot, small_mode):
    grid = grid_for_dot(small_dot, small_mode)
    assert grid.n_k == 1024
    # two units of decay rate dominate six units of bandwidth
    assert grid.k_min == pytest.approx(CENTER - 40.0)
    assert grid.k_max == pytest.approx(CENTER + 40.0)


# ------------------------------------------------------------- input mode


def test_gaussian_mode_peak_and_halving(small_grid):
    f1 = gaussian_mode(GaussianMode(d=1.0, center=CENTER), small_grid)
    peak1 = np.max(np.abs(f1))
    assert peak1 == pytest.approx((2 / math.pi) ** 0.25, abs=1e-12)
    f2 = gaussian_mode(GaussianMode(d=0.5, center=CENTER), small_grid)
    assert np.max(np.abs(f2)) / peak1 == pytest.approx(math.sqrt(2), rel=1e-12)


def test_gaussian_mode_discrete_norm(small_mode, small_grid):
    f = gaussian_mode(small_mode, small_grid)
    norm = np.sum(small_grid.weights * np.abs(f) ** 2)
    assert abs(norm - 1.0) < 1e-6


def test_gaussian_mode_narrow_grid_rejected():
    grid = SpectralGrid(CENTER - 4.0, CENTER + 4.0, 129)
    with pytest.raises(GridError):
        gaussian_mode(GaussianMode(d=1.0, center=CENTER), grid)


# ------------------------------------------------------------- validation


def test_coarse_step_rejected(small_dot, small_mode, small_grid):
    with pytest.raises(StepSizeError):
        integrate_dynamics(small_dot, small_mode, small_grid, 1.0, 1.0)


def test_recurrence_guard(small_dot, small_mode, small_grid):
    with pytest.raises(GridError):
        integrate_dynamics(small_dot, small_mode, small_grid, 100.0, DT)
    with pytest.raises(GridError):
        propagate_static(small_dot, small_mode, small_grid, np.array([T_END, 100.0]))


# ------------------------------------------------------------ integration


def test_norm_conserved(small_traj):
    assert np.max(np.abs(small_traj.norm_squared() - 1.0)) < 1e-6


def test_amplitude_state_view(small_traj, small_grid):
    s = small_traj.state_at(-1)
    assert isinstance(s, AmplitudeState)
    assert s.t == pytest.approx(T_END)
    assert s.norm_squared(small_grid) == pytest.approx(1.0, abs=1e-6)


def test_probability_starts_at_zero(small_traj):
    p = swap_probability(small_traj)
    assert p[0] == 0.0
    assert np.all(np.diff(p) > -1e-8)  # emission never runs backwards


def test_against_independent_rk4(small_dot, small_mode, small_grid, small_traj):
    """Fixed-step classic Runge-Kutta at 4x resolution, written from scratch."""
    k = small_grid.points
    wts = small_grid.weights
    b1 = math.sqrt(small_dot.gamma1 / (2 * math.pi))
    b2 = math.sqrt(small_dot.gamma2 / (2 * math.pi))
    delta = small_dot.w1 - k
    delta_p = small_dot.w1 - small_dot.w2 - k
    d = small_mode.d
    f = (2 / (math.pi * d**2)) ** 0.25 * np.exp(-((k - CENTER) ** 2) / d**2)

    def deriv(t, a1, a2, a3):
        p1 = np.exp(-1j * t * delta)
        p2 = np.exp(-1j * t * delta_p)
        return (
            -b1 * a3 * p1,
            -b2 * a3 * p2,
            np.sum(wts * (b1 * a1 * np.conj(p1) + b2 * a2 * np.conj(p2))),
        )

    y1 = f.astype(complex)
    y2 = np.zeros_like(y1)
    y3 = 0j
    n_steps = 4 * math.ceil(T_END / DT)
    h = T_END / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = deriv(t, y1, y2, y3)
        k2 = deriv(t + h / 2, y1 + h / 2 * k1[0], y2 + h / 2 * k1[1], y3 + h / 2 * k1[2])
        k3 = deriv(t + h / 2, y1 + h / 2 * k2[0], y2 + h / 2 * k2[1], y3 + h / 2 * k2[2])
        k4 = deriv(t + h, y1 + h * k3[0], y2 + h * k3[1], y3 + h * k3[2])
        y1 = y1 + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y2 = y2 + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        y3 = y3 + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t += h
    p_oracle = float(np.sum(wts * np.abs(y2) ** 2))
    p = swap_probability(small_traj)[-1]
    assert abs(p - p_oracle) < 1e-4


def test_both_rates_zero_gives_zero(small_mode, small_grid):
    dot = ThreeLevelDot(w1=CENTER, w2=0.0, gamma1=0.0, gamma2=0.0)
    traj = integrate_dynamics(dot, small_mode, small_grid, T_END, DT, n_samples=11)
    assert np.all(swap_probability(traj) == 0.0)
    # the photon amplitude never changes either
    assert np.max(np.abs(traj.g1[-1] - traj.g1[0])) < 1e-12


def test_no_second_channel_gives_zero(small_mode, small_grid):
    dot = ThreeLevelDot(w1=CENTER, w2=0.0, gamma1=1.0, gamma2=0.0)
    traj = integrate_dynamics(dot, small_mode, small_grid, T_END, DT, n_samples=11)
    assert np.all(swap_probability(traj) == 0.0)
    assert np.all(traj.g2 == 0.0)


# ------------------------------------------------------------- invariances


def test_frame_invariance(small_dot, small_mode, small_grid, small_traj):
    lab = integrate_lab_frame(small_dot, small_mode, small_grid, T_END, DT, n_samples=41)
    p_rot = swap_probability(small_traj)
    p_lab = swap_probability(lab)
    assert np.max(np.abs(p_rot - p_lab)) < 1e-5
    # moduli agree amplitude by amplitude, not just in aggregate
    assert np.max(np.abs(np.abs(lab.g1[-1]) - np.abs(small_traj.g1[-1]))) < 1e-7


def test_krylov_route_matches(small_dot, small_mode, small_grid, small_traj):
    amps = propagate_static(small_dot, small_mode, small_grid, small_traj.times)
    n = small_grid.n_k
    w = small_grid.weights
    p_kry = np.sum(w * np.abs(amps[:, n : 2 * n]) ** 2, axis=1)
    assert np.max(np.abs(p_kry - swap_probability(small_traj))) < 1e-6


def test_rescaling_invariance(small_dot, small_mode, small_grid):
    """Scaling rates and bandwidth by s and time by 1/s changes nothing."""

    def p_at(dot, mode, grid, t):
        amps = propagate_static(dot, mode, grid, np.array([t]))
        n = grid.n_k
        return float(np.sum(grid.weights * np.abs(amps[0, n : 2 * n]) ** 2))

    p_ref = p_at(small_dot, small_mode, small_grid, T_END)
    s = 3.0
    dot_s = ThreeLevelDot(w1=s * CENTER, w2=0.0, gamma1=s, gamma2=s)
    mode_s = GaussianMode(d=s, center=s * CENTER)
    grid_s = SpectralGrid(s * (CENTER - 12.0), s * (CENTER + 12.0), 257)
    p_s = p_at(dot_s, mode_s, grid_s, T_END / s)
    assert abs(p_ref - p_s) < 1e-6


def test_grid_doubling(small_dot, small_mode, small_grid):
    fine = SpectralGrid(small_grid.k_min, small_grid.k_max, 2 * small_grid.n_k - 1)
    t = np.array([T_END])
    p = []
    for g in (small_grid, fine):
        amps = propagate_static(small_dot, small_mode, g, t)
        p.append(float(np.sum(g.weights * np.abs(amps[0, g.n_k : 2 * g.n_k]) ** 2)))
    assert abs(p[0] - p[1]) < 1e-4


def test_rail_split_independence(small_mode):
    """Shifting the second rail off the first is an edge effect that decays
    as the window widens, so P does not depend on w2 in the continuum.  The
    split rails propagate the oracle's two-rail generator."""

    def p_split(dot, grid):
        n = grid.n_k
        y0 = np.concatenate([gaussian_mode(small_mode, grid), np.zeros(n + 1, complex)])
        amps = expm_multiply(two_rail_generator(dot, grid) * T_END, y0)
        return float(np.sum(grid.weights * np.abs(amps[n : 2 * n]) ** 2))

    diffs = []
    for half, n_k in ((40.0, 2048), (80.0, 4096)):
        ga = SpectralGrid(CENTER - half, CENTER + half, n_k)
        gb = SpectralGrid(CENTER - half - 12.0, CENTER + half, n_k + n_k * 12 // int(2 * half))
        amps = propagate_static(ThreeLevelDot(CENTER, 0.0, 1.0, 1.0), small_mode, ga,
                                np.array([T_END]))
        pa = float(conversion_probability(ga, amps)[0])
        pb = p_split(ThreeLevelDot(CENTER, 12.0, 1.0, 1.0), gb)
        diffs.append(abs(pa - pb))
    assert diffs[0] < 5e-4
    assert diffs[1] < diffs[0] / 2


def test_split_rails_have_no_bright_rail_generator(small_mode):
    grid = SpectralGrid(CENTER - 12.0, CENTER + 12.0, 257)
    dot = ThreeLevelDot(CENTER, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        static_generator(dot, grid)
    with pytest.raises(ValueError):
        propagate_static(dot, small_mode, grid, np.array([1.0]))


def test_merged_rail_generator_dimension(small_dot, small_grid):
    g = static_generator(small_dot, small_grid)
    n = small_grid.n_k
    assert g.shape == (n + 1, n + 1)
    assert g.dtype == np.float64
    # the grid's centre point sits on resonance, so its diagonal is not stored
    assert g.nnz == 3 * n - 1
    assert g[n, 0] == pytest.approx(-math.sqrt(2 / (2 * math.pi) * small_grid.weights[0]))
    # symmetric bit for bit: both couplings are the same floats
    assert (g != g.T).nnz == 0


MERGE_GRID = SpectralGrid(CENTER - 18.0, CENTER + 18.0, 385)
MERGE_TIMES = np.array([0.0, 1.5, 6.0])


@settings(max_examples=25, deadline=None)
@given(
    d=st.floats(0.2, 3.0),
    gamma1=st.floats(0.0, 3.0),
    gamma2=st.floats(0.0, 3.0),
)
@example(d=1.0, gamma1=1.0, gamma2=0.0)
@example(d=1.0, gamma1=0.0, gamma2=0.0)
@example(d=1.0, gamma1=1.0, gamma2=0.3)
@example(d=1.0, gamma1=1.2636481021462683e-306, gamma2=0.0)  # subnormal generator powers
def test_merged_rails_match_two_rail_propagation(d, gamma1, gamma2):
    """At w2 = 0 the bright-rail route rebuilds both rails to within 1e-12 of
    Krylov propagation of the full two-rail generator, starts exactly at the
    bare photon, and does not depend on numpy's global RNG (which scipy's
    norm estimator draws from)."""
    dot = ThreeLevelDot(CENTER, 0.0, gamma1, gamma2)
    mode = GaussianMode(d=d, center=CENTER)
    np.random.seed(0)
    amps = propagate_static(dot, mode, MERGE_GRID, MERGE_TIMES)
    np.random.seed(1)
    again = propagate_static(dot, mode, MERGE_GRID, MERGE_TIMES)
    assert amps.tobytes() == again.tobytes()

    n = MERGE_GRID.n_k
    y0 = np.concatenate([gaussian_mode(mode, MERGE_GRID), np.zeros(n + 1, dtype=np.complex128)])
    assert np.array_equal(amps[0], y0)
    assert conversion_probability(MERGE_GRID, amps[:1])[0] == 0.0
    m = two_rail_generator(dot, MERGE_GRID)
    for row, t in zip(amps, MERGE_TIMES):
        assert np.max(np.abs(row - expm_multiply(m * t, y0))) <= 1e-12


# ------------------------------------------------------ Chebyshev propagator


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(64, 160),
    lo=st.floats(-50.0, 0.0),
    width=st.floats(1.0, 80.0),
    b=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    log_r=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, lo=-10.0, width=20.0, b=0.0, log_r=0.0, seed=1)
@example(n=160, lo=-3.0, width=60.0, b=2.0, log_r=3.0, seed=2)  # off-centre, r = 1e3
@example(n=100, lo=-1.0, width=2.0, b=5.0, log_r=-3.0, seed=3)
def test_chebyshev_propagator_matches_oracles(n, lo, width, b, log_r, seed):
    """exp(i g t) v on random real symmetric arrowheads
    [[diag(delta), -c], [-c^T, 0]] with real starts (grids off the resonance
    too, closed couplings, the largest r = radius * t from 1e-3 to 1e3, the
    radius from Weyl's bound and from the secular one), several times per
    call (t = 0, a repeated time, unsorted), agrees with the
    eigendecomposition of g and with scipy's Taylor method to 1e-12, and
    keeps the norm to 1e-13.  Above r = 100 the Taylor method itself strays
    from the eigendecomposition by up to 3e-12 (on 1000 random cases, against
    1.5e-13 for the expansion), so there only the eigendecomposition is the
    oracle."""
    rng = np.random.default_rng(seed)
    delta = np.linspace(lo, lo + width, n)
    coupling = -b * np.sqrt(rng.uniform(0.1, 1.0, n))
    g = _arrowhead(delta, coupling, coupling)
    assert g.dtype == np.float64 and (g != g.T).nnz == 0
    delta_max = float(np.max(np.abs(delta)))
    norm = float(np.linalg.norm(coupling))
    weyl, secular = delta_max + norm, _secular_radius(delta_max, norm)
    v = rng.normal(size=n + 1)
    v /= np.linalg.norm(v)
    lam, vecs = np.linalg.eigh(g.toarray())
    for radius in (weyl, secular):
        top = 10.0**log_r / radius
        times = np.array([top / 3, 0.0, top, top / 3, top / 10])
        got = photon_swap.expm_multiply(g, v, radius, times)
        assert got.shape == (times.size, n + 1)
        for row, t in zip(got, times):
            exact = vecs @ (np.exp(1j * lam * t) * (vecs.T @ v))
            assert np.max(np.abs(row - exact)) <= 1e-12
            if radius * t <= 100.0:
                assert np.max(np.abs(row - expm_multiply(1j * t * g, v))) <= 1e-12
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-13


@pytest.mark.parametrize("r", [0.0, 1e-3, 0.5, 1.0, 7.0, 10.0, 167.45, 1e3])
def test_chebyshev_coefficients_are_bessel_values(r):
    """The FFT gives i^k J_k(r) to 1e-13, and the Bessel tail the degree
    leaves out, 2 sum_{k>K} |J_k(r)|, is below 2^-53."""
    c = _chebyshev_coefficients(r)
    k = np.arange(c.size)
    assert np.max(np.abs(c - 1j**k * special.jv(k, r))) <= 1e-13
    tail = special.jv(np.arange(c.size, c.size + 400), r)
    assert 2 * np.sum(np.abs(tail)) < 2.0**-53
    # the degree grows as r + O(r^(1/3)), far below the 1-norm's Taylor count
    assert c.size - 1 <= r + 12 * r ** (1 / 3) + 12


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 120),
    lo=st.floats(-60.0, 60.0),
    width=st.floats(0.0, 80.0),
    b=st.one_of(st.just(0.0), st.floats(1e-3, 30.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, lo=3.0, width=0.0, b=2.0, seed=1)  # one point: the bound is attained
@example(n=64, lo=-10.0, width=20.0, b=0.0, seed=2)  # closed channel: both bounds are m
@example(n=80, lo=5.0, width=40.0, b=4.0, seed=3)  # grid off the resonance
@example(n=100, lo=0.0, width=0.0, b=7.0, seed=4)  # on resonance: both bounds are ||c||
@example(n=1, lo=8.670127079471805e-178, width=0.0, b=0.0, seed=0)  # m^2 would underflow
def test_secular_radius_bounds_the_arrowhead_spectrum(n, lo, width, b, seed):
    """The secular bound lies between the arrowhead's spectral radius (to
    eigvalsh's rounding, 1e-12 relative) and Weyl's bound m + ||c||."""
    rng = np.random.default_rng(seed)
    delta = np.linspace(lo, lo + width, n)
    coupling = b * np.sqrt(rng.uniform(0.1, 1.0, n))
    a = _arrowhead(1j * delta, -coupling, coupling)
    top = float(np.max(np.abs(np.linalg.eigvalsh(-1j * a.toarray()))))
    delta_max = float(np.max(np.abs(delta)))
    secular = _secular_radius(delta_max, float(np.linalg.norm(coupling)))
    assert top <= secular * (1 + 1e-12)
    assert secular <= delta_max + float(np.linalg.norm(coupling))
    if n == 1:
        assert secular == pytest.approx(top, rel=1e-12)


def test_reference_radius_and_degree():
    """At the sweep's reference point the secular bound reads 24.62 against a
    true radius of 24.0003 and Weyl's 27.91, and the degree falls 233 -> 210."""
    dot, mode, grid, t = _dimensionless_reference()
    delta = dot.w1 - grid.points
    b = math.hypot(math.sqrt(dot.gamma1 / (2 * math.pi)), math.sqrt(dot.gamma2 / (2 * math.pi)))
    delta_max = float(np.max(np.abs(delta)))
    secular = _secular_radius(delta_max, b * math.sqrt(grid.span))
    weyl = delta_max + b * math.sqrt(grid.span)
    top = float(np.max(np.abs(np.linalg.eigvalsh(static_generator(dot, grid).toarray()))))
    assert top == pytest.approx(24.0003, abs=1e-4) and top <= secular
    assert secular == pytest.approx(24.6206, abs=1e-4)
    assert weyl == pytest.approx(27.9088, abs=1e-4)
    assert _chebyshev_coefficients(secular * t).size - 1 == 210
    assert _chebyshev_coefficients(weyl * t).size - 1 == 233


def test_multi_time_rows_match_one_time_calls(small_dot, small_mode, small_grid):
    """One pass for many times (unsorted, repeated, t = 0) gives each row to
    within 1e-14 of a call for that time alone."""
    times = np.array([6.0, 0.0, 1.5, 6.0, 0.25, T_END])
    amps = propagate_static(small_dot, small_mode, small_grid, times)
    for row, t in zip(amps, times):
        alone = propagate_static(small_dot, small_mode, small_grid, np.array([t]))[0]
        assert np.max(np.abs(row - alone)) <= 1e-14


@pytest.mark.parametrize("times", [[1.0, np.nan], [-1.0, 2.0], [2.0, np.inf], []],
                         ids=["nan", "negative", "inf", "empty"])
def test_propagate_static_refuses_bad_times(small_dot, small_mode, small_grid, times):
    """A negative or non-finite time is a ValueError that says so; no times
    give no rows."""
    if not times:
        amps = propagate_static(small_dot, small_mode, small_grid, np.array(times))
        assert amps.shape == (0, 2 * small_grid.n_k + 1)
        return
    with pytest.raises(ValueError, match="finite and nonnegative"):
        propagate_static(small_dot, small_mode, small_grid, np.array(times))


def test_reference_propagation_leaves_global_rng_alone(small_dot, small_mode, small_grid):
    np.random.seed(12345)
    before = np.random.get_state()
    propagate_static(small_dot, small_mode, small_grid, np.array([0.0, 1.5, 6.0]))
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


# ------------------------------------------------------- printed closed form


def test_closed_form_zero_without_both_channels():
    assert closed_form_report(1.0, 0.0, 1.0, 6.0, 0.0)["p_closed"] == 0.0


def _scipy_closed_form(gamma1, gamma2, d, t, restored=False):
    """The printed formula through scipy.integrate's trapezoid rules: verbatim
    on 2000 intervals, or on 2e5 with its outer decay factor e^{-Gamma t''}
    restored, as |a(s)|^2 = e^{-Gamma s} |int_0^s psi e^{Gamma t'/2} dt'|^2."""
    g = gamma1 + gamma2
    tpp = np.linspace(0.0, t, 200_001 if restored else 2001)
    inner = integrate.cumulative_trapezoid(
        np.exp(-d**2 * tpp**2 / 4 + g * tpp / 2), tpp, initial=0.0
    )
    decay = np.exp(-g * tpp) if restored else 1.0
    return float(integrate.trapezoid(
        gamma1 * gamma2 * d / math.sqrt(2 * math.pi) * decay * np.abs(inner) ** 2, tpp
    ))


def _default_swap_point():
    """The swap stage's last series point at the default config: (gamma1, gamma2, d, t)."""
    sw = default_config().swap
    return sw.gamma1, sw.gamma2, sw.d, horizon(sw.d, sw.gamma1 + sw.gamma2)


def _sweep_reference_point():
    dot, mode, _, t = _dimensionless_reference()
    return dot.gamma1, dot.gamma2, mode.d, t


@pytest.mark.parametrize(
    "point", [_default_swap_point, _sweep_reference_point], ids=["default_swap", "sweep_reference"]
)
def test_closed_form_report_meets_restored_trapezoid(point):
    """The reported closed form is the printed one with the decay factor
    restored; taken verbatim, the printed formula leaves [0, 1]."""
    args = point()
    p_closed = closed_form_report(*args, p_ode=0.0)["p_closed"]
    assert 0.0 <= p_closed <= 1.0
    assert abs(p_closed - _scipy_closed_form(*args, restored=True)) <= 1e-10
    assert _scipy_closed_form(*args) > 1.0


def test_closed_form_report():
    dot, mode, grid, t = _dimensionless_reference()
    p_ode = float(conversion_probability(grid, propagate_static(dot, mode, grid, np.array([t])))[0])
    (p_continuum,), _ = continuum_probability(mode.d, dot.gamma1, dot.gamma2, [t])
    rep = closed_form_report(dot.gamma1, dot.gamma2, mode.d, t, p_ode)
    assert set(rep) == {"params", "p_ode", "p_closed", "abs_diff"}
    assert rep["params"] == {"gamma1": 1.0, "gamma2": 1.0, "d": 1.0, "t": 6.0}
    assert rep["p_ode"] == p_ode and rep["p_closed"] == p_continuum
    # what is left is the grid reference's window bias, O(Gamma / window)
    assert rep["abs_diff"] == abs(p_ode - p_continuum)
    assert 1e-3 < rep["abs_diff"] < 1e-2


def test_sweep_report_reference_matches_integrator_oracle():
    """The sweep report's Krylov probability at its fixed reference point
    agrees with the adaptive integrator that the report used to run."""
    cfg = default_config()
    box = {"d_min": 1.0, "d_max": 3.0, "gamma_min": 1.0, "gamma_max": 3.0, "points_per_axis": 2}
    cfg = replace(cfg, sweep=replace(cfg.sweep, **box))
    p_ode = run_sweep(cfg).report.discrepancy["p_ode"]
    dot, mode, grid, t = _dimensionless_reference()
    dt = 0.9 / (20 * grid.span / (2 * math.pi))
    p_oracle = float(swap_probability(integrate_dynamics(dot, mode, grid, t, dt))[-1])
    assert abs(p_ode - p_oracle) <= 1e-9


# ------------------------------------------------------------------- sweep


def test_sweep_point_converges():
    # the exact limit has no run end and no node count
    row = sweep_point(1.0, 1.0)
    assert set(row) == {"d", "gamma", "p_longtime", "converged"}
    assert row["converged"] == 1
    assert 0.0 <= row["p_longtime"] <= 1.0


def test_sweep_point_deterministic():
    assert sweep_point(0.7, 1.3) == sweep_point(0.7, 1.3)


def test_sweep_point_matches_dynamic_route(small_dot, small_mode):
    """The sweep value agrees with the adaptive integrator to within the
    integrator's window-truncation scale."""
    row = sweep_point(1.0, 1.0)
    grid = grid_for_dot(small_dot, small_mode)
    dt = 0.9 / (20 * grid.span / (2 * math.pi))
    traj = integrate_dynamics(small_dot, small_mode, grid, horizon(1.0, 2.0), dt, n_samples=5)
    assert abs(swap_probability(traj)[-1] - row["p_longtime"]) < 5e-3


def test_sweep_point_validation():
    with pytest.raises(ValueError):
        sweep_point(0.0, 1.0)
    with pytest.raises(ValueError):
        sweep_point(1.0, -2.0)
    with pytest.raises(ValueError):
        sweep_point(np.array([1.0, 0.0]), 1.0)


# Box edges as powers of ten: any d and gamma in [1e-152, 1e152] keep the
# rate ratios 2 gamma / d and d / (2 gamma) inside the config's 1e305.
LOG_EDGE = st.floats(-152.0, 152.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(d_edges=st.tuples(LOG_EDGE, LOG_EDGE), g_edges=st.tuples(LOG_EDGE, LOG_EDGE),
       points=st.integers(2, 12))
@example(d_edges=(-152.0, 152.0), g_edges=(152.0, -152.0), points=5)  # both ratios near 1e304
@example(d_edges=(-1.0, 1.0), g_edges=(-1.0, 1.0), points=20)  # the default box
def test_sweep_box_equals_scalar_points_bit_for_bit(d_edges, g_edges, points):
    """One broadcast ``sweep_point`` over a box gives every scalar
    ``longtime_probability`` bit for bit, and ``run_sweep`` writes the rows
    of the per-point loop it replaced: d outer, gamma inner."""
    d_vals = np.geomspace(*(10.0**e for e in d_edges), points)
    g_vals = np.geomspace(*(10.0**e for e in g_edges), points)
    d_box, g_box = np.meshgrid(d_vals, g_vals, indexing="ij")
    box = sweep_point(d_box, g_box)
    assert box["p_longtime"].shape == (points, points)
    for i, d in enumerate(d_vals.tolist()):
        for j, g in enumerate(g_vals.tolist()):
            assert box["p_longtime"][i, j] == longtime_probability(d, g, g)
    lo, hi = sorted(10.0**e for e in d_edges), sorted(10.0**e for e in g_edges)
    if lo[0] < lo[1] and hi[0] < hi[1]:
        cfg = default_config()
        cfg = replace(cfg, sweep=replace(cfg.sweep, d_min=lo[0], d_max=lo[1], gamma_min=hi[0],
                                         gamma_max=hi[1], points_per_axis=points))
        rows = run_sweep(cfg).tables[0][2]
        d_vals = np.geomspace(lo[0], lo[1], points)
        g_vals = np.geomspace(hi[0], hi[1], points)
        assert rows == [sweep_point(d, g) for d in d_vals.tolist() for g in g_vals.tolist()]


def test_longtime_array_with_uncoupled_entries_is_zero_without_warning():
    d = np.array([1.0, 2.0, 0.5, 3.0, 5e7])
    g1 = np.array([0.0, 1.0, 0.0, 2.0, 5e7])
    g2 = np.array([0.0, 2.0, 3.0, 0.0, 1e-320])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = longtime_probability(d, g1, g2)
    assert p.tolist() == [longtime_probability(*x) for x in zip(d, g1, g2)]
    assert p[[0, 2, 3, 4]].tolist() == [0.0] * 4 and p[1] > 0
    assert not np.signbit(p).any()
    assert isinstance(longtime_probability(1.0, 1.0, 1.0), float)


def test_one_sweep_is_one_erfcx_call_and_no_pool(monkeypatch):
    """A whole box is one ``sweep_point`` call and one ``erfcx`` pass, and
    the sweep starts no process pool even at two workers.  The report's
    closed form at its reference point is one more ``erfcx`` pass."""
    calls = {"erfcx": 0, "sweep_point": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def no_pool(*args, **kwargs):
        raise AssertionError("the sweep started a process pool")

    monkeypatch.setattr(photon_swap, "erfcx", counted("erfcx", photon_swap.erfcx))
    monkeypatch.setattr(runner, "sweep_point", counted("sweep_point", runner.sweep_point))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cfg = default_config()
    cfg = replace(cfg, run=replace(cfg.run, workers=2))
    result = run_sweep(cfg)
    assert result.report.stats["points"] == cfg.sweep.points_per_axis**2 == 400
    assert calls == {"erfcx": 2, "sweep_point": 1}


def test_sweep_surface_ordering():
    cfg = default_config()
    box = {"d_min": 0.5, "d_max": 1.0, "gamma_min": 0.5, "gamma_max": 1.0, "points_per_axis": 2}
    [(name, _, rows)] = run_sweep(replace(cfg, sweep=replace(cfg.sweep, **box))).tables
    assert name == "sweep_surface"
    assert [(r["d"], r["gamma"]) for r in rows] == [
        (0.5, 0.5),
        (0.5, 1.0),
        (1.0, 0.5),
        (1.0, 1.0),
    ]
    assert all(r["converged"] == 1 for r in rows)


def test_plateau_gap_stays_below_tolerance_at_every_rate_ratio():
    # in u = d t the gap between P(0.9 t_end) and P(t_end) depends on
    # r = Gamma / d alone, so the swap series' horizon settles every
    # float64 box (the largest gap is 1.25e-5), and its end lies below the
    # exact limit by less than 1e-5 (8.0e-6 at worst, near r = 0.2)
    ratios = np.concatenate((np.geomspace(1e-300, 1e300, 601), np.geomspace(1e-2, 1e2, 201)))
    gaps, shortfalls = [], []
    for r in ratios:
        t = horizon(1.0, r)
        (p_late, p_end), _ = continuum_probability(1.0, r / 2, r / 2, [0.9 * t, t])
        gaps.append(abs(p_end - p_late))
        shortfalls.append(longtime_probability(1.0, r / 2, r / 2) - p_end)
    assert max(gaps) < 2e-5
    assert 0.0 <= min(shortfalls) and max(shortfalls) <= 1e-5


# ---------------------------------------------------- continuum closed form

# corners and geometric centre of the benchmark's (d, gamma) box
BOX_POINTS = [(0.2, 0.1), (0.2, 5.0), (10.0, 0.1), (10.0, 5.0), (math.sqrt(2), math.sqrt(0.5))]


def _direct_probability(d, g1, g2, t_end):
    """gamma2 int |a|^2 with a(s) by nested adaptive quadrature of its definition."""
    g_tot = g1 + g2

    def inner(s):
        return integrate.quad(
            lambda t: math.exp(-d * d * t * t / 4 - g_tot * (s - t) / 2),
            0, s, epsabs=0, epsrel=1e-13, limit=200,
        )[0]

    breaks = sorted(b for b in (1 / g_tot, 1 / d, 4 / d, 4 / g_tot, 16 / g_tot, 16 / d) if b < t_end)
    outer = integrate.quad(
        lambda s: inner(s) ** 2, 0, t_end, points=breaks, epsabs=0, epsrel=1e-13, limit=400
    )[0]
    return g1 * g2 * d / math.sqrt(2 * math.pi) * outer


@pytest.mark.parametrize("d, g1, g2", [(1.0, 1.0, 1.0), (0.2, 5.0, 5.0), (10.0, 0.1, 0.3)])
def test_continuum_matches_direct_double_integral(d, g1, g2):
    t_end = 6 / d + 8 / (g1 + g2)
    (p,), _ = continuum_probability(d, g1, g2, [t_end])
    assert abs(p - _direct_probability(d, g1, g2, t_end)) <= 1e-12


def test_continuum_reference_point():
    """The continuum value at the sweep report's reference point d = gamma = 1, t = 6."""
    (p,), _ = continuum_probability(1.0, 1.0, 1.0, [6.0])
    assert p == pytest.approx(0.30670, abs=5e-6)


@pytest.mark.parametrize("d, gamma", BOX_POINTS, ids=["d0.2-g0.1", "d0.2-g5", "d10-g0.1",
                                                      "d10-g5", "centre"])
def test_krylov_converges_to_continuum_as_window_doubles(d, gamma):
    """Krylov's gap to the closed form is its O(Gamma / window) bias."""
    gaps = []
    for window in (1.0, 2.0):
        row = krylov_sweep_point(d, gamma, window)
        assert row["converged"] == 1
        (p,), _ = continuum_probability(d, gamma, gamma, [row["t_end"]])
        gaps.append(row["p_longtime"] - p)
    assert abs(gaps[0]) <= 5e-3
    assert 0.4 <= gaps[1] / gaps[0] <= 0.6


def test_sweep_point_is_the_longtime_limit():
    row = sweep_point(0.7, 1.3)
    assert row["p_longtime"] == longtime_probability(0.7, 1.3, 1.3)
    (p,), _ = continuum_probability(0.7, 1.3, 1.3, [horizon(0.7, 2.6)])
    assert 0.0 <= row["p_longtime"] - p <= 1e-5


# d / Gamma over 1e-6 .. 1e6, d over 1e-3 .. 1e3
LOG_D = st.floats(-3.0, 3.0)
LOG_RATIO = st.floats(-6.0, 6.0)


def _rates(log_d, log_ratio, split=0.5):
    d = 10.0**log_d
    g_tot = d / 10.0**log_ratio
    g1 = split * g_tot
    return d, g1, g_tot - g1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    log_d=LOG_D,
    log_ratio=LOG_RATIO,
    split=st.floats(0.01, 0.99),
    fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8),
)
def test_continuum_bounded_and_nondecreasing(log_d, log_ratio, split, fractions):
    d, g1, g2 = _rates(log_d, log_ratio, split)
    times = np.sort(fractions) * (6 / d + 8 / (g1 + g2))
    p, _ = continuum_probability(d, g1, g2, times)
    assert np.all(p >= 0.0)
    assert np.all(p <= 4 * g1 * g2 / (g1 + g2) ** 2)
    assert np.all(np.diff(p) >= 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(log_d=LOG_D, log_ratio=LOG_RATIO, log_scale=st.floats(-6.0, 6.0),
       fraction=st.floats(0.05, 3.0))
def test_continuum_is_scale_invariant(log_d, log_ratio, log_scale, fraction):
    """P(s d, s gamma, t / s) = P(d, gamma, t): only d t and Gamma / d matter."""
    d, g1, g2 = _rates(log_d, log_ratio)
    s = 10.0**log_scale
    t = fraction * (6 / d + 8 / (g1 + g2))
    (p,), _ = continuum_probability(d, g1, g2, [t])
    (q,), _ = continuum_probability(s * d, s * g1, s * g2, [t / s])
    assert abs(p - q) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(log_d=LOG_D, log_ratio=LOG_RATIO, fraction=st.floats(0.05, 3.0))
def test_continuum_node_rule_matches_doubled_nodes(log_d, log_ratio, fraction):
    d, g1, g2 = _rates(log_d, log_ratio)
    r = (g1 + g2) / d
    t = fraction * (6 / d + 8 / (g1 + g2))
    edges = _time_panels(r, d * np.array([0.9 * t, t]))
    halved = np.sort(np.concatenate([edges, (edges[1:] + edges[:-1]) / 2]))
    coarse = _cumulative_panels(edges, r)
    fine = _cumulative_panels(halved, r)[::2]
    scale = math.sqrt(math.pi / 2) / 4  # P per unit of the integral at gamma1 = gamma2
    assert scale * np.max(np.abs(coarse - fine)) <= 1e-9


@pytest.mark.parametrize("times", [[-3.0, 1.0, 6.0], [1.0, math.nan], [math.inf], [-0.5]])
def test_continuum_refuses_negative_or_nonfinite_times(times):
    # the quadrature starts at t = 0; a negative time used to stretch the
    # cumulative sum back to it (P = 44.36 at t = 1 for [-3, 1, 6])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        continuum_probability(1.0, 1.0, 1.0, times)


# ------------------------------------------------------- long-time limit


def _scipy_longtime(d, g1, g2):
    """The closed form with ``scipy.special.erfcx`` in place of Weideman's."""
    g_tot = g1 + g2
    r = g_tot / d
    bracket = 2 * special.erfcx(r / math.sqrt(2)) - special.erfcx(r / 2) ** 2
    return (g1 / g_tot) * (g2 / g_tot) * r * math.sqrt(math.pi / 2) * bracket


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(log_d=LOG_D, log_ratio=LOG_RATIO, split=st.floats(0.01, 0.99))
def test_longtime_meets_the_quadrature_far_past_the_horizon(log_d, log_ratio, split):
    d, g1, g2 = _rates(log_d, log_ratio, split)
    (p,), _ = continuum_probability(d, g1, g2, [50 * horizon(d, g1 + g2)])
    assert abs(longtime_probability(d, g1, g2) - p) <= 1e-13 * p


@settings(max_examples=200, deadline=None)
@given(log_d=LOG_D, log_ratio=st.floats(-8.0, 8.0), split=st.floats(0.01, 0.99))
def test_longtime_meets_scipy_erfcx(log_d, log_ratio, split):
    d, g1, g2 = _rates(log_d, log_ratio, split)
    assert abs(longtime_probability(d, g1, g2) - _scipy_longtime(d, g1, g2)) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(log_d=LOG_D, log_ratio=LOG_RATIO, split=st.floats(0.01, 0.99))
def test_longtime_is_channel_symmetric_and_capped(log_d, log_ratio, split):
    d, g1, g2 = _rates(log_d, log_ratio, split)
    p = longtime_probability(d, g1, g2)
    assert p == longtime_probability(d, g2, g1)
    assert 0.0 <= p <= 2 * g1 * g2 / (g1 + g2) ** 2 <= 0.5


@settings(max_examples=60, deadline=None)
@given(log_d=LOG_D, log_ratio=LOG_RATIO, log_scale=st.floats(-6.0, 6.0))
def test_longtime_is_scale_invariant(log_d, log_ratio, log_scale):
    d, g1, g2 = _rates(log_d, log_ratio)
    s = 10.0**log_scale
    assert abs(longtime_probability(d, g1, g2) - longtime_probability(s * d, s * g1, s * g2)) <= 1e-15


@pytest.mark.parametrize("g1, g2", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (5e7, 1e-320)])
def test_longtime_is_zero_without_a_channel(g1, g2):
    # gamma2 / Gamma underflows to 0 at 1e-320, so the pipeline still
    # refuses a simulated success of 0
    assert longtime_probability(5e7, g1, g2) == 0.0


@pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                  (1.0, 1.0, -1.0)])
def test_longtime_validation(args):
    with pytest.raises(ValueError):
        longtime_probability(*args)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 1e300))
@example(x=0.0)
@example(x=5e-324)
@example(x=1.7e308)
def test_erfcx_within_4_ulp_of_scipy(x):
    # an ulp here is eps |scipy's value|, never below the subnormal spacing
    ref = special.erfcx(x)
    assert abs(erfcx(x) - ref) <= 4 * max(np.finfo(float).eps * ref, np.spacing(ref))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_erfcx_of_inf_is_zero_and_of_nan_is_nan():
    assert erfcx(math.inf) == 0.0
    out = erfcx(np.array([math.inf, math.nan, 0.5]))
    assert out[0] == 0.0 and math.isnan(out[1])
    assert out[2] == pytest.approx(special.erfcx(0.5), rel=4 * np.finfo(float).eps, abs=0)


def test_erfcx_coefficients_follow_weidemans_fft_recipe():
    """The table is Weideman's (1994) recipe: P's coefficients are the real
    part of the DFT of f(t) = e^{-t^2} (L^2 + t^2) at t = L tan(theta/2),
    theta = k pi / M, |k| < M = 2N, with f = 0 at theta = pi."""
    n = _ERFCX_COEFFS.size
    m = 2 * n
    k = np.arange(-m + 1, m)
    t = _ERFCX_L * np.tan(k * np.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t**2) * (_ERFCX_L**2 + t**2)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert _ERFCX_L == math.sqrt(n / math.sqrt(2))
    assert np.max(np.abs(a[1 : n + 1] - _ERFCX_COEFFS)) <= 4 * np.finfo(float).eps


def test_gauss_legendre_table_is_numpys_rule():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(_GL_NODES, nodes) and np.array_equal(_GL_WEIGHTS, weights)
    assert not _GL_NODES.flags.writeable and not _GL_WEIGHTS.flags.writeable


# ------------------------------------------------------------ register swap
# A dense register reaches the swap as the pipeline hands it over: through
# ``ghz_branches``, which makes the GHZ-class checks and reads the two
# branches, so the rejection and read-out cases below exercise it.


def swap_register(state, p_success):
    return register_swap(ghz_branches(state), p_success)


def test_register_swap_single_plus():
    plus = StateVector(np.array([INV_SQRT2, INV_SQRT2]), qubits(1))
    photons, herald = swap_register(plus, 0.95)
    dense = dense_two_branch(photons)
    assert dense.layout.dims == (2, 2)
    assert dense.amplitudes[0b10] == pytest.approx(INV_SQRT2)
    assert dense.amplitudes[0b01] == pytest.approx(INV_SQRT2)
    assert herald == 0.95


def test_register_swap_ghz3_herald():
    photons, herald = swap_register(canonical_ghz(3), 0.95)
    assert herald == pytest.approx(0.95**3, abs=1e-15)
    dense = dense_two_branch(photons)
    nz = np.nonzero(dense.amplitudes)[0]
    assert sorted(nz) == [0b010101, 0b101010]
    for idx in nz:
        assert dense.amplitudes[idx] == pytest.approx(INV_SQRT2)


def test_register_swap_photonic_schmidt():
    photons, _ = swap_register(canonical_ghz(3), 1.0)
    for cut in ([0, 1], [0, 1, 2, 3], [2, 3]):
        spec = np.sort(schmidt_spectrum(dense_two_branch(photons), cut))[::-1]
        assert spec[0] == pytest.approx(INV_SQRT2, abs=1e-10)
        assert spec[1] == pytest.approx(INV_SQRT2, abs=1e-10)
        assert np.all(spec[2:] < 1e-10)


def test_register_swap_per_dot_successes():
    _, herald = swap_register(canonical_ghz(2), [0.9, 0.5])
    assert herald == pytest.approx(0.45, abs=1e-15)


def test_register_swap_rejects_non_ghz():
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1 / math.sqrt(3)
    with pytest.raises(NotGhzClassError):
        swap_register(StateVector(w, qubits(3)), 0.9)
    # GHZ class (a local unitary keeps every Schmidt spectrum), but four
    # branches rather than two complementary ones.
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    rotated = apply_local(canonical_ghz(3), hadamard, (1,))
    assert all_cuts_ghz_class(rotated)
    with pytest.raises(NotGhzClassError):
        swap_register(rotated, 0.9)


@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_register_swap_reads_an_executed_schedule(n):
    """An executed plan carries rounding residue on every entry; it is dropped."""
    register = execute(plan_ghz(n, 1e8, 1e8)[0])
    amps = register.amplitudes
    assert np.count_nonzero(amps) == 2**n
    photons, herald = swap_register(register, 0.95)
    assert photons.pattern == int("10" * n, 2)
    assert (photons.a, photons.b) == (amps[0], amps[-1])
    assert herald == pytest.approx(0.95**n, abs=1e-15)


@pytest.mark.parametrize("eps, accepted", [(1e-12, True), (1e-9, True), (1e-7, False)])
def test_register_swap_third_branch_tolerance(eps, accepted):
    """A third branch is dropped only inside the GHZ tolerance (1e-8)."""
    amps = canonical_ghz(4).amplitudes.copy()
    amps[0b0110] = eps
    register = StateVector(amps / np.linalg.norm(amps), qubits(4))
    if accepted:
        photons, _ = swap_register(register, 0.95)
        assert (photons.a, photons.b) == (register.amplitudes[0], register.amplitudes[-1])
    else:
        with pytest.raises(NotGhzClassError):
            swap_register(register, 0.95)


def test_register_swap_rejects_bad_inputs():
    ghz = canonical_ghz(2)
    with pytest.raises(ValueError):
        swap_register(ghz, 0.0)
    with pytest.raises(ValueError):
        swap_register(ghz, [0.9])
    from entpipe.hilbert import SubsystemLayout

    qutrit = StateVector(np.array([1.0, 0, 0]), SubsystemLayout((3,), ("a",)))
    with pytest.raises(LayoutError):
        swap_register(qutrit, 0.9)


@settings(max_examples=25, deadline=None)
@given(
    phase_a=st.floats(-math.pi, math.pi),
    phase_b=st.floats(-math.pi, math.pi),
)
def test_register_swap_transports_amplitudes(phase_a, phase_b):
    """Both branch amplitudes, including phase, ride through unchanged."""
    a = np.exp(1j * phase_a) * INV_SQRT2
    b = np.exp(1j * phase_b) * INV_SQRT2
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = a
    amps[7] = b
    photons, _ = swap_register(StateVector(amps, qubits(3)), 1.0)
    dense = dense_two_branch(photons)
    assert dense.amplitudes[0b101010] == a
    assert dense.amplitudes[0b010101] == b
