"""Top-level acceptance gate.

Ten numbered end-to-end checks, each printing exactly one verdict line
(through the capture bypass, so the line always reaches the terminal) and
each holding a wall-clock budget.  Sub-checks are accumulated so a failure
still produces the verdict line before the assert fires.
"""
import json
import math
import os
import time
from dataclasses import replace
from math import pi

import numpy as np
import pytest
import scipy.linalg

from entpipe.cat_code import CavitySpec, cat_column, run_protected, start_protected
from entpipe.cli import main as cli_main
from entpipe.config import default_config, serialize
from entpipe.errors import NotGhzClassError
from entpipe.hilbert import (
    StateVector,
    SubsystemLayout,
    fidelity,
    schmidt_spectrum,
)
from entpipe.photon_swap import (
    GaussianMode,
    SpectralGrid,
    ThreeLevelDot,
    propagate_static,
)
from entpipe.runner import run_pipeline, run_sweep
from entpipe.spin_register import (
    Schedule,
    bipartitions,
    build_bell,
    execute,
    is_ghz_class,
    plan_ghz,
)
from oracle_register import canonical_correction, dense_execute, ising_matrix
from oracle_storage import decode, encode
from oracle_swap import integrate_dynamics, swap_probability

J = 1.0e8


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("EP_"):
            monkeypatch.delenv(key)


def _check(fails, cond, what):
    if not cond:
        fails.append(what)


def _finish(capsys, num, label, t0, budget, fails, detail=""):
    elapsed = time.monotonic() - t0
    if elapsed >= budget:
        fails.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    ok = not fails
    extra = f" [{detail}]" if detail else ""
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {label}{extra} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line + " :: " + "; ".join(fails)


def test_01_bell_preparation(capsys):
    t0 = time.monotonic()
    fails = []
    # contact interval only: |++> picks up the (-,+,+,-) quarter-turn pattern
    u = scipy.linalg.expm(-1j * (pi / (4 * J)) * ising_matrix(J))
    mid = u @ (np.ones(4, dtype=complex) / 2)
    want = np.exp(1j * np.array([-1, 1, 1, -1]) * pi / 4) / 2
    _check(fails, np.max(np.abs(mid - want)) < 1e-10, "intermediate amplitude pattern")
    bell = execute(build_bell(J))
    target = np.zeros(4, dtype=complex)
    target[0] = target[3] = 2**-0.5
    fid = abs(np.vdot(target, bell.amplitudes)) ** 2
    _check(fails, fid >= 1 - 1e-10, f"bell fidelity {fid}")
    _finish(capsys, 1, "two-dot bell preparation", t0, 1.0, fails, f"fid={fid:.2e}")


def test_02_four_dot_entanglement_and_correction(capsys):
    t0 = time.monotonic()
    fails = []
    sch, _ = plan_ghz(4, J, J, canonical=False)
    fast = execute(sch)
    dense = dense_execute(sch)
    _check(
        fails,
        np.max(np.abs(fast.amplitudes - dense.amplitudes)) < 1e-10,
        "fast path disagrees with dense oracle",
    )
    cuts = list(bipartitions(4))
    _check(fails, len(cuts) == 7, f"expected 7 bipartitions, got {len(cuts)}")
    for cut in cuts:
        spec = np.sort(np.asarray(schmidt_spectrum(fast, cut)))[::-1]
        top, rest = spec[:2], spec[2:]
        if not (np.allclose(top, 2**-0.5, atol=1e-8) and np.all(rest < 1e-8)):
            fails.append(f"schmidt spectrum at cut {cut}: {spec}")
    corrected, info = canonical_correction(dense)
    _check(fails, len(info["x_flips"]) == 1, f"x flips {info['x_flips']}")
    ghz4 = np.zeros(16, dtype=complex)
    ghz4[0] = ghz4[15] = 2**-0.5
    fid = abs(np.vdot(ghz4, corrected.amplitudes)) ** 2
    _check(fails, fid >= 1 - 1e-8, f"corrected fidelity {fid}")
    # control: the same schedule with every rotation pulse at zero angle
    kept = tuple(
        st for st in sch.steps
        if st.coupling is not None or st.pulse.z_corrections is not None
    )
    control = execute(Schedule(kept, 4))
    _check(fails, not is_ghz_class(control), "zero-rotation control passed the class check")
    try:
        canonical_correction(control)
        fails.append("zero-rotation control was correctable")
    except NotGhzClassError:
        pass
    _finish(capsys, 2, "four-dot schedule, correction, control", t0, 5.0, fails,
            f"fid={fid:.10f}")


def test_03_planner_counts_and_total_time(capsys):
    t0 = time.monotonic()
    fails = []
    for n in range(2, 11):
        _, rep = plan_ghz(n, J, J)
        want = ((n + 1) // 2, (n - 1) // 2)
        got = (rep.t_ising_steps, rep.t_heisenberg_steps)
        _check(fails, got == want, f"n={n} layer counts {got} != {want}")
        ratio = rep.total_seconds / (n * 1e-8)
        _check(fails, 0.1 < ratio < 10.0, f"n={n} total {rep.total_seconds} off-decade")
    _finish(capsys, 3, "schedule layer counts and time scale", t0, 1.0, fails)


def test_04_cat_overlap_and_round_trip(capsys):
    t0 = time.monotonic()
    fails = []
    n_max = 60
    worst = 0.0
    for a in (1.0, 1.5, 2.0, 2.5):
        fock = abs(np.vdot(cat_column(a, 1, n_max), cat_column(1j * a, 1, n_max)))
        closed = abs(math.cos(a * a) / math.cosh(a * a))
        worst = max(worst, abs(fock - closed))
        _check(fails, abs(fock - closed) < 1e-8, f"alpha={a} overlap {fock} vs {closed}")
        _check(fails, fock <= 2 * math.exp(-a * a) + 1e-12, f"alpha={a} overlap scale")
    spec = CavitySpec(alpha=2.0, n_max=31)
    amps = np.zeros(4 * spec.dim, dtype=complex)
    amps[0] = 0.6
    amps[3 * spec.dim] = 0.8 * np.exp(0.7j)
    state = StateVector(amps, SubsystemLayout((2, 2, spec.dim)))
    back = decode(encode(state, spec), spec)
    fid = fidelity(back, state)
    _check(fails, fid >= 1 - 1e-8, f"encode/decode round trip {fid}")
    _finish(capsys, 4, "cat overlaps and encode round trip", t0, 5.0, fails,
            f"max overlap err={worst:.2e}")


def test_05_parity_outcomes_track_jump_counts(capsys):
    t0 = time.monotonic()
    fails = []
    spec = CavitySpec(alpha=2.0, n_max=31, kappa=5.0e4)
    tau = 1.0e-6  # kappa * tau = 0.05 per round
    exceptions = 0
    outcomes_seen = 0
    for i in range(1000):
        res = run_protected(start_protected(spec, 1, 4, tau, seed=20_000 + i), correct=True)
        rec = res.record
        for jumps, outs in zip(rec.jump_times, rec.parity_outcomes):
            prev = 0.0
            for t_meas, out in zip(rec.measurement_times, outs):
                n_jumps = sum(1 for tj in jumps if prev < tj <= t_meas)
                outcomes_seen += 1
                if out != (-1) ** n_jumps:
                    exceptions += 1
                # the correcting protocol restores even parity every round
                prev = t_meas
    _check(fails, outcomes_seen == 4000, f"expected 4000 outcomes, saw {outcomes_seen}")
    _check(fails, exceptions == 0, f"{exceptions} parity/jump mismatches")
    _finish(capsys, 5, "syndrome parity equals jump parity", t0, 60.0, fails,
            f"{outcomes_seen} outcomes, {exceptions} exceptions")


def test_06_correction_gain_at_three_loss_strengths(capsys):
    t0 = time.monotonic()
    fails = []
    duration = 4.0e-6
    tau = 1.0e-6
    detail = []
    for kappa_t in (0.05, 0.1, 0.2):
        spec = CavitySpec(alpha=2.0, n_max=31, kappa=kappa_t / duration)
        diffs = np.empty(1000)
        for i in range(1000):
            seed = 50_000 + i
            prefix = start_protected(spec, 3, 4, tau, seed)
            cor = run_protected(prefix, correct=True)
            unc = run_protected(prefix, correct=False)
            diffs[i] = cor.final_logical_fidelity - unc.final_logical_fidelity
        gain = float(np.mean(diffs))
        sem = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        sigma = gain / sem if sem > 0 else math.inf
        detail.append(f"kt={kappa_t}: {sigma:.0f}s")
        _check(fails, gain > 0, f"kappa_t={kappa_t} gain {gain} not positive")
        _check(fails, sigma >= 3.0, f"kappa_t={kappa_t} significance {sigma:.2f} < 3")
    _finish(capsys, 6, "paired correction gain", t0, 300.0, fails, ", ".join(detail))


def test_07_scattering_dynamics_properties(capsys):
    t0 = time.monotonic()
    fails = []
    center = 50.0
    dot = ThreeLevelDot(w1=center, w2=0.0, gamma1=1.0, gamma2=1.0)
    mode = GaussianMode(d=1.0, center=center)
    grid = SpectralGrid(center - 12.0, center + 12.0, 257)
    t_end, dt = 20.0, 0.01
    traj = integrate_dynamics(dot, mode, grid, t_end, dt)
    drift = float(np.max(np.abs(traj.norm_squared() - 1.0)))
    _check(fails, drift <= 1e-6, f"norm drift {drift}")

    one_arm = ThreeLevelDot(w1=center, w2=0.0, gamma1=1.0, gamma2=0.0)
    p_zero = swap_probability(integrate_dynamics(one_arm, mode, grid, t_end, dt))
    _check(fails, float(np.max(np.abs(p_zero))) <= 1e-14, "second channel off but P != 0")

    # independent fixed-step classic Runge-Kutta at 4x resolution
    k = grid.points
    wts = grid.weights
    b1 = math.sqrt(dot.gamma1 / (2 * math.pi))
    b2 = math.sqrt(dot.gamma2 / (2 * math.pi))
    delta = dot.w1 - k
    delta_p = dot.w1 - dot.w2 - k
    f = (2 / (math.pi * mode.d**2)) ** 0.25 * np.exp(-((k - center) ** 2) / mode.d**2)

    def deriv(t, a1, a2, a3):
        p1 = np.exp(-1j * t * delta)
        p2 = np.exp(-1j * t * delta_p)
        return (
            -b1 * a3 * p1,
            -b2 * a3 * p2,
            np.sum(wts * (b1 * a1 * np.conj(p1) + b2 * a2 * np.conj(p2))),
        )

    y1, y2, y3 = f.astype(complex), np.zeros_like(f, dtype=complex), 0j
    n_steps = 4 * math.ceil(t_end / dt)
    h = t_end / n_steps
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
    p_end = float(swap_probability(traj)[-1])
    _check(fails, abs(p_end - p_oracle) < 1e-4, f"oracle gap {abs(p_end - p_oracle)}")

    # rescaling: rates and bandwidth times s, time divided by s
    s = 3.0
    dot_s = ThreeLevelDot(w1=s * center, w2=0.0, gamma1=s, gamma2=s)
    mode_s = GaussianMode(d=s, center=s * center)
    grid_s = SpectralGrid(s * (center - 12.0), s * (center + 12.0), 257)
    amps = propagate_static(dot_s, mode_s, grid_s, np.array([t_end / s]))
    n = grid_s.n_k
    p_s = float(np.sum(grid_s.weights * np.abs(amps[0, n : 2 * n]) ** 2))
    _check(fails, abs(p_s - p_end) < 1e-6, f"rescaling gap {abs(p_s - p_end)}")
    _finish(capsys, 7, "swap dynamics invariants", t0, 120.0, fails,
            f"P={p_end:.6f}, oracle gap {abs(p_end - p_oracle):.1e}")


def test_08_conversion_probability_surface(capsys):
    t0 = time.monotonic()
    fails = []
    result = run_sweep(default_config())
    rows = result.tables[0][2]
    _check(fails, len(rows) == 400, f"expected 400 points, got {len(rows)}")
    unconverged = [r for r in rows if not r["converged"]]
    _check(fails, not unconverged, f"{len(unconverged)} points failed to plateau")
    mx = result.report.heralds["surface_max"]
    disc = result.report.discrepancy
    _check(
        fails,
        set(disc) == {"params", "p_ode", "p_closed", "abs_diff"},
        "discrepancy report missing",
    )
    if mx >= 0.9:
        note = f"max={mx:.3f} meets 0.9"
    else:
        # documented outcome: the printed closed form disagrees with the
        # integrated dynamics, and the surface tops out well below 0.9; the
        # discrepancy report carries the numbers
        note = (
            f"max={mx:.3f} below 0.9; closed-form gap {disc['abs_diff']:.3g} "
            "documented"
        )
    _finish(capsys, 8, "full surface sweep", t0, 60.0, fails, note)


def test_09_ideal_end_to_end_pipeline(capsys):
    t0 = time.monotonic()
    fails = []
    cfg = default_config()
    cfg = replace(
        cfg,
        register=replace(cfg.register, n_dots=8),
        swap=replace(cfg.swap, p_success=1.0),
        conversion=replace(cfg.conversion, eta_bbo=1.0, detector_efficiency=1.0),
    )
    result = run_pipeline(cfg)
    rep = result.report
    fid = rep.fidelities["final_polarization"]
    _check(fails, fid >= 1 - 1e-6, f"final fidelity {fid}")
    _check(fails, rep.stats["polarization_photons"] == 4, "wrong photon count")
    _check(fails, rep.heralds["swap"] == 1.0, f"swap herald {rep.heralds['swap']}")
    _check(fails, rep.heralds["conversion"] == 1.0, "conversion herald not exact")
    _check(fails, rep.heralds["total"] == 1.0, "total herald not exact")
    _finish(capsys, 9, "eight dots to four polarization photons", t0, 60.0, fails,
            f"fid={fid:.9f}")


def test_10_byte_identical_reruns(capsys, tmp_path):
    t0 = time.monotonic()
    fails = []

    def snapshot(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def run(cmd, out, extra=()):
        rc = cli_main([cmd, "--out", str(out), *extra])
        _check(fails, rc == 0, f"{cmd} exited {rc}")
        return snapshot(out)

    cfg = default_config()
    doc = serialize(cfg)
    doc["storage"].update(kappa=25000.0, trajectories=24)
    doc["sweep"].update(d_min=0.5, d_max=2.0, gamma_min=0.5, gamma_max=2.0,
                        points_per_axis=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    flags = ("--config", str(cfg_path))

    for cmd in ("ghz", "protect", "swap", "sweep", "pipeline"):
        out = tmp_path / cmd
        first = run(cmd, out, flags)
        again = run(cmd, out, flags)
        _check(fails, again == first, f"{cmd}: rerun changed bytes")
        if cmd in ("protect", "sweep"):
            pooled = run(cmd, out, (*flags, "--workers", "2"))
            _check(fails, pooled == first, f"{cmd}: worker count changed bytes")
    _finish(capsys, 10, "reruns byte-identical at any worker count", t0, 300.0, fails)
