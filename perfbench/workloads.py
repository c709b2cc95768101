"""The benchmark's workloads, their correctness checks and its metric names.

Each workload is one entpipe CLI command with a config document written by
the benchmark.  A workload run is one or more ``entpipe.cli.main`` calls in
a fresh process; the checks read back the artifacts those calls wrote.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

# name -> unit, measured with tracing off.  Times are given at the
# reference speed (see REF_S).
END_TO_END = {"wall_s": "s", "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Every run also times reference_task(), which uses no entpipe code, in the
# same process: after set-up and after every Workload.calls_per_ref calls.
# Each stretch of the run is scaled by REF_S / (the mean reference time at
# its two ends): end-to-end times read as on a machine where the reference
# takes REF_S.  A shared 2-core VM changes speed by up to 2x within
# seconds; the reference follows those swings (correlation about 0.8 with
# the workloads' run times), so the scaled times stay steady between
# invocations where the raw ones do not.
REF_S = 0.1

# name -> unit.  Names are <module>.<function>.<stat> for span figures:
# busy_s is inclusive time, self_s excludes child spans, p50/p95/max are
# per-call latencies.  The rest are counts and ratios taken at the same
# boundaries, the set-up split, and the trace's own bookkeeping.
PER_LAYER = {
    "photon_swap.sweep_point.calls": "count",
    "photon_swap.sweep_point.busy_s": "s",
    "photon_swap.sweep_point.p50_ms": "ms",
    "photon_swap.sweep_point.max_ms": "ms",
    "photon_swap.propagate_static.calls": "count",
    "photon_swap.propagate_static.self_s": "s",
    "photon_swap.expm_multiply.calls": "count",
    "photon_swap.expm_multiply.busy_s": "s",
    "photon_swap.static_generator.busy_s": "s",
    "photon_swap.closed_form_report.busy_s": "s",
    "photon_swap.attempts_per_point": "ratio",
    "photon_swap.grid_points": "count",
    "photon_swap.krylov_work": "count",
    "photon_swap.ref_err": "probability",
    "cat_code.run_protected.calls": "count",
    "cat_code.run_protected.busy_s": "s",
    "cat_code.run_protected.p50_ms": "ms",
    "cat_code.run_protected.p95_ms": "ms",
    "cat_code.fc_loss_segment.calls": "count",
    "cat_code.fc_loss_segment.self_s": "s",
    "cat_code.brentq.calls": "count",
    "cat_code.brentq.busy_s": "s",
    "cat_code.recovery_matrix.calls": "count",
    "cat_code.recovery_matrix.busy_s": "s",
    "cat_code.recovery_matrix.distinct_frac": "ratio",
    "cat_code.fc_parity_probability.calls": "count",
    "cat_code.fc_parity_probability.busy_s": "s",
    "cat_code.fc_project_parity.busy_s": "s",
    "cat_code.jumps": "count",
    "spin_register.plan_ghz.busy_s": "s",
    "spin_register.execute.calls": "count",
    "spin_register.execute.busy_s": "s",
    "spin_register.is_ghz_class.calls": "count",
    "spin_register.is_ghz_class.busy_s": "s",
    "hilbert.schmidt_spectrum.calls": "count",
    "hilbert.schmidt_spectrum.busy_s": "s",
    "hilbert.apply_local.calls": "count",
    "hilbert.apply_local.busy_s": "s",
    "photon_swap.register_swap.self_s": "s",
    "polarization.convert_register.busy_s": "s",
    "runner.write_stage_result.busy_s": "s",
    "runner.artifact_bytes": "bytes",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "trace.wall_s": "s",
    "trace.span_self_s": "s",
    "trace.other_self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Per-layer metrics that are pure functions of (code, workload, seed): they
# must repeat exactly between traced runs.
EXACT = tuple(
    m for m, unit in PER_LAYER.items()
    if unit in ("count", "bytes", "probability")
    or m in ("photon_swap.attempts_per_point", "cat_code.recovery_matrix.distinct_frac")
)


# ------------------------------------------------------ conversion reference

def smatrix_conversion(d: float, gamma: float) -> float:
    """Long-time conversion from the single-photon S-matrix of a Lambda emitter.

    P = g1 g2 * integral |f(k)|^2 / ((w1-k)^2 + (g1+g2)^2/4) dk with
    g1 = g2 = gamma and |f|^2 a Gaussian of standard deviation d/2, which is
    pi*gamma times the Voigt profile at zero detuning (Shen & Fan, PRL 95,
    213001 (2005)).
    """
    from scipy.special import voigt_profile

    return float(math.pi * gamma * voigt_profile(0.0, d / 2, gamma))


# ------------------------------------------------------------------ helpers

def reference_task() -> float:
    """Seconds taken by a fixed mix of interpreter work and sparse Krylov
    propagation with scipy's ``expm_multiply``, the two kinds of work the
    workloads spend their time in.  On a shared 2-core VM it followed the
    run times of all three workloads better than small dense SVDs did."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    # Built from 3n random entries directly: scipy.sparse.random would draw
    # from all n^2 positions and raise the process's peak memory.
    n = 2000
    rng = np.random.default_rng(1)
    h = sp.csr_matrix((rng.random(3 * n), (rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n))),
                      shape=(n, n))
    a = 3.0 * (1j * h - 0.5 * sp.eye(n, format="csr"))
    v = np.ones(n, dtype=complex)
    start = time.perf_counter()
    acc = {}
    for i in range(200_000):
        acc[i % 97] = acc.get(i % 97, 0) + i * 3 % 11
    for _ in range(16):
        expm_multiply(a, v)
    return time.perf_counter() - start


def at_reference_speed(pieces: list) -> float:
    """Total of (seconds, reference seconds) pieces, each scaled to REF_S."""
    return sum(t * REF_S / ref for t, ref in pieces)


def artifact_digest(out_dirs: list) -> tuple[str, int]:
    """sha256 over every artifact's relative path and bytes, plus total bytes."""
    h = hashlib.sha256()
    total = 0
    for i, out in enumerate(out_dirs):
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                total += len(data)
                h.update(f"{i}/{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
                h.update(data)
    return h.hexdigest(), total


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # entpipe subcommand
    config: dict  # config document the benchmark writes for the run
    calls: int = 1  # cli.main calls per workload run, each with its own seed
    calls_per_ref: int = 1  # calls between two timings of the reference task

    def seeds(self, seed: int) -> list:
        """CLI --seed of each call; the first is the workload seed itself."""
        rng = random.Random(seed)
        return [seed] + [rng.randrange(2**31) for _ in range(self.calls - 1)]

    def check(self, out_dirs: list) -> tuple[list, int, dict]:
        """Problems found in the artifacts, work units done, extra figures."""
        return CHECKS[self.name](self, [Path(o) for o in out_dirs])


def _check_surface(wl: Workload, outs: list) -> tuple[list, int, dict]:
    rows = _read_csv(outs[0] / "sweep_surface.csv")
    problems = []
    expected = wl.config["sweep"]["points_per_axis"] ** 2
    if len(rows) != expected:
        problems.append(f"sweep has {len(rows)} rows, expected {expected}")
    ref_err = 0.0
    for row in rows:
        p = float(row["p_longtime"])
        if row["converged"] != "1":
            problems.append(f"unconverged row d={row['d']} gamma={row['gamma']}")
        if not 0.0 <= p <= 1.0:
            problems.append(f"p_longtime {p} outside [0, 1]")
        ref_err = max(ref_err, abs(p - smatrix_conversion(float(row["d"]), float(row["gamma"]))))
    return problems, len(rows), {"ref_err": ref_err}


def _check_storage(wl: Workload, outs: list) -> tuple[list, int, dict]:
    pairs = wl.config["storage"]["trajectories"]
    problems = []
    units = jumps = 0
    lowest_sigma = math.inf
    for out in outs:
        report = _read_json(out / "protect_report.json")
        rows = _read_csv(out / "protect_trajectories.csv")
        fid, stats = report["fidelities"], report["stats"]
        if not fid["corrected_mean"] > fid["uncorrected_mean"]:
            problems.append(
                f"{out.name}: corrected_mean {fid['corrected_mean']} not above uncorrected "
                f"{fid['uncorrected_mean']}"
            )
        if not stats["gain_sigma"] >= 5:
            problems.append(f"{out.name}: gain_sigma {stats['gain_sigma']} below 5")
        if len(rows) != 2 * pairs:
            problems.append(f"{out.name}: {len(rows)} trajectory rows, expected {2 * pairs}")
        units += len(rows) // 2
        jumps += sum(int(r["jumps"]) for r in rows)
        lowest_sigma = min(lowest_sigma, stats["gain_sigma"])
    return problems, units, {"jumps": jumps, "gain_sigma": lowest_sigma}


def _check_chain(wl: Workload, outs: list) -> tuple[list, int, dict]:
    n = wl.config["register"]["n_dots"]
    p = wl.config["swap"]["p_success"]
    conv = wl.config["conversion"]
    expected = p**n * (conv["eta_bbo"] * conv["detector_efficiency"]) ** (n // 2)
    problems = []
    worst = 1.0
    for out in outs:
        report = _read_json(out / "pipeline_report.json")
        fid = report["fidelities"]["ghz"]
        total = report["heralds"]["total"]
        worst = min(worst, fid)
        if not fid >= 1 - 1e-9:
            problems.append(f"{out.name}: canonical GHZ fidelity {fid} below 1 - 1e-9")
        if abs(total - expected) > 1e-12:
            problems.append(f"{out.name}: total herald {total} differs from {expected}")
    return problems, len(outs), {"min_ghz_fidelity": worst}


CHECKS = {"surface": _check_surface, "storage": _check_storage, "chain": _check_chain}

WORKLOADS = {
    # Krylov conversion path: 5x5 sub-box keeps the costly n_k corner
    # (d small, gamma large) and the cheap bulk.  Deterministic, so the
    # workload seed only reaches --seed.
    "surface": Workload(
        "surface",
        "sweep",
        {"sweep": {"d_min": 0.2, "d_max": 10.0, "gamma_min": 0.1, "gamma_max": 5.0,
                   "points_per_axis": 5}},
    ),
    # Many short cat-code trajectories: kappa t = 0.1 over 4 rounds of 1 us
    # on 7 cavities, 200 seeded pairs.  They run as four protect calls of 50
    # pairs, so the reference task is timed every 2 s or so.
    "storage": Workload(
        "storage",
        "protect",
        {"register": {"n_dots": 8},
         "storage": {"kappa": 25000.0, "trajectories": 50, "rounds": 4, "tau_syn": 1e-6}},
        calls=4,
    ),
    # Full chain at the largest register: one long 9-cavity trajectory, the
    # GHZ schedule and its Schmidt check per run.  p_success is fixed so the
    # run does not repeat one identical Krylov propagation.
    "chain": Workload(
        "chain",
        "pipeline",
        {"register": {"n_dots": 10},
         "storage": {"kappa": 25000.0, "rounds": 4, "tau_syn": 1e-6},
         "swap": {"p_success": 0.95},
         "conversion": {"eta_bbo": 0.9, "detector_efficiency": 0.9}},
        calls=48,
        calls_per_ref=12,
    ),
}
