"""Stage drivers behind the CLI: seed plumbing, pools, deterministic artifacts.

Every byte written here is a pure function of (config, base seed): floats are
printed with a fixed format, JSON keys are sorted, rows keep submission
order whatever the worker count, and nothing records wall-clock time.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cat_code import CavitySpec, fc_logical_amplitudes, run_protected, start_protected
from .config import PipelineConfig, serialize
from .errors import ConfigError
from .hilbert import ghz_fidelity
from .photon_swap import (
    GaussianMode,
    SpectralGrid,
    ThreeLevelDot,
    closed_form_report,
    continuum_probability,
    conversion_probability,
    horizon,
    longtime_probability,
    propagate_static,
    register_swap,
    sweep_point,
)
from .polarization import ConversionSpec, convert_register
from .spin_register import execute, ghz_branches, is_ghz_class, plan_ghz

SCHEMA_TAG = "entpipe-report/1"
_SIGMA_CAP = 999.0


def _unit_interval(x: float, tol: float = 1e-9) -> float:
    """Snap floating point excursions just outside [0,1] back to the boundary."""
    x = float(x)
    if -tol <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + tol:
        return 1.0
    return x


def _echo(cfg: PipelineConfig) -> dict:
    """Config echo for reports.

    The worker count shapes scheduling, never results, so it is left out;
    reruns at any pool size then produce byte-identical reports.
    """
    doc = serialize(cfg)
    doc["run"] = {k: v for k, v in doc["run"].items() if k != "workers"}
    return doc


@dataclass
class RunReport:
    """Uniform stage summary serialized next to the data tables."""

    stage: str
    fidelities: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    heralds: dict = field(default_factory=dict)
    discrepancy: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        for name, value in self.fidelities.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"reported fidelity {name}={value} outside [0,1]")
        return {
            "schema": SCHEMA_TAG,
            "stage": self.stage,
            "fidelities": self.fidelities,
            "timing": self.timing,
            "heralds": self.heralds,
            "discrepancy": self.discrepancy,
            "stats": self.stats,
            "config": self.config,
        }


@dataclass
class StageResult:
    report: RunReport
    tables: list = field(default_factory=list)  # (name, fieldnames, rows)
    documents: list = field(default_factory=list)  # (name, json-able object)


# ------------------------------------------------------------ determinism

def derive_seed(base_seed: int, index: int) -> int:
    """Counter-style per-task seed; independent of execution order."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def parallel_map(fn, items, workers: int) -> list:
    """Order-preserving map, serial below two workers.

    The pool never exceeds the item count or the CPU count: a forked pool
    starts all of its processes at the first submit.  ``concurrent.futures``
    (and with it ``multiprocessing``) is imported only when a pool is used.
    """
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def write_csv(path: Path, fieldnames: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in fieldnames])


def _plain(obj):
    """Recursively strip numpy scalar types so JSON output is stable."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_table(out_dir: Path, name: str, fieldnames: list, rows: list, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / f"{name}.json"
        write_json(path, [{k: row[k] for k in fieldnames} for row in rows])
    else:
        path = out_dir / f"{name}.csv"
        write_csv(path, fieldnames, rows)
    return path


# -------------------------------------------------------------- ghz stage

def run_ghz(cfg: PipelineConfig) -> StageResult:
    """Plan and execute a register entangling schedule."""
    reg = cfg.register
    schedule, timing = plan_ghz(reg.n_dots, reg.j1_hz, reg.j2_hz)
    state = execute(schedule)
    fid = ghz_fidelity(state.amplitudes[0], state.amplitudes[-1])
    report = RunReport(
        stage="ghz",
        fidelities={"canonical_ghz": _unit_interval(fid)},
        timing={
            "ising_steps": timing.t_ising_steps,
            "heisenberg_steps": timing.t_heisenberg_steps,
            "interaction_steps": timing.t_ising_steps + timing.t_heisenberg_steps,
            "ising_interval_s": timing.ising_interval,
            "heisenberg_interval_s": timing.heisenberg_interval,
            "total_seconds": timing.total_seconds,
        },
        stats={"ghz_class": int(is_ghz_class(state)), "n_dots": reg.n_dots},
        config=_echo(cfg),
    )
    dump = {
        "layout": list(state.layout.labels),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    return StageResult(report, documents=[("ghz_state", dump)])


# ---------------------------------------------------------- protect stage

def _protect_pair(args) -> tuple[dict, dict]:
    prefix = start_protected(*args)
    rows = []
    for correct in (True, False):
        res = run_protected(prefix, correct=correct)
        rows.append(
            {
                "seed": res.seed,
                "corrected": int(correct),
                "jumps": sum(res.record.jump_counts),
                "final_logical_fidelity": res.final_logical_fidelity,
            }
        )
    return tuple(rows)


def run_protect(cfg: PipelineConfig) -> StageResult:
    """Run paired protected/unprotected storage trajectories."""
    st = cfg.storage
    spec = CavitySpec(alpha=st.alpha, n_max=st.n_max, kappa=st.kappa)
    k = cfg.register.n_dots - 1
    duration = st.rounds * st.tau_syn
    tasks = [
        (spec, k, st.rounds, st.tau_syn, derive_seed(cfg.run.base_seed, i))
        for i in range(st.trajectories)
    ]
    pairs = parallel_map(_protect_pair, tasks, cfg.run.workers)
    rows = [row for pair in pairs for row in pair]
    cor = np.array([p[0]["final_logical_fidelity"] for p in pairs])
    unc = np.array([p[1]["final_logical_fidelity"] for p in pairs])
    diff = cor - unc
    sem = float(np.std(diff, ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else 0.0
    gain = float(np.mean(diff))
    sigma = _SIGMA_CAP if (sem == 0.0 and gain > 0) else (
        0.0 if sem == 0.0 else min(gain / sem, _SIGMA_CAP)
    )
    report = RunReport(
        stage="protect",
        fidelities={
            "corrected_mean": _unit_interval(np.mean(cor)),
            "uncorrected_mean": _unit_interval(np.mean(unc)),
        },
        timing={"storage_seconds": duration, "syndrome_interval_s": st.tau_syn},
        stats={
            "trajectories": st.trajectories,
            "cavities": k,
            "gain": gain,
            "gain_sigma": float(sigma),
            "kappa_t": st.kappa * duration,
        },
        config=_echo(cfg),
    )
    fieldnames = ["seed", "corrected", "jumps", "final_logical_fidelity"]
    return StageResult(report, tables=[("protect_trajectories", fieldnames, rows)])


# ------------------------------------------------------------- swap stage

def _longtime_success(cfg: PipelineConfig) -> float:
    """Simulated per-dot conversion success: the long-time limit of P."""
    sw = cfg.swap
    return longtime_probability(sw.d, sw.gamma1, sw.gamma2)


def run_swap(cfg: PipelineConfig) -> StageResult:
    """Time-resolve the photon frequency conversion probability."""
    sw = cfg.swap
    times = np.linspace(0.0, horizon(sw.d, sw.gamma1 + sw.gamma2), 101)
    p, n_t = continuum_probability(sw.d, sw.gamma1, sw.gamma2, times)
    t_end = float(times[-1])
    rows = [{"t": float(t), "p": float(pv)} for t, pv in zip(times, p)]
    discrepancy = closed_form_report(sw.gamma1, sw.gamma2, sw.d, t_end, float(p[-1]))
    report = RunReport(
        stage="swap",
        heralds={"p_longtime": _longtime_success(cfg)},
        timing={"t_end_s": t_end},
        discrepancy=discrepancy,
        stats={"n_t": n_t},
        config=_echo(cfg),
    )
    return StageResult(report, tables=[("swap_series", ["t", "p"], rows)])


# ------------------------------------------------------------ sweep stage

def _dimensionless_reference() -> tuple:
    """Fixed point (d = gamma = 1, t = 6) of the sweep's closed-form comparison."""
    half = 24.0
    center = 10 * half
    dot = ThreeLevelDot(w1=center, w2=0.0, gamma1=1.0, gamma2=1.0)
    mode = GaussianMode(d=1.0, center=center)
    grid = SpectralGrid(center - half, center + half, 1025)
    return dot, mode, grid, 6.0


def run_sweep(cfg: PipelineConfig) -> StageResult:
    """Map long-time conversion probability over a parameter box.

    The box is one broadcast ``sweep_point`` call in this process, whatever
    the worker count: its rows run d outer, gamma inner.
    """
    sv = cfg.sweep
    d_vals = np.geomspace(sv.d_min, sv.d_max, sv.points_per_axis)
    g_vals = np.geomspace(sv.gamma_min, sv.gamma_max, sv.points_per_axis)
    d_box, g_box = np.meshgrid(d_vals, g_vals, indexing="ij")  # d outer, gamma inner
    box = sweep_point(d_box.ravel(), g_box.ravel())
    rows = [
        {"d": d, "gamma": g, "p_longtime": p, "converged": box["converged"]}
        for d, g, p in zip(box["d"].tolist(), box["gamma"].tolist(), box["p_longtime"].tolist())
    ]
    surface_max = max(r["p_longtime"] for r in rows)
    dot, mode, grid, t = _dimensionless_reference()
    p_ref = conversion_probability(grid, propagate_static(dot, mode, grid, np.array([t])))
    discrepancy = closed_form_report(dot.gamma1, dot.gamma2, mode.d, t, float(p_ref[0]))
    report = RunReport(
        stage="sweep",
        heralds={"surface_max": surface_max},
        discrepancy=discrepancy,
        stats={"points": len(rows)},
        config=_echo(cfg),
    )
    fieldnames = ["d", "gamma", "p_longtime", "converged"]
    return StageResult(report, tables=[("sweep_surface", fieldnames, rows)])


# --------------------------------------------------------- pipeline stage

def run_pipeline(cfg: PipelineConfig) -> StageResult:
    """Run the full register-to-polarization chain.

    After the GHZ-class checks the executed register is one ``TwoBranch``
    value, never a 2^n vector, and its GHZ fidelity is read from that value.
    Storage keeps its pattern and takes the stored chain's logical
    amplitudes, renormalised, as (a, b); the chain starts from weights
    1/sqrt(2), the GHZ register's.
    """
    n = cfg.register.n_dots
    if n % 2 != 0:
        raise ConfigError(
            ["register.n_dots: the pipeline pairs photons two-to-one; need an even count"]
        )
    reg = cfg.register
    st = cfg.storage
    p = cfg.swap.p_success
    p_val = _longtime_success(cfg) if isinstance(p, str) else float(p)
    if not p_val > 0:
        raise ConfigError([f"swap.p_success: simulated per-dot success {p_val!r}, need > 0"])

    schedule, timing = plan_ghz(n, reg.j1_hz, reg.j2_hz)
    branches = ghz_branches(execute(schedule))
    fid_ghz = branches.ghz_fidelity()

    spec = CavitySpec(alpha=st.alpha, n_max=st.n_max, kappa=st.kappa)
    k = n - 1
    prefix = start_protected(spec, k, st.rounds, st.tau_syn, derive_seed(cfg.run.base_seed, 0))
    protected = run_protected(prefix, correct=True)
    c0, c1 = fc_logical_amplitudes(protected.record.final_state)
    code_weight = abs(c0) ** 2 + abs(c1) ** 2
    fid_protect = protected.final_logical_fidelity
    register = replace(branches, a=c0 / math.sqrt(code_weight), b=c1 / math.sqrt(code_weight))

    rails, herald_swap = register_swap(register, p_val)
    conv = ConversionSpec(cfg.conversion.eta_bbo, cfg.conversion.detector_efficiency)
    pol, herald_conv = convert_register(rails, conv)
    fid_final = code_weight * pol.ghz_fidelity()

    report = RunReport(
        stage="pipeline",
        fidelities={
            "ghz": _unit_interval(fid_ghz),
            "storage_logical": _unit_interval(fid_protect),
            "final_polarization": _unit_interval(fid_final),
        },
        timing={
            "ghz_total_seconds": timing.total_seconds,
            "storage_seconds": st.rounds * st.tau_syn,
        },
        heralds={
            "swap": herald_swap,
            "conversion": herald_conv,
            "total": herald_swap * herald_conv,
        },
        stats={
            "n_dots": n,
            "polarization_photons": n // 2,
            "per_dot_success": p_val,
            "code_weight": code_weight,
        },
        config=_echo(cfg),
    )
    return StageResult(report)


STAGES = {
    "ghz": run_ghz,
    "protect": run_protect,
    "swap": run_swap,
    "sweep": run_sweep,
    "pipeline": run_pipeline,
}


def write_stage_result(result: StageResult, out_dir: Path, fmt: str) -> list:
    """Write the report plus any tables/documents; returns the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    report_path = out_dir / f"{result.report.stage}_report.json"
    write_json(report_path, result.report.to_dict())
    paths.append(report_path)
    for name, fieldnames, rows in result.tables:
        paths.append(write_table(out_dir, name, fieldnames, rows, fmt))
    for name, obj in result.documents:
        path = out_dir / f"{name}.json"
        write_json(path, obj)
        paths.append(path)
    return paths
