"""Run configuration: one JSON document with per-stage sections.

Defaults are overridden in order: config file, then EP_* environment
variables, then command-line flags.  Every problem found during parsing and
validation is collected and raised in a single ConfigError so a bad file
can be fixed in one pass; unknown sections or keys are rejected outright.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

from .cat_code import required_levels
from .errors import ConfigError
from .photon_swap import horizon
from .spin_register import ghz_timing

_FORMATS = ("csv", "json")
# Largest Gamma/d, d/Gamma and horizon a conversion run may reach: every
# time and rate ratio of the continuum form stays finite in float64 out to
# the horizon, where the swap series ends, and so does the long-time limit,
# which reads Gamma/d alone.
_RATE_RANGE = 1e305


@dataclass(frozen=True)
class RegisterConfig:
    """GHZ preparation stage: dot count and coupling strengths."""

    n_dots: int = 4
    j1_hz: float = 1e8
    j2_hz: float = 1e8


@dataclass(frozen=True)
class StorageConfig:
    """Cat-code storage stage: cavity, loss, and syndrome schedule."""

    alpha: float = 2.0
    n_max: int = 31
    kappa: float = 0.0
    tau_syn: float = 1e-6
    rounds: int = 4
    trajectories: int = 200


@dataclass(frozen=True)
class SwapConfig:
    """Photon conversion stage: decay rates, input bandwidth, heralding."""

    gamma1: float = 5e7
    gamma2: float = 5e7
    d: float = 5e7
    p_success: float | str = 0.95


@dataclass(frozen=True)
class SweepConfig:
    """Conversion-probability surface over a dimensionless (d, gamma) box."""

    d_min: float = 0.1
    d_max: float = 10.0
    gamma_min: float = 0.1
    gamma_max: float = 10.0
    points_per_axis: int = 20


@dataclass(frozen=True)
class ConversionConfig:
    """Polarization conversion element efficiencies."""

    eta_bbo: float = 0.9
    detector_efficiency: float = 0.9


@dataclass(frozen=True)
class RunConfig:
    """Execution parameters common to every command."""

    base_seed: int = 1234567
    out_dir: str = "runs"
    workers: int = 1
    format: str = "csv"


@dataclass(frozen=True)
class PipelineConfig:
    register: RegisterConfig = RegisterConfig()
    storage: StorageConfig = StorageConfig()
    swap: SwapConfig = SwapConfig()
    sweep: SweepConfig = SweepConfig()
    conversion: ConversionConfig = ConversionConfig()
    run: RunConfig = RunConfig()


_SECTIONS = {
    "register": RegisterConfig,
    "storage": StorageConfig,
    "swap": SwapConfig,
    "sweep": SweepConfig,
    "conversion": ConversionConfig,
    "run": RunConfig,
}


def default_config() -> PipelineConfig:
    return PipelineConfig()


def _finite(tag: str, number: float, problems: list[str]):
    """``number`` if finite; NaN or +-inf would pass every ordering check."""
    if math.isfinite(number):
        return number
    problems.append(f"{tag}: expected a finite number, got {number!r}")
    return None


def _coerce(section: str, name: str, annotation: str, value, problems: list[str]):
    """Convert a raw JSON/env value to the declared field type."""
    tag = f"{section}.{name}"
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            try:
                return int(str(value))
            except ValueError:
                problems.append(f"{tag}: expected an integer, got {value!r}")
                return None
        return value
    if annotation == "str":
        if not isinstance(value, str):
            problems.append(f"{tag}: expected a string, got {value!r}")
            return None
        return value
    # a float, or the float-or-string union (swap success probability)
    if not isinstance(value, bool):  # float(True) would read 1.0
        try:
            return _finite(tag, float(value), problems)
        except (TypeError, ValueError):
            if isinstance(value, str) and annotation != "float":
                return value
    expected = "a number" if annotation == "float" else "a number or string"
    problems.append(f"{tag}: expected {expected}, got {value!r}")
    return None


def parse_config(doc: dict) -> PipelineConfig:
    """Build a validated config from a parsed JSON document."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    sections = {}
    for key, body in doc.items():
        if key not in _SECTIONS:
            problems.append(f"unknown section {key!r}")
            continue
        cls = _SECTIONS[key]
        known = {f.name: f for f in fields(cls)}
        if not isinstance(body, dict):
            problems.append(f"section {key!r} must be an object")
            continue
        kwargs = {}
        for name, value in body.items():
            if name not in known:
                problems.append(f"{key}: unknown key {name!r}")
                continue
            coerced = _coerce(key, name, str(known[name].type), value, problems)
            if coerced is not None:
                kwargs[name] = coerced
        sections[key] = cls(**kwargs)
    cfg = PipelineConfig(**sections)
    problems.extend(validate(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg


def _rates_in_range(d: float, g_tot: float) -> bool:
    """Gamma/d, d/Gamma and the horizon below ``_RATE_RANGE`` (Gamma = 0 allowed)."""
    return (
        g_tot / d < _RATE_RANGE
        and (g_tot == 0 or d / g_tot < _RATE_RANGE)
        and horizon(d, g_tot) < _RATE_RANGE
    )


def _storage_time_problem(st: StorageConfig) -> str | None:
    """What leaves float range among the storage time rounds * tau_syn, kappa
    times it, and kappa times it times n_max (the loss exponent at the top
    Fock level), as the stages compute them; None when all are finite."""
    try:
        duration = st.rounds * st.tau_syn
    except OverflowError:  # a round count past float range
        duration = math.inf
    if not (math.isfinite(duration) and math.isfinite(st.kappa * duration)):
        return "storage: rounds * tau_syn and kappa * rounds * tau_syn must stay finite"
    if not math.isfinite(st.kappa * duration * st.n_max):
        return "storage: kappa * rounds * tau_syn * n_max must stay finite"
    return None


def _register_timing_ok(reg: RegisterConfig) -> bool:
    """Whether the GHZ plan's interval lengths are positive finite floats
    and its total time is finite."""
    timing = ghz_timing(reg.n_dots, reg.j1_hz, reg.j2_hz)
    return (
        0 < timing.ising_interval < math.inf
        and 0 < timing.heisenberg_interval < math.inf
        and math.isfinite(timing.total_seconds)
    )


def validate(cfg: PipelineConfig) -> list[str]:
    """Semantic checks across all sections; returns every problem found."""
    p: list[str] = []
    reg = cfg.register
    if not 2 <= reg.n_dots <= 10:
        p.append(f"register.n_dots: need 2..10 dots, got {reg.n_dots}")
    if reg.j1_hz <= 0:
        p.append("register.j1_hz: coupling must be positive")
    if reg.j2_hz <= 0:
        p.append("register.j2_hz: coupling must be positive")
    elif reg.j1_hz > 0 and not _register_timing_ok(reg):
        p.append(
            "register: j1_hz and j2_hz must give positive finite coupling intervals "
            "and a finite total GHZ time"
        )
    st = cfg.storage
    if st.alpha <= 0:
        p.append("storage.alpha: cat amplitude must be positive")
    elif st.n_max < required_levels(st.alpha):
        p.append(
            f"storage.n_max: {st.n_max} below the safe truncation "
            f"{required_levels(st.alpha)} for alpha={st.alpha}"
        )
    if st.kappa < 0:
        p.append("storage.kappa: loss rate cannot be negative")
    if st.tau_syn <= 0:
        p.append("storage.tau_syn: syndrome interval must be positive")
    if st.rounds < 1:
        p.append("storage.rounds: need at least one syndrome round")
    elif st.tau_syn > 0 and (problem := _storage_time_problem(st)):
        p.append(problem)
    if st.trajectories < 1:
        p.append("storage.trajectories: need at least one trajectory")
    sw = cfg.swap
    rates_ok = sw.gamma1 >= 0 and sw.gamma2 >= 0
    if not rates_ok:
        p.append("swap: decay rates cannot be negative")
    if sw.d <= 0:
        p.append("swap.d: mode bandwidth must be positive")
    elif rates_ok and not _rates_in_range(sw.d, sw.gamma1 + sw.gamma2):
        p.append(
            f"swap: Gamma/d, d/Gamma and 6/d + 8/Gamma (Gamma = gamma1 + gamma2) "
            f"must stay below {_RATE_RANGE:g}"
        )
    if isinstance(sw.p_success, str):
        if sw.p_success != "simulate":
            p.append(f"swap.p_success: number in (0,1] or 'simulate', got {sw.p_success!r}")
    elif not 0 < sw.p_success <= 1:
        p.append(f"swap.p_success: must lie in (0,1], got {sw.p_success}")
    sv = cfg.sweep
    d_ok = 0 < sv.d_min < sv.d_max
    g_ok = 0 < sv.gamma_min < sv.gamma_max
    if not d_ok:
        p.append("sweep: need 0 < d_min < d_max")
    if not g_ok:
        p.append("sweep: need 0 < gamma_min < gamma_max")
    if d_ok and g_ok and not all(
        _rates_in_range(d, 2 * g)
        for d in (sv.d_min, sv.d_max)
        for g in (sv.gamma_min, sv.gamma_max)
    ):
        p.append(
            f"sweep: 2 gamma/d, d/(2 gamma) and 6/d + 4/gamma must stay below "
            f"{_RATE_RANGE:g} over the box"
        )
    if sv.points_per_axis < 2:
        p.append("sweep.points_per_axis: need at least 2 points")
    cv = cfg.conversion
    if not 0 < cv.eta_bbo <= 1:
        p.append("conversion.eta_bbo: must lie in (0,1]")
    if not 0 < cv.detector_efficiency <= 1:
        p.append("conversion.detector_efficiency: must lie in (0,1]")
    rn = cfg.run
    if rn.base_seed < 0:
        p.append("run.base_seed: must be nonnegative")
    if rn.workers < 0:
        p.append("run.workers: cannot be negative")
    if rn.format not in _FORMATS:
        p.append(f"run.format: must be one of {_FORMATS}, got {rn.format!r}")
    return p


def serialize(cfg: PipelineConfig) -> dict:
    """Plain-dict form; parse_config(serialize(cfg)) reproduces cfg."""
    return {name: asdict(getattr(cfg, name)) for name in _SECTIONS}


def apply_env(cfg: PipelineConfig, environ) -> PipelineConfig:
    """Fold EP_* environment overrides into a config.

    Shorthands EP_SEED, EP_OUT, EP_WORKERS, EP_FORMAT hit the run section;
    EP_<SECTION>__<FIELD> reaches any field.  Without an EP_* key ``cfg``
    itself is returned.
    """
    overrides = {key: raw for key, raw in environ.items() if key.startswith("EP_")}
    if not overrides:
        return cfg
    doc = serialize(cfg)
    problems: list[str] = []
    shorthand = {
        "EP_SEED": ("run", "base_seed"),
        "EP_OUT": ("run", "out_dir"),
        "EP_WORKERS": ("run", "workers"),
        "EP_FORMAT": ("run", "format"),
    }
    for key, raw in sorted(overrides.items()):
        if key in shorthand:
            section, field = shorthand[key]
        elif "__" in key:
            section, _, field = key[3:].lower().partition("__")
            if section not in _SECTIONS:
                problems.append(f"{key}: unknown section {section!r}")
                continue
            if field not in {f.name for f in fields(_SECTIONS[section])}:
                problems.append(f"{key}: unknown field {field!r}")
                continue
        else:
            problems.append(f"{key}: not a recognized override")
            continue
        doc[section][field] = raw
    if problems:
        raise ConfigError(problems)
    return parse_config(doc)


def apply_flags(
    cfg: PipelineConfig,
    seed: int | None = None,
    out: str | None = None,
    workers: int | None = None,
    fmt: str | None = None,
) -> PipelineConfig:
    """Apply command-line overrides (highest precedence)."""
    rn = cfg.run
    if seed is not None:
        rn = replace(rn, base_seed=seed)
    if out is not None:
        rn = replace(rn, out_dir=out)
    if workers is not None:
        rn = replace(rn, workers=workers)
    if fmt is not None:
        rn = replace(rn, format=fmt)
    cfg = replace(cfg, run=rn)
    problems = validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path) -> PipelineConfig:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    except OSError as exc:  # missing file, a directory, no permission
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    return parse_config(doc)
