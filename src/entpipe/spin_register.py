"""GHZ-state preparation schedules for an exchange-coupled spin register.

Two native interactions drive everything: an isotropic exchange coupling
J1*(XX+YY+ZZ) on a dot pair and a longitudinal coupling J2*(ZZ).  Single-dot
rotations and Z phase corrections are treated as instantaneous.  A register of
n dots is entangled by preparing Bell pairs in parallel (one ZZ interval),
then absorbing one pair (or the final unpaired dot) at a time into a growing
block; each absorption costs one ZZ interval plus one exchange interval.

``execute`` builds each distinct coupling unitary once per process: the
gates per (kind, strength, duration) sit in a bounded memo as read-only
arrays.  A plan of any size holds two distinct coupling gates (one ZZ and
one exchange interval), so repeated runs pay for two matrix exponentials in
all; every step is still applied to the state.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import ScheduleError
from .hilbert import StateVector, apply_local, qubits, read_only, schmidt_spectrum

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_ALLOWED_PULSE_ANGLES = (pi / 2, pi)

# The pi pulse used when absorbing a Bell pair rotates about the equatorial
# axis at angle -pi/4, i.e. a branch phase difference of pi/2 between the
# swapped computational states.
MERGE_AXIS_PHASE = -pi / 4

# Net overall phase of one absorption, from the -i*e^{+-i pi/4} pulse factors
# and the exchange eigenphases e^{-i pi/8}, e^{+3i pi/8}.  Canonical plans
# compensate these so the executed state carries no leftover phase.
_PAIR_ABSORB_PHASE = -11 * pi / 8
_SINGLE_ABSORB_PHASE = -pi / 8

# Largest deviation of a Schmidt coefficient from the GHZ spectrum
# (1/sqrt2, 1/sqrt2, 0, ...) that still counts as GHZ class.
_GHZ_TOL = 1e-8
# Slack below _GHZ_TOL for the Weyl-bound shortcut in is_ghz_class: covers
# the SVD's backward error (~dim * eps) and the rounding of the bound itself.
_WEYL_MARGIN = 1e-10


def heisenberg_matrix(j: float) -> np.ndarray:
    """Two-dot isotropic exchange generator j*(XX + YY + ZZ)."""
    return j * (
        np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
    )


def ising_matrix(j: float) -> np.ndarray:
    """Two-dot longitudinal generator j*(ZZ)."""
    return j * np.kron(SIGMA_Z, SIGMA_Z)


def coupling_matrix(kind: str, strength: float) -> np.ndarray:
    """Generator of a "heisenberg" or "ising" coupling of the given strength."""
    if kind == "heisenberg":
        return heisenberg_matrix(strength)
    return ising_matrix(strength)


def rotation(angle: float, axis_phase: float) -> np.ndarray:
    """Single-dot rotation exp(-i*angle/2*(cos(phi) X + sin(phi) Y))."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array(
        [[c, -1j * s * np.exp(-1j * axis_phase)], [-1j * s * np.exp(1j * axis_phase), c]],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class CouplingSpec:
    kind: str  # "heisenberg" | "ising"
    strength: float  # angular rate in Hz; interval durations use t = pi/(4 J) etc.
    pair: tuple[int, int]

    def __post_init__(self):
        if self.kind not in ("heisenberg", "ising"):
            raise ScheduleError(f"unknown coupling kind {self.kind!r}")
        a, b = self.pair
        if a == b:
            raise ScheduleError("coupling pair must be two distinct dots")
        if self.strength <= 0:
            raise ScheduleError("coupling strength must be positive")
        object.__setattr__(self, "pair", (int(a), int(b)))

    def matrix(self) -> np.ndarray:
        return coupling_matrix(self.kind, self.strength)


@dataclass(frozen=True)
class PulseSpec:
    """Instantaneous single-dot rotation, or a Z-phase correction layer.

    When ``z_corrections`` is set the step is a diagonal phase correction
    (per-dot angles phi applied as diag(1, e^{i phi})) together with an
    explicit global phase; target/angle/axis_phase are ignored.
    """

    target: int | None = None
    angle: float = 0.0
    axis_phase: float = 0.0
    z_corrections: dict[int, float] | None = None
    global_phase: float = 0.0

    def __post_init__(self):
        if self.z_corrections is None:
            if self.target is None:
                raise ScheduleError("pulse needs a target dot or z_corrections")
            if not any(abs(self.angle - a) < 1e-12 for a in _ALLOWED_PULSE_ANGLES):
                raise ScheduleError(
                    f"pulse angle {self.angle} not in allowed set (pi/2, pi)"
                )
        else:
            object.__setattr__(
                self, "z_corrections", {int(k): float(v) for k, v in self.z_corrections.items()}
            )


@dataclass(frozen=True)
class ScheduleStep:
    """One schedule entry: a timed coupling interval or an instantaneous pulse.

    Steps sharing a layer index run concurrently (their supports are disjoint
    and the generators commute); wall-clock accounting is per layer.
    """

    layer: int
    coupling: CouplingSpec | None = None
    duration: float = 0.0
    pulse: PulseSpec | None = None

    def __post_init__(self):
        if (self.coupling is None) == (self.pulse is None):
            raise ScheduleError("step must hold exactly one of coupling or pulse")
        if self.coupling is not None and self.duration <= 0:
            raise ScheduleError("coupling step needs a positive duration")


@dataclass(frozen=True)
class Schedule:
    steps: tuple[ScheduleStep, ...]
    n_dots: int

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for st in self.steps:
            for dot in _step_dots(st):
                if not 0 <= dot < self.n_dots:
                    raise ScheduleError(f"step touches dot {dot} outside register of {self.n_dots}")


def _step_dots(step: ScheduleStep) -> tuple[int, ...]:
    if step.coupling is not None:
        return step.coupling.pair
    if step.pulse.z_corrections is not None:
        return tuple(step.pulse.z_corrections)
    return (step.pulse.target,)


@dataclass(frozen=True)
class TimingReport:
    """Wall-clock accounting: coupling intervals by kind, pulses free."""

    t_ising_steps: int
    t_heisenberg_steps: int
    ising_interval: float
    heisenberg_interval: float

    @property
    def total_seconds(self) -> float:
        return (
            self.t_ising_steps * self.ising_interval
            + self.t_heisenberg_steps * self.heisenberg_interval
        )


def plus_register(n: int) -> StateVector:
    """|+>^n, the idle register configuration."""
    layout = qubits(n)
    amps = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
    return StateVector(amps, layout)


def build_bell(j2: float, n_dots: int = 2, pair: tuple[int, int] = (0, 1)) -> Schedule:
    """Schedule preparing (|00>+|11>)/sqrt(2) on ``pair`` from |+>|+>.

    One ZZ interval of pi/(4 J2) followed by a pi/2 rotation on the second
    dot of the pair.  The interval and pulse leave a known overall phase of
    -pi/4; a trailing phase step folds it away so later amplitude bookkeeping
    stays exact.
    """
    steps = (
        ScheduleStep(0, coupling=CouplingSpec("ising", j2, pair), duration=pi / (4 * j2)),
        ScheduleStep(0, pulse=PulseSpec(target=pair[1], angle=pi / 2, axis_phase=0.0)),
        ScheduleStep(0, pulse=PulseSpec(z_corrections={}, global_phase=pi / 4)),
    )
    return Schedule(steps, n_dots)


def _merge_pair_steps(
    contact_a: int,
    contact_b: int,
    j1: float,
    j2: float,
    layer: int,
    canonicalize: bool,
) -> list[ScheduleStep]:
    """Steps absorbing the Bell pair (contact_b, contact_b+1) into block A.

    ZZ on the contacts, phase corrections on both contacts, a pi pulse on the
    pair dot that is not the exchange contact, then the exchange interval on
    the pair.  With ``canonicalize`` a final pi pulse realigns the absorbed
    pair with the block's computational pattern.
    """
    partner = contact_b + 1
    steps = [
        ScheduleStep(
            layer,
            coupling=CouplingSpec("ising", j2, (contact_a, contact_b)),
            duration=pi / (4 * j2),
        ),
        ScheduleStep(
            layer,
            pulse=PulseSpec(
                z_corrections={contact_a: -pi / 2, contact_b: -pi / 2},
                global_phase=pi / 4,
            ),
        ),
        ScheduleStep(
            layer,
            pulse=PulseSpec(target=partner, angle=pi, axis_phase=MERGE_AXIS_PHASE),
        ),
        ScheduleStep(
            layer + 1,
            coupling=CouplingSpec("heisenberg", j1, (contact_b, partner)),
            duration=pi / (8 * j1),
        ),
    ]
    if canonicalize:
        steps.append(
            ScheduleStep(layer + 1, pulse=PulseSpec(target=partner, angle=pi, axis_phase=pi / 4))
        )
    return steps


def _attach_single_steps(
    contact_a: int, lone: int, j1: float, j2: float, layer: int
) -> list[ScheduleStep]:
    """Steps absorbing a final unpaired dot (still in |+>) into block A.

    The ZZ interval plus corrections entangle the dot; the pi/2 rotation
    aligns it with the block's computational branches.  The trailing exchange
    interval acts on aligned branches (|00> and |11> on the touched pair), so
    it contributes only a global phase; it is kept because the wall-clock
    budget charges every absorption one ZZ plus one exchange interval.
    """
    return [
        ScheduleStep(
            layer, coupling=CouplingSpec("ising", j2, (contact_a, lone)), duration=pi / (4 * j2)
        ),
        ScheduleStep(
            layer,
            pulse=PulseSpec(
                z_corrections={contact_a: -pi / 2, lone: -pi / 2}, global_phase=pi / 4
            ),
        ),
        ScheduleStep(layer, pulse=PulseSpec(target=lone, angle=pi / 2, axis_phase=-pi / 2)),
        ScheduleStep(layer, pulse=PulseSpec(z_corrections={lone: pi})),
        ScheduleStep(
            layer + 1,
            coupling=CouplingSpec("heisenberg", j1, (contact_a, lone)),
            duration=pi / (8 * j1),
        ),
    ]


def plan_ghz(
    n: int, j1: float, j2: float, *, canonical: bool = True
) -> tuple[Schedule, TimingReport]:
    """Plan a GHZ schedule for n dots, pairing left to right.

    Pairs (0,1), (2,3), ... are Bell-prepared concurrently in the first
    interval, then absorbed into the block anchored at dot 0 one at a time.
    With ``canonical`` the executed schedule ends at (|0..0>+|1..1>)/sqrt(2)
    exactly; without it the last absorption is left raw (one flipped dot and
    a branch phase), which is what the local-correction search is for.
    """
    if n < 2:
        raise ScheduleError("register needs at least two dots")
    if j1 <= 0 or j2 <= 0:
        raise ScheduleError("coupling strengths must be positive")
    steps: list[ScheduleStep] = []
    for a in range(0, n - 1, 2):
        bell = build_bell(j2, n_dots=n, pair=(a, a + 1))
        steps.extend(bell.steps)
    merges: list[tuple[int, ...]] = []
    pos = 2
    while pos < n:
        merges.append((pos, pos + 1) if pos + 1 < n else (pos,))
        pos += 2 if pos + 1 < n else 1
    layer = 1
    phase_acc = 0.0
    for i, blk in enumerate(merges):
        last = i == len(merges) - 1
        if len(blk) == 2:
            steps.extend(
                _merge_pair_steps(0, blk[0], j1, j2, layer, canonicalize=canonical or not last)
            )
            phase_acc += _PAIR_ABSORB_PHASE
        else:
            steps.extend(_attach_single_steps(0, blk[0], j1, j2, layer))
            phase_acc += _SINGLE_ABSORB_PHASE
        layer += 2
    if canonical and merges:
        steps.append(
            ScheduleStep(layer - 1, pulse=PulseSpec(z_corrections={}, global_phase=-phase_acc))
        )
    schedule = Schedule(tuple(steps), n)
    report = TimingReport(
        t_ising_steps=(n + 1) // 2,
        t_heisenberg_steps=(n - 1) // 2,
        ising_interval=pi / (4 * j2),
        heisenberg_interval=pi / (8 * j1),
    )
    counted = report_from_schedule(schedule)
    if (counted.t_ising_steps, counted.t_heisenberg_steps) != (
        report.t_ising_steps,
        report.t_heisenberg_steps,
    ):
        raise ScheduleError("planned layer counts disagree with interval budget")
    return schedule, report


def report_from_schedule(schedule: Schedule) -> TimingReport:
    """Recount coupling intervals per concurrency layer from the steps."""
    layers: dict[tuple[int, str], float] = {}
    for st in schedule.steps:
        if st.coupling is None:
            continue
        key = (st.layer, st.coupling.kind)
        if key in layers and abs(layers[key] - st.duration) > 1e-15:
            raise ScheduleError("concurrent steps in one layer must share a duration")
        layers[key] = st.duration
    ising = [(lk, d) for (lk, kind), d in layers.items() if kind == "ising"]
    heis = [(lk, d) for (lk, kind), d in layers.items() if kind == "heisenberg"]
    i_dur = ising[0][1] if ising else 0.0
    h_dur = heis[0][1] if heis else 0.0
    return TimingReport(len(ising), len(heis), i_dur, h_dur)


def execute(schedule: Schedule) -> StateVector:
    """Run a schedule from |+>^n, exactly."""
    state = plus_register(schedule.n_dots)
    for st in schedule.steps:
        state = _apply_step(state, st)
    return state


@functools.lru_cache(maxsize=32)
def _coupling_gate(kind: str, strength: float, duration: float) -> np.ndarray:
    """exp(-i*duration*generator) of a coupling interval, memoised read-only.

    scipy.linalg is imported on a memo miss, so stages that run no schedule
    never load it; ``expm`` is looked up on the module at call time.
    """
    import scipy.linalg

    return read_only(scipy.linalg.expm(-1j * duration * coupling_matrix(kind, strength)))


def _apply_step(state: StateVector, st: ScheduleStep) -> StateVector:
    if st.coupling is not None:
        c = st.coupling
        return apply_local(state, _coupling_gate(c.kind, c.strength, st.duration), c.pair)
    p = st.pulse
    if p.z_corrections is not None:
        amps = state.amplitudes * np.exp(1j * p.global_phase)
        out = StateVector(amps, state.layout)
        for dot, phi in sorted(p.z_corrections.items()):
            gate = np.diag([1.0, np.exp(1j * phi)]).astype(np.complex128)
            out = apply_local(out, gate, (dot,))
        return out
    return apply_local(state, rotation(p.angle, p.axis_phase), (p.target,))


def bipartitions(n: int):
    """All bipartitions of n subsystems, one representative per complement pair."""
    for mask in range(2, 2**n, 2):  # even masks never contain dot 0
        part = tuple(i for i in range(n) if mask >> i & 1)
        if part:
            yield part


def complementary_branches(state: StateVector) -> tuple[int, complex, complex] | None:
    """(p, a, b) when a qubit state is a|p> + b|~p>, else None.

    ``p`` is the branch whose first qubit reads 0; ``~p`` flips every qubit.
    A state with no amplitude off the two branches qualifies at any weights.
    Amplitude off them (an executed schedule's rounding residue) is dropped
    only when ``_near_two_branch`` holds, the bound ``is_ghz_class`` trusts;
    a and b are then the entries p and ~p.
    """
    n = state.layout.n_subsystems
    if state.layout.dims != (2,) * n:
        return None
    amps = state.amplitudes
    support = np.flatnonzero(amps)
    full = 2**n - 1
    p = min(int(support[0]), full ^ int(support[0]))
    if support.size > 2 or any(int(i) not in (p, full ^ p) for i in support):
        if not _near_two_branch(state):
            return None
        p = int(np.argmax(np.abs(amps)))
        p = min(p, full ^ p)
    return p, complex(amps[p]), complex(amps[full ^ p])


def _near_two_branch_bound(state: StateVector) -> float:
    """Bound on how far any cut's Schmidt values lie from the GHZ spectrum.

    With p the largest-modulus entry, a and b the amplitudes of p and ~p and
    r the norm of all other amplitudes, every cut's Schmidt values lie within
    r of (|a|, |b|, 0, ...) (Weyl's inequality; the spectral norm of the
    remainder is at most its Frobenius norm r).  So no cut's value is further
    than max(||a| - 1/sqrt2|, ||b| - 1/sqrt2|) + r from (1/sqrt2, 1/sqrt2, 0, ...).
    """
    amps = state.amplitudes
    p = int(np.argmax(np.abs(amps)))
    q = p ^ (amps.size - 1)
    target = 1 / np.sqrt(2)
    dev = max(abs(abs(amps[p]) - target), abs(abs(amps[q]) - target))
    rest = amps.copy()
    rest[[p, q]] = 0.0
    return float(dev + np.linalg.norm(rest))


def _near_two_branch(state: StateVector) -> bool:
    """True when ``_near_two_branch_bound`` places every cut of a qubit state
    inside ``_GHZ_TOL``, with ``_WEYL_MARGIN`` to spare for SVD rounding."""
    n = state.layout.n_subsystems
    return (
        state.layout.dims == (2,) * n
        and _near_two_branch_bound(state) <= _GHZ_TOL - _WEYL_MARGIN
    )


def is_ghz_class(state: StateVector) -> bool:
    """True when every bipartition has Schmidt spectrum (1/sqrt2, 1/sqrt2).

    The first cut is always checked.  When the state lies so close to some
    a|p> + b|~p> that ``_near_two_branch_bound`` places every cut inside
    ``_GHZ_TOL`` (with ``_WEYL_MARGIN`` to spare for SVD rounding), the
    remaining cuts cannot fail and are skipped; otherwise every cut is checked.
    """
    n = state.layout.n_subsystems
    target = 1 / np.sqrt(2)
    near = _near_two_branch(state)
    for part in bipartitions(n):
        sv = schmidt_spectrum(state, part)
        if abs(sv[0] - target) > _GHZ_TOL or abs(sv[1] - target) > _GHZ_TOL:
            return False
        if sv.size > 2 and np.max(sv[2:]) > _GHZ_TOL:
            return False
        if near:
            return True
    return True


def canonical_ghz(n: int) -> StateVector:
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps, qubits(n))
