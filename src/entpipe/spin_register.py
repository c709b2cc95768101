"""GHZ-state preparation schedules for an exchange-coupled spin register.

Two native interactions drive everything: an isotropic exchange coupling
J1*(XX+YY+ZZ) on a dot pair and a longitudinal coupling J2*(ZZ).  Single-dot
rotations and Z phase corrections are treated as instantaneous.  A register of
n dots is entangled by preparing Bell pairs in parallel (one ZZ interval),
then absorbing one pair (or the final unpaired dot) at a time into a growing
block; each absorption costs one ZZ interval plus one exchange interval.

The interval lengths, pi/(4 J2) for ZZ and pi/(8 J1) for exchange, are
written once, in ``interval``; every coupling step is built by
``_coupling`` from it.  The plan's wall clock is written once too, in closed
form, by ``ghz_timing``, which ``plan_ghz`` returns and ``config.validate``
reads to refuse couplings whose intervals or total time leave float range.
The tests recount each plan's layers against it.

``execute`` walks the schedule once and cuts it into groups: maximal runs of
consecutive steps that together touch at most three dots (a step that
touches no dot, a global phase, joins the current group; ``Schedule``
refuses a step on more than three dots).  Each group is composed into one
gate on its dots and applied to the register with one ``apply_local`` call.
The group gate is built from the steps relabelled to positions 0..k-1
within the group, so groups that differ only in which dots they touch
share one gate: a 10-dot plan applies 9 group gates (five Bell pairs, four
absorptions) and builds 3 distinct ones.
Group gates sit in a bounded memo as read-only arrays; it is the module's
only memo.  The coupling unitaries inside them are written in closed form
from theta = strength * duration (the ZZ gate is diagonal, and
XX + YY + ZZ = 2 SWAP - 1 with SWAP^2 = 1).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import LayoutError, NotGhzClassError, ScheduleError
from .hilbert import (
    StateVector,
    TwoBranch,
    apply_local,
    apply_on_axes,
    qubits,
    read_only,
    schmidt_spectrum,
)

_ALLOWED_PULSE_ANGLES = (pi / 2, pi)

# Most dots one step, or a group of steps, may touch; a 3-dot group gate is 8x8.
_GROUP_DOTS = 3

# ZZ is diag(1, -1, -1, 1); SWAP exchanges the two dots' states.
_ZZ_DIAG = np.array([1.0, -1.0, -1.0, 1.0])
_EYE4 = np.eye(4)
_SWAP = np.eye(4)[[0, 2, 1, 3]]

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
    strength: float  # angular rate in Hz; one interval lasts ``interval(kind, strength)``
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
            dots = _step_dots(st)
            if len(dots) > _GROUP_DOTS:
                raise ScheduleError(f"step touches {len(dots)} dots; at most {_GROUP_DOTS}")
            for dot in dots:
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


def interval(kind: str, strength: float) -> float:
    """Length of one coupling interval: the ZZ phase reaches pi/4, the
    exchange phase pi/8 (theta = strength * duration)."""
    if kind == "ising":
        return pi / (4 * strength)
    return pi / (8 * strength)


def ghz_timing(n: int, j1: float, j2: float) -> TimingReport:
    """Closed-form wall clock of ``plan_ghz``'s n-dot schedule.

    One ZZ layer prepares every Bell pair and each of the (n - 1) // 2
    absorptions adds one ZZ and one exchange layer.  A 2-dot plan has no
    exchange layer; its report still carries the exchange interval length.
    """
    return TimingReport(
        t_ising_steps=(n + 1) // 2,
        t_heisenberg_steps=(n - 1) // 2,
        ising_interval=interval("ising", j2),
        heisenberg_interval=interval("heisenberg", j1),
    )


def plus_register(n: int) -> StateVector:
    """|+>^n, the idle register configuration."""
    layout = qubits(n)
    amps = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
    return StateVector(amps, layout)


def _coupling(layer: int, kind: str, strength: float, pair: tuple[int, int]) -> ScheduleStep:
    """One coupling interval of ``kind`` on ``pair``."""
    return ScheduleStep(
        layer, coupling=CouplingSpec(kind, strength, pair), duration=interval(kind, strength)
    )


def _bell_steps(j2: float, pair: tuple[int, int]) -> list[ScheduleStep]:
    """Steps preparing (|00>+|11>)/sqrt(2) on ``pair`` from |+>|+>.

    One ZZ interval followed by a pi/2 rotation on the second dot of the
    pair.  The interval and pulse leave a known overall phase of -pi/4; a
    trailing phase step folds it away so later amplitude bookkeeping stays
    exact.
    """
    return [
        _coupling(0, "ising", j2, pair),
        ScheduleStep(0, pulse=PulseSpec(target=pair[1], angle=pi / 2, axis_phase=0.0)),
        ScheduleStep(0, pulse=PulseSpec(z_corrections={}, global_phase=pi / 4)),
    ]


def _contact_steps(contact_a: int, dot: int, j2: float, layer: int) -> list[ScheduleStep]:
    """ZZ interval on the contacts, then a -pi/2 phase correction on both."""
    return [
        _coupling(layer, "ising", j2, (contact_a, dot)),
        ScheduleStep(
            layer,
            pulse=PulseSpec(z_corrections={contact_a: -pi / 2, dot: -pi / 2}, global_phase=pi / 4),
        ),
    ]


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
        *_contact_steps(contact_a, contact_b, j2, layer),
        ScheduleStep(layer, pulse=PulseSpec(target=partner, angle=pi, axis_phase=MERGE_AXIS_PHASE)),
        _coupling(layer + 1, "heisenberg", j1, (contact_b, partner)),
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
        *_contact_steps(contact_a, lone, j2, layer),
        ScheduleStep(layer, pulse=PulseSpec(target=lone, angle=pi / 2, axis_phase=-pi / 2)),
        ScheduleStep(layer, pulse=PulseSpec(z_corrections={lone: pi})),
        _coupling(layer + 1, "heisenberg", j1, (contact_a, lone)),
    ]


def plan_ghz(
    n: int, j1: float, j2: float, *, canonical: bool = True
) -> tuple[Schedule, TimingReport]:
    """Plan a GHZ schedule for n dots, pairing left to right.

    Pairs (0,1), (2,3), ... are Bell-prepared concurrently in the first
    interval, then absorbed into the block anchored at dot 0 one at a time:
    the pair starting at dot 2, 4, ..., and last the unpaired dot of an odd
    register.  With ``canonical`` the executed schedule ends at
    (|0..0>+|1..1>)/sqrt(2) exactly; without it the last absorption is left
    raw (one flipped dot and a branch phase), which is what the
    local-correction search is for.
    """
    if n < 2:
        raise ScheduleError("register needs at least two dots")
    if j1 <= 0 or j2 <= 0:
        raise ScheduleError("coupling strengths must be positive")
    steps: list[ScheduleStep] = []
    for a in range(0, n - 1, 2):
        steps.extend(_bell_steps(j2, (a, a + 1)))
    layer = 1
    phase_acc = 0.0
    for dot in range(2, n, 2):
        if dot + 1 < n:
            steps.extend(_merge_pair_steps(0, dot, j1, j2, layer, canonical or dot + 2 < n))
            phase_acc += _PAIR_ABSORB_PHASE
        else:
            steps.extend(_attach_single_steps(0, dot, j1, j2, layer))
            phase_acc += _SINGLE_ABSORB_PHASE
        layer += 2
    if canonical and n > 2:
        steps.append(
            ScheduleStep(layer - 1, pulse=PulseSpec(z_corrections={}, global_phase=-phase_acc))
        )
    return Schedule(steps, n), ghz_timing(n, j1, j2)


def execute(schedule: Schedule) -> StateVector:
    """Run a schedule from |+>^n, exactly, one group gate per step group."""
    state = plus_register(schedule.n_dots)
    for dots, steps in _step_groups(schedule.steps):
        pos = {dot: i for i, dot in enumerate(dots)}
        key = tuple(_step_key(st, pos) for st in steps)
        state = apply_local(state, _group_gate(key, len(dots)), dots)
    return state


def _step_groups(steps):
    """Yield (dots, steps) per group: maximal runs of consecutive steps whose
    dots together number at most ``_GROUP_DOTS``, in schedule order.

    ``dots`` lists the group's dots in order of first touch.  A step that
    touches no dot joins the current group; ``Schedule`` refuses a step on
    more dots than ``_GROUP_DOTS``.
    """
    dots: list[int] = []
    run: list[ScheduleStep] = []
    for st in steps:
        step_dots = _step_dots(st)
        union = dots + [d for d in step_dots if d not in dots]
        if len(union) > _GROUP_DOTS:
            yield tuple(dots), run
            dots, run = list(step_dots), []
        else:
            dots = union
        run.append(st)
    if run:
        yield tuple(dots), run


def _step_key(st: ScheduleStep, pos: dict[int, int]) -> tuple:
    """A step as a hashable tuple, its dots relabelled to group positions."""
    if st.coupling is not None:
        c = st.coupling
        return (c.kind, (pos[c.pair[0]], pos[c.pair[1]]), c.strength, st.duration)
    p = st.pulse
    if p.z_corrections is None:
        return ("pulse", (pos[p.target],), p.angle, p.axis_phase)
    z_angles = tuple(sorted((pos[dot], phi) for dot, phi in p.z_corrections.items()))
    return ("z", z_angles, p.global_phase)


@functools.lru_cache(maxsize=32)
def _group_gate(key: tuple, k: int) -> np.ndarray:
    """The 2^k-square unitary of a group's steps (``_step_key`` tuples, in
    schedule order) on group positions 0..k-1, memoised read-only.

    The gate is built as a tensor with one axis per dot and a trailing
    column axis, and each step multiplies it from the left on its dots.
    """
    gate = np.eye(2**k, dtype=np.complex128).reshape((2,) * k + (2**k,))
    for step in key:
        kind = step[0]
        if kind == "z":
            _, z_angles, global_phase = step
            gate *= np.exp(1j * global_phase)
            for i, phi in z_angles:
                gate = apply_on_axes(gate, np.diag([1.0, np.exp(1j * phi)]), (i,))
        elif kind == "pulse":
            _, sites, angle, axis_phase = step
            gate = apply_on_axes(gate, rotation(angle, axis_phase), sites)
        else:
            _, sites, strength, duration = step
            gate = apply_on_axes(gate, _coupling_gate(kind, strength, duration), sites)
    return read_only(gate.reshape(2**k, 2**k))


def _coupling_gate(kind: str, strength: float, duration: float) -> np.ndarray:
    """exp(-i*duration*generator) of a coupling interval.

    With theta = strength * duration: exp(-i theta ZZ) is
    diag(e^{-i theta}, e^{i theta}, e^{i theta}, e^{-i theta}), and since
    XX + YY + ZZ = 2 SWAP - 1, exp(-i theta (XX + YY + ZZ)) is
    e^{i theta} (cos 2theta - i sin 2theta SWAP).
    """
    theta = strength * duration
    if kind == "ising":
        return np.diag(np.exp(-1j * theta * _ZZ_DIAG))
    exchange = np.cos(2 * theta) * _EYE4 - 1j * np.sin(2 * theta) * _SWAP
    return np.exp(1j * theta) * exchange


def bipartitions(n: int):
    """All bipartitions of n subsystems, one representative per complement pair."""
    for mask in range(2, 2**n, 2):  # even masks never contain dot 0
        part = tuple(i for i in range(n) if mask >> i & 1)
        if part:
            yield part


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


def is_ghz_class(state: StateVector) -> bool:
    """True when every bipartition has Schmidt spectrum (1/sqrt2, 1/sqrt2).

    The first cut is always checked.  When the state lies so close to some
    a|p> + b|~p> that ``_near_two_branch_bound`` places every cut inside
    ``_GHZ_TOL`` (with ``_WEYL_MARGIN`` to spare for SVD rounding), the
    remaining cuts cannot fail and are skipped; otherwise every cut is checked.
    """
    n = state.layout.n_subsystems
    target = 1 / np.sqrt(2)
    near = (
        state.layout.dims == (2,) * n
        and _near_two_branch_bound(state) <= _GHZ_TOL - _WEYL_MARGIN
    )
    for part in bipartitions(n):
        sv = schmidt_spectrum(state, part)
        if abs(sv[0] - target) > _GHZ_TOL or abs(sv[1] - target) > _GHZ_TOL:
            return False
        if sv.size > 2 and np.max(sv[2:]) > _GHZ_TOL:
            return False
        if near:
            return True
    return True


def ghz_branches(state: StateVector) -> TwoBranch:
    """The executed register as a|p> + b|~p>, after the GHZ-class checks.

    ``p`` is the largest-modulus entry or its complement, whichever is
    lower (its first qubit reads 0), and a and b are the entries p and ~p.
    A non-qubit layout raises LayoutError.  Amplitude off p and ~p (an
    executed schedule's rounding residue) is dropped only when
    ``_near_two_branch_bound`` places every cut inside ``_GHZ_TOL``, the
    bound ``is_ghz_class`` trusts; otherwise the state is not two
    complementary branches and raises NotGhzClassError.  So does one that
    fails ``is_ghz_class`` (n > 1), such as an unbalanced pair.
    """
    n = state.layout.n_subsystems
    if state.layout.dims != (2,) * n:
        raise LayoutError("register must be a qubit register")
    amps = state.amplitudes
    full = 2**n - 1
    p = int(np.argmax(np.abs(amps)))
    p = min(p, full ^ p)
    on_branches = np.count_nonzero(amps) == np.count_nonzero(amps[[p, full ^ p]])
    if not on_branches and _near_two_branch_bound(state) > _GHZ_TOL - _WEYL_MARGIN:
        raise NotGhzClassError("register is not two complementary computational branches")
    if n > 1 and not is_ghz_class(state):
        raise NotGhzClassError("register state is not GHZ-class")
    return TwoBranch(n, p, amps[p], amps[full ^ p])
