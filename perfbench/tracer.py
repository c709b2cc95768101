"""In-memory span tracer that wraps entpipe's public functions from outside.

A span is (name, start, end, parent).  Spans are kept in memory and turned
into per-layer numbers when the run ends.  Wrapping happens at every
binding site: each loaded ``entpipe.*`` module whose globals hold the
original function object gets the wrapper instead, so calls through names
imported with ``from ... import`` (runner, cli) and module-global lookups
(``photon_swap.expm_multiply``, ``cat_code.brentq``) are both recorded.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

# (defining module, attribute, span name).  Span names use the module that
# holds the call site when the function comes from a library.
TARGETS = (
    ("entpipe.photon_swap", "sweep_point", "photon_swap.sweep_point"),
    ("entpipe.photon_swap", "propagate_static", "photon_swap.propagate_static"),
    ("entpipe.photon_swap", "expm_multiply", "photon_swap.expm_multiply"),
    ("entpipe.photon_swap", "static_generator", "photon_swap.static_generator"),
    ("entpipe.photon_swap", "closed_form_report", "photon_swap.closed_form_report"),
    ("entpipe.photon_swap", "register_swap", "photon_swap.register_swap"),
    ("entpipe.cat_code", "run_protected", "cat_code.run_protected"),
    ("entpipe.cat_code", "fc_loss_segment", "cat_code.fc_loss_segment"),
    ("entpipe.cat_code", "brentq", "cat_code.brentq"),
    ("entpipe.cat_code", "recovery_matrix", "cat_code.recovery_matrix"),
    ("entpipe.cat_code", "fc_parity_probability", "cat_code.fc_parity_probability"),
    ("entpipe.cat_code", "fc_project_parity", "cat_code.fc_project_parity"),
    ("entpipe.spin_register", "plan_ghz", "spin_register.plan_ghz"),
    ("entpipe.spin_register", "execute", "spin_register.execute"),
    ("entpipe.spin_register", "is_ghz_class", "spin_register.is_ghz_class"),
    ("entpipe.hilbert", "schmidt_spectrum", "hilbert.schmidt_spectrum"),
    ("entpipe.hilbert", "apply_local", "hilbert.apply_local"),
    ("entpipe.polarization", "convert_register", "polarization.convert_register"),
    ("entpipe.runner", "write_stage_result", "runner.write_stage_result"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before``/``after`` record counts.

        The hooks run outside the span, so their cost lands in the caller's
        self time and in the traced-minus-untraced overhead, not in ``name``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def install(self, hooks: dict) -> None:
        """Wrap every target at every binding site in loaded entpipe modules.

        ``hooks`` maps a span name to its (before, after) count recorders.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "entpipe"]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


# ------------------------------------------------------------ span arithmetic

def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def root_time(spans: list) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)


def span_stats(spans: list) -> dict:
    """Per span name: calls, busy_s (inclusive), self_s and latency quantiles."""
    own = self_times(spans)
    grouped: dict = {}
    for s, o in zip(spans, own):
        g = grouped.setdefault(s.name, {"durations": [], "self_s": 0.0})
        g["durations"].append(s.end - s.start)
        g["self_s"] += o
    stats = {}
    for name, g in grouped.items():
        d = sorted(g["durations"])
        stats[name] = {
            "calls": len(d),
            "busy_s": sum(d),
            "self_s": g["self_s"],
            "p50_ms": 1e3 * statistics.median(d),
            "p95_ms": 1e3 * d[math.ceil(0.95 * len(d)) - 1],  # nearest rank
            "max_ms": 1e3 * d[-1],
        }
    return stats
