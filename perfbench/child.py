"""One workload run in a fresh process; writes its measurements as JSON.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --work DIR --result FILE

Run from the root of an entpipe checkout by ``run.py``, which sets the
environment (BLAS threads, PYTHONPATH=src, no EP_* variables) and writes
config.json next to DIR.  Timed regions: set-up (import entpipe, parse and
validate the config) and wall (entry to return of every ``cli.main`` call).
The reference task (no entpipe code, so no span covers it) is timed after
set-up and after every ``calls_per_ref`` calls, outside the wall.  Checks,
digests and trace bookkeeping run after the timed regions.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, root_time, self_times, span_stats
from workloads import PER_LAYER, WORKLOADS, artifact_digest, at_reference_speed, reference_task


def trace_hooks() -> dict:
    """Counts recorded at span boundaries, outside the spans' own time."""

    def grid_points(tr, args):
        tr.count("grid_points", args[2].n_k)

    def krylov_work(tr, args):
        a = args[0]
        tr.count("krylov_work", a.nnz * float(abs(a).sum(axis=0).max()))

    def alphas(tr, args):
        tr.distinct.setdefault("recovery_alpha", set()).add(complex(args[1]))

    def jumps(tr, result):
        tr.count("jumps", sum(result.record.jump_counts))

    return {
        "photon_swap.propagate_static": (grid_points, None),
        "photon_swap.expm_multiply": (krylov_work, None),
        "cat_code.recovery_matrix": (alphas, None),
        "cat_code.run_protected": (None, jumps),
    }


def layer_metrics(tracer, wall: float, setup: dict, artifact_bytes: int, ref_err: float) -> dict:
    """Per-layer figures of one traced run (``trace.overhead_frac`` is added by run.py)."""
    stats = span_stats(tracer.spans)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
    points = stats.get("photon_swap.sweep_point", zero)["calls"]
    rec_calls = stats.get("cat_code.recovery_matrix", zero)["calls"]
    special = {
        "photon_swap.attempts_per_point": (
            stats.get("photon_swap.propagate_static", zero)["calls"] / points if points else 0.0
        ),
        "photon_swap.grid_points": tracer.counters.get("grid_points", 0),
        "photon_swap.krylov_work": tracer.counters.get("krylov_work", 0.0),
        "photon_swap.ref_err": ref_err,
        "cat_code.recovery_matrix.distinct_frac": (
            len(tracer.distinct.get("recovery_alpha", ())) / rec_calls if rec_calls else 0.0
        ),
        "cat_code.jumps": tracer.counters.get("jumps", 0),
        "runner.artifact_bytes": artifact_bytes,
        "setup.import_s": setup["import_s"],
        "setup.config_s": setup["config_s"],
        "trace.wall_s": wall,
        "trace.span_self_s": sum(self_times(tracer.spans)),
        "trace.other_self_s": wall - root_time(tracer.spans),
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name != "trace.overhead_frac":
            span, stat = name.rsplit(".", 1)
            out[name] = stats.get(span, zero)[stat]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="run directory, relative to the checkout")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    work = Path(args.work)
    config = work.parent / "config.json"
    wl = WORKLOADS[args.workload]
    root = Path.cwd().resolve()

    t0 = time.perf_counter()
    import entpipe
    import entpipe.cli
    from entpipe.config import apply_env, apply_flags, load_config

    t1 = time.perf_counter()
    if Path(entpipe.__file__).resolve().parent != root / "src" / "entpipe":
        print(f"entpipe imported from {entpipe.__file__}, not this checkout", file=sys.stderr)
        return 2
    # Timed on its own; cli.main parses the file again, as each invocation would.
    apply_flags(apply_env(load_config(config), os.environ),
                seed=args.seed, out=(work / "out").as_posix(), workers=1)
    t2 = time.perf_counter()
    setup = {"import_s": t1 - t0, "config_s": t2 - t1}
    refs = [reference_task()]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(trace_hooks())

    problems = []
    out_dirs = []
    wall = stretch = 0.0
    pieces = []  # (seconds, reference seconds) per stretch between reference timings
    sink = io.StringIO()
    seeds = wl.seeds(args.seed)
    for i, seed in enumerate(seeds):
        out = work / "out" / str(i)
        out_dirs.append(out)
        argv = [wl.command, "--config", config.as_posix(), "--out", out.as_posix(),
                "--workers", "1", "--seed", str(seed)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = entpipe.cli.main(argv)
        except Exception:  # a raising stage is a failed run, not a crash
            traceback.print_exc()
            rc = "exception"
        stretch += time.perf_counter() - start
        if rc != 0:
            problems.append(f"cli.main({' '.join(argv)}) returned {rc}")
        if (i + 1) % wl.calls_per_ref == 0 or i + 1 == len(seeds):
            refs.append(reference_task())
            pieces.append((stretch, (refs[-2] + refs[-1]) / 2))
            wall += stretch
            stretch = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units, extra = 0, {}
    if not problems:
        try:
            problems, units, extra = wl.check(out_dirs)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"artifacts unreadable: {exc!r}")
    digest, nbytes = artifact_digest(out_dirs)

    import numpy
    import scipy

    result = {
        "ok": not problems,
        "problems": problems,
        "wall_s": wall,
        "units": units,
        "setup_s": setup["import_s"] + setup["config_s"],
        "setup": setup,
        "ref_s": refs,
        "at_ref_speed": {
            "wall_s": at_reference_speed(pieces),
            "setup_s": at_reference_speed([(setup["import_s"] + setup["config_s"], refs[0])]),
        },
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "artifact_bytes": nbytes,
        "extra": extra,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        if wl.name == "storage" and extra.get("jumps") != tracer.counters.get("jumps"):
            problems.append("jump count at run_protected differs from the artifacts")
        result["layers"] = layer_metrics(tracer, wall, setup, nbytes, extra.get("ref_err", 0.0))
        result["ok"] = not problems
    Path(args.result).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
