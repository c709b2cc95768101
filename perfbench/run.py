"""entpipe benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload surface|storage|chain --seed N \
        --seconds S --trace 0|1

Run from the root of an entpipe checkout.  Each workload run is a fresh
``child.py`` process, one at a time, calling ``entpipe.cli.main`` with
``--workers 1``, BLAS/OpenMP pinned to one thread and no EP_* variables,
so no in-process cache carries over between runs.  Times are scaled to
the reference speed (``workloads.REF_S``); the report keeps the raw ones.
Runs repeat, all with the same seed, for about S seconds.  ``--trace 0``
reports the end-to-end metrics as medians over the runs; ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics.
The last line of standard output is the result; the line before it is the
full report (environment, sample counts, digest, correctness figures).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, EXACT, PER_LAYER, WORKLOADS

HARD_LIMIT_S = 170.0  # every run, started or not, ends before this
MIN_RUNS = 3
WORK_DIR = ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root: Path) -> dict:
    """No EP_* overrides, one BLAS thread, entpipe from this checkout's src/.

    Bytecode caching stays on even where the caller's environment turns it
    off, so set-up time means the same on every machine: the first run in a
    checkout compiles, later runs load the cached bytecode.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EP_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(root: Path, args, traced: bool, index: int, timeout: float) -> dict:
    """One workload run.  Paths are relative to the checkout and the same for
    every run, because the reports echo the output directory."""
    run_dir = Path(WORK_DIR) / "run"
    shutil.rmtree(root / run_dir, ignore_errors=True)
    result = root / WORK_DIR / f"result_{index}.json"
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work", run_dir.as_posix(), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stderr, code = f"timed out after {exc.timeout:.0f} s", "timeout"
    shutil.rmtree(root / run_dir, ignore_errors=True)
    if code == 0 and result.is_file():
        res = json.loads(result.read_text(encoding="utf-8"))
    else:
        res = {"ok": False, "problems": [f"child exited with {code}"]}
    if stderr.strip():
        print(stderr.strip()[-4000:], file=sys.stderr)
    res["traced"] = traced
    return res


def median_of(runs: list, key) -> float:
    return statistics.median(key(r) for r in runs)


def end_to_end(runs: list) -> dict:
    """The end-to-end metrics: medians over untraced runs, times at the
    reference speed."""
    return {
        "wall_s": median_of(runs, lambda r: r["at_ref_speed"]["wall_s"]),
        "units_per_s": median_of(runs, lambda r: r["units"] / r["at_ref_speed"]["wall_s"]),
        "setup_s": median_of(runs, lambda r: r["at_ref_speed"]["setup_s"]),
        "peak_rss_mb": median_of(runs, lambda r: r["peak_rss_mb"]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "entpipe" / "cli.py").is_file():
        print(f"no entpipe sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / "config.json").write_text(json.dumps(wl.config, sort_keys=True), encoding="utf-8")

    # Runs repeat until the next one would end more than half a run past
    # the window, so an invocation lasts about --seconds whatever the run
    # length; at least MIN_RUNS runs give each median a middle.
    start = time.perf_counter()
    runs, durations = [], []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        t = time.perf_counter()
        runs.append(run_child(root, args, traced, len(runs),
                              HARD_LIMIT_S - (t - start)))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed + statistics.median(durations) / 2 > args.seconds:
            break
        if elapsed + 1.5 * max(durations) > HARD_LIMIT_S:
            break
    shutil.rmtree(work, ignore_errors=True)

    measured = [r for r in runs if "wall_s" in r]
    if not measured:
        print("no run produced a result", file=sys.stderr)
        return 1
    failed = sum(1 for r in runs if not r["ok"])
    digests = sorted({r["digest"] for r in measured})
    problems = [p for r in runs for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"artifact digests differ between runs of one seed: {digests}")
    good = [r for r in measured if r["ok"]] or measured
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    if args.trace:
        # Timing figures come from one traced run, the one with the median
        # wall time, so that span self times plus trace.other_self_s add up
        # to its trace.wall_s exactly.
        layers = {name: 0.0 for name in PER_LAYER}
        if traced:
            ranked = sorted(traced, key=lambda r: r["wall_s"])
            layers.update(ranked[(len(ranked) - 1) // 2]["layers"])
            for name in EXACT:
                seen = {r["layers"][name] for r in traced}
                if len(seen) > 1:
                    problems.append(f"{name} differs between traced runs: {sorted(seen)}")
            if plain:
                def wall(r):
                    return r["at_ref_speed"]["wall_s"]
                base = median_of(plain, wall)
                layers["trace.overhead_frac"] = (median_of(traced, wall) - base) / base
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        samples = {"traced_runs": len(traced), "untraced_runs": len(plain)}
    else:
        values = end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        samples = {"runs_per_median": len(plain)}

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(runs),
        "samples": samples,
        "failed_frac": failed / len(runs),
        "run_walls_s": [round(r["wall_s"], 4) for r in measured],
        "run_ref_s": [[round(t, 4) for t in r["ref_s"]] for r in measured],
        "unscaled_medians_s": {key: median_of(measured, lambda r: r[key])
                               for key in ("wall_s", "setup_s")},
        "digest": digests[0] if len(digests) == 1 else digests,
        "figures": measured[0].get("extra", {}),
        "problems": problems,
        "environment": {
            **measured[0]["versions"],
            "nproc": os.cpu_count(),
            "blas_threads": 1,
            "workers": 1,
            "git_commit": git_commit(root),
        },
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
