#!/usr/bin/env python3
"""Map the long-time conversion probability over a (bandwidth, rate) box.

Writes the surface as CSV and prints the maximum plus the closed-form
comparison at the fixed reference point d = gamma = 1, t = 6: the grid
reference's P, the printed closed form with its decay factor restored (the
continuum form), and their gap, the grid reference's window bias.  All
quantities here are dimensionless; the defaults reproduce the standard
20x20 box over [0.1, 10]^2, which is one closed-form pass in one process.
"""
import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace

from entpipe.config import default_config, validate
from entpipe.runner import run_sweep, write_stage_result


def _output_problems(out: Path) -> list[str]:
    """Why ``out`` cannot take the results; checked before the sweep runs."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out is, or lies under, a regular file
        return [f"cannot write output: {exc}"]
    if not os.access(out, os.W_OK | os.X_OK):
        return [f"cannot write output: {out} is not writable"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=20, help="points per axis")
    ap.add_argument("--d-min", type=float, default=0.1)
    ap.add_argument("--d-max", type=float, default=10.0)
    ap.add_argument("--gamma-min", type=float, default=0.1)
    ap.add_argument("--gamma-max", type=float, default=10.0)
    ap.add_argument("--out", default="runs/surface")
    args = ap.parse_args()

    cfg = default_config()
    cfg = replace(
        cfg,
        sweep=replace(
            cfg.sweep,
            d_min=args.d_min, d_max=args.d_max,
            gamma_min=args.gamma_min, gamma_max=args.gamma_max,
            points_per_axis=args.points,
        ),
        run=replace(cfg.run, out_dir=args.out),
    )
    problems = validate(cfg) or _output_problems(Path(args.out))
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    result = run_sweep(cfg)
    paths = write_stage_result(result, Path(args.out), cfg.run.format)
    for p in paths:
        print(p)
    rep = result.report
    print(f"surface max: {rep.heralds['surface_max']:.6f} ({rep.stats['points']} points)")
    d = rep.discrepancy
    print(f"closed form at d = gamma = 1, t = 6: p_ode={d['p_ode']:.6f} "
          f"p_closed={d['p_closed']:.6f} window bias={d['abs_diff']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
