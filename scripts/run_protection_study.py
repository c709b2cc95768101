#!/usr/bin/env python3
"""Correction gain versus integrated loss.

For each loss strength kappa*t the script runs the ``protect`` stage:
paired corrected and uncorrected trajectories on a chain of three cavities
by default (shared seeds, so the comparison is variance-reduced), and
writes one CSV row with the means, the gain, and its significance.  Every
point's config passes ``config.validate`` before anything is computed.
"""
import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entpipe.config import PipelineConfig, default_config, validate
from entpipe.runner import run_protect


def study_config(kappa_t: float, pairs: int, base_seed: int,
                 alpha: float, n_max: int, cavities: int) -> PipelineConfig:
    """The ``protect`` stage's config for one loss strength: k cavities
    hold a (k + 1)-dot register, and kappa spreads kappa_t over the rounds."""
    cfg = default_config()
    st = cfg.storage
    return replace(
        cfg,
        register=replace(cfg.register, n_dots=cavities + 1),
        storage=replace(st, alpha=alpha, n_max=n_max, trajectories=pairs,
                        kappa=kappa_t / (st.rounds * st.tau_syn)),
        run=replace(cfg.run, base_seed=base_seed),
    )


def study_point(kappa_t: float, cfg: PipelineConfig) -> dict:
    report = run_protect(cfg).report
    return {
        "kappa_t": kappa_t,
        "corrected_mean": report.fidelities["corrected_mean"],
        "uncorrected_mean": report.fidelities["uncorrected_mean"],
        "gain": report.stats["gain"],
        "gain_sigma": report.stats["gain_sigma"],
        "pairs": report.stats["trajectories"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=500)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--n-max", type=int, default=31)
    ap.add_argument("--cavities", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1234567)
    ap.add_argument("--kappa-t", type=float, nargs="+",
                    default=[0.025, 0.05, 0.1, 0.2, 0.4])
    ap.add_argument("--out", default="runs/protection_study.csv")
    args = ap.parse_args()

    problems = [f"--kappa-t must be finite and >= 0, got {kt}"
                for kt in args.kappa_t if not (math.isfinite(kt) and kt >= 0)]
    if args.pairs < 2:
        problems.append(f"--pairs must be at least 2 for a significance, got {args.pairs}")
    configs = [study_config(kt, args.pairs, args.seed, args.alpha, args.n_max,
                            args.cavities) for kt in args.kappa_t]
    problems += [q for cfg in configs for q in validate(cfg)]
    if problems:
        print(f"config error: {problems[0]}", file=sys.stderr)
        return 2

    rows = []
    for kt, cfg in zip(args.kappa_t, configs):
        row = study_point(kt, cfg)
        rows.append(row)
        print(f"kappa_t={kt:<6g} corrected={row['corrected_mean']:.4f} "
              f"uncorrected={row['uncorrected_mean']:.4f} "
              f"gain={row['gain']:.4f} ({row['gain_sigma']:.1f} sigma)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
