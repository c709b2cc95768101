#!/usr/bin/env python3
"""Correction gain versus integrated loss.

For each loss strength kappa*t the script runs paired corrected and
uncorrected trajectories on a three-cavity chain (shared seeds, so the
comparison is variance-reduced) and writes one CSV row with the means,
the gain, and its significance.
"""
import argparse
import csv
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from entpipe.cat_code import CavitySpec, run_protected
from entpipe.runner import derive_seed


def study_point(kappa_t: float, pairs: int, base_seed: int,
                alpha: float, n_max: int, cavities: int) -> dict:
    duration, tau = 4.0e-6, 1.0e-6
    spec = CavitySpec(alpha=alpha, n_max=n_max, kappa=kappa_t / duration)
    cor = np.empty(pairs)
    unc = np.empty(pairs)
    for i in range(pairs):
        seed = derive_seed(base_seed, i)
        cor[i] = run_protected(spec, cavities, duration, tau, seed, correct=True).final_logical_fidelity
        unc[i] = run_protected(spec, cavities, duration, tau, seed, correct=False).final_logical_fidelity
    diff = cor - unc
    sem = float(np.std(diff, ddof=1) / math.sqrt(pairs))
    gain = float(np.mean(diff))
    return {
        "kappa_t": kappa_t,
        "corrected_mean": float(np.mean(cor)),
        "uncorrected_mean": float(np.mean(unc)),
        "gain": gain,
        "gain_sigma": gain / sem if sem > 0 else float("inf"),
        "pairs": pairs,
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

    bad_kt = [kt for kt in args.kappa_t if not (math.isfinite(kt) and kt >= 0)]
    if bad_kt or args.pairs < 2:
        problem = (f"--kappa-t must be finite and >= 0, got {bad_kt[0]}" if bad_kt
                   else f"--pairs must be at least 2 for a significance, got {args.pairs}")
        print(f"config error: {problem}", file=sys.stderr)
        return 2

    rows = []
    for kt in args.kappa_t:
        row = study_point(kt, args.pairs, args.seed, args.alpha, args.n_max,
                          args.cavities)
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
