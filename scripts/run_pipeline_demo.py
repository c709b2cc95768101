#!/usr/bin/env python3
"""Full chain at several register sizes.

Runs the register-to-polarization pipeline for even dot counts and prints
one line per size: final fidelity, herald probability, photon count.  Use
--kappa to see how storage loss eats into both.
"""
import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entpipe.config import default_config, validate
from entpipe.runner import run_pipeline


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 6, 8])
    ap.add_argument("--kappa", type=float, default=0.0, help="cavity loss rate in Hz")
    ap.add_argument("--p-success", default=None,
                    help="per-dot swap success, a number or 'simulate'")
    args = ap.parse_args()

    base = default_config()
    if args.kappa:
        base = replace(base, storage=replace(base.storage, kappa=args.kappa))
    if args.p_success is not None:
        try:
            p = float(args.p_success)
        except ValueError:
            p = args.p_success
        base = replace(base, swap=replace(base.swap, p_success=p))

    configs = [replace(base, register=replace(base.register, n_dots=n)) for n in args.sizes]
    problems = [q for cfg in configs for q in validate(cfg)]
    if problems:
        print(f"config error: {problems[0]}", file=sys.stderr)
        return 2

    print(f"{'dots':>5} {'photons':>8} {'fidelity':>12} {'herald':>12}")
    for n, cfg in zip(args.sizes, configs):
        if n % 2:
            print(f"{n:>5}  skipped (needs an even dot count)")
            continue
        rep = run_pipeline(cfg).report
        print(f"{n:>5} {rep.stats['polarization_photons']:>8} "
              f"{rep.fidelities['final_polarization']:>12.8f} "
              f"{rep.heralds['total']:>12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
