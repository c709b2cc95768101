"""Command line front end.

Exit codes: 0 success, 2 configuration problem (including an unreadable
config file or an unwritable output directory), 3 numerical non-convergence,
4 stage failure.  Flags override environment overrides override the config
file; see ``config.apply_env`` for the recognized EP_* variables.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import apply_env, apply_flags, default_config, load_config
from .errors import ConfigError, ConvergenceError, EntpipeError
from .runner import STAGES, write_stage_result


def build_parser() -> argparse.ArgumentParser:
    """One parser for every stage: they all take the same five flags."""
    lines = ["stages:"]
    for name, run in STAGES.items():
        summary = (run.__doc__ or "").partition("\n")[0]
        lines.append(f"  {name:<10}{summary}")
    parser = argparse.ArgumentParser(
        prog="entpipe",
        description="Quantum-dot entanglement pipeline simulator.",
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=STAGES, metavar="stage", help="one of the stages listed below"
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--seed", type=int, help="base seed override")
    parser.add_argument("--workers", type=int, help="process pool size")
    parser.add_argument("--format", choices=("csv", "json"), help="table format")
    return parser


def _load(args) -> "PipelineConfig":
    cfg = load_config(args.config) if args.config else default_config()
    cfg = apply_env(cfg, os.environ)
    return apply_flags(
        cfg, seed=args.seed, out=args.out, workers=args.workers, fmt=args.format
    )


def _config_error(problems) -> int:
    for problem in problems:
        print(f"config error: {problem}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        return _config_error(exc.problems)

    try:
        result = STAGES[args.command](cfg)
    except ConfigError as exc:
        return _config_error(exc.problems)
    except ConvergenceError as exc:
        print(f"[{args.command}] did not converge: {exc}", file=sys.stderr)
        return 3
    except EntpipeError as exc:
        print(f"[{args.command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    try:
        paths = write_stage_result(result, Path(cfg.run.out_dir), cfg.run.format)
    except OSError as exc:  # --out is, or lies under, a regular file; no permission
        return _config_error([f"cannot write output: {exc}"])
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
