"""Command-line interface.

    weightflow <subcommand> --config cfg.ini [--out DIR] [--seed N]

Subcommands run individual pipeline stages (`make-population`,
`canonicalize`, `fit-pca`, `train-flow`, `generate`, `evaluate`, `report`)
or the whole pipeline (`run`). Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import parse_config
from .errors import (ConfigError, IntegrationError, NumericError,
                     TrainingDivergedError, WeightFlowError)
from .pipeline import STAGES, run_pipeline, run_stage

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def exit_code(exc: Exception) -> int:
    """Exit status for an error main catches: config 2, numeric 4, else 3."""
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (NumericError, TrainingDivergedError, IntegrationError)):
        return EXIT_NUMERIC
    return EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightflow",
        description="Weight-space generative modeling pipeline.")
    parser.add_argument("command", choices=sorted(STAGES) + ["run"],
                        help="pipeline stage to execute (or `run` for all)")
    parser.add_argument("--config", required=True, help="run config file")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides [run] out_dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out_dir = args.out or cfg.out_dir
        if args.command == "run":
            print(run_pipeline(cfg, out_dir))
        else:
            print(run_stage(cfg, out_dir, args.command))
        return 0
    except (WeightFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
