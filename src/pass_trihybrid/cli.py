"""Command-line front end.

Subcommands: ``sweep`` (batch evaluation to CSV), ``placement`` (refined PA
coordinate dump), ``bounds`` (analysis-only certificate table), ``selftest``
(runtime invariant suite).  Exit codes: 0 success, 2 configuration error
(an unreadable ``--config``, an unwritable ``--out`` and a run that does not
fit in memory included), 3 infeasible geometry, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import ConfigError, ExperimentConfig, load_config
from .model import FeasibilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SELFTEST = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    sub.add_argument("--seed", type=int, metavar="U64", help="override the RNG seed")
    sub.add_argument("--case", type=int, choices=(1, 2), help="override the loss case")
    sub.add_argument(
        "--mode",
        choices=("single", "multi", "baseline", "all"),
        help="override the evaluated modes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pass-trihybrid",
        description="Tri-hybrid pinching-antenna beamforming simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("sweep", "run the configured parameter sweep and emit CSV"),
        ("placement", "dump refined PA positions and shifts for the configured user"),
        ("bounds", "emit the closed-form bound table for the configured sweep"),
        ("selftest", "run the invariant suite and print pass/fail lines"),
    ):
        _add_common(subs.add_parser(name, help=text))
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.case is not None:
        changes["case"] = args.case
    if args.mode is not None:
        changes["modes"] = ExperimentConfig.modes if args.mode == "all" else (args.mode,)
    return config.replace(**changes) if changes else config


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    ok = True
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "sweep":
            text = experiments.render_sweep_csv(config, experiments.run_sweep(config))
        elif args.command == "placement":
            text = experiments.dump_placement(config)
        elif args.command == "bounds":
            text = experiments.bounds_table(config)
        else:
            ok, lines = experiments.selftest(config)
            text = "\n".join(lines) + "\n"
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FeasibilityError as err:
        print(f"infeasible geometry: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as err:
        print(f"out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _emit(text, args.out)
    except OSError as err:
        print(f"cannot write {args.out or 'stdout'}: {err.strerror or err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if ok else EXIT_SELFTEST


if __name__ == "__main__":
    sys.exit(main())
