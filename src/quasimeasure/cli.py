"""Command-line front end: run scenario files and emit reports."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .scenario import bundled_scenario_path, run_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimeasure",
        description="Topological-measure engine: run scenario check suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file (or a bundled name)")
    run.add_argument("scenario",
                     help="path to a scenario JSON file, or the name of a "
                          "bundled scenario (nonlinear_example, measure_baseline)")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="directory for report.json and CSV artifacts")
    run.add_argument("--seed", type=int, default=None, metavar="N",
                     help="override the scenario seed")
    run.add_argument("--resolution", type=int, default=None, metavar="N",
                     help="override the frame resolution (cells per axis)")
    return parser


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    if "/" not in arg and not arg.endswith(".json"):
        return bundled_scenario_path(arg)
    raise ConfigError(f"scenario file not found: {arg}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        path = _resolve_scenario(args.scenario)
        code = run_scenario(path, out_dir=args.out, seed=args.seed,
                            resolution=args.resolution)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if code == EXIT_PASS:
        print("all checks passed")
    else:
        print("some checks failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
