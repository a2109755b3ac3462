"""Command-line entry point.

    tacsim <command> [--config FILE] [--out DIR] [--seed N] [--set sec.key=v]...

Exit codes: 0 success, 2 configuration problem or unwritable output, 1 runtime failure.
"""

import argparse
import functools
import sys
from pathlib import Path

from .config import dump_default_config, load_config
from .errors import ConfigError, TacsimError
from . import experiments

COMMANDS = {
    "characterize": experiments.run_characterize,
    "calibrate": experiments.run_calibrate,
    "disturbance": experiments.run_disturbance,
    "snr-sweep": experiments.run_snr_sweep,
    "grasp": experiments.run_grasp,
    "stream": experiments.run_stream,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="tacsim",
        description="Tactile fingertip sensor twin: simulation and analysis studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", default=None, help="INI config file overlaying the defaults")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SEC.KEY=VALUE",
            help="override one config value (repeatable)",
        )
    dump = sub.add_parser("default-config", help="print the built-in defaults and exit")
    dump.add_argument("--out", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "default-config":
        print(dump_default_config(), end="")
        return 0
    try:
        cfg = load_config(args.config, args.overrides, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create directory {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        result = COMMANDS[args.command](cfg, args.out)
    except TacsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: cannot write {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    for path in getattr(result, "out_files", []):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
