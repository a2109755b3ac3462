"""Command-line entry point.

    tacsim <command> [--config FILE] [--out DIR] [--seed N] [--set SEC.KEY=VALUE]...

The command word comes first.  Each option takes one value, as ``--opt value``
or ``--opt=value``; ``--set`` may be repeated, and an option is known only by
its full name.  ``-h``/``--help`` prints the usage.

Exit codes: 0 success, 2 usage error, configuration problem or unwritable
output, 1 runtime failure.
"""

import gc
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
DUMP = "default-config"  # prints the built-in defaults; takes only a hidden --out

USAGE = "usage: tacsim <command> [--config FILE] [--out DIR] [--seed N] [--set SEC.KEY=VALUE]..."

# every study command takes each of these: option -> (value name, help)
OPTIONS = {
    "--config": ("FILE", "INI config file overlaying the defaults"),
    "--out": ("DIR", "output directory (default: ./out)"),
    "--seed": ("N", "override the RNG seed"),
    "--set": ("SEC.KEY=VALUE", "override one config value (repeatable)"),
}
HELP_FLAGS = ("-h", "--help")


class _UsageError(Exception):
    """A command line outside the grammar."""


def _help() -> str:
    commands = {name: f"run the {name} study" for name in COMMANDS}
    commands[DUMP] = "print the built-in defaults and exit"
    options = {f"{opt} {value}": text for opt, (value, text) in OPTIONS.items()}
    options[", ".join(HELP_FLAGS)] = "show this help and exit"
    return "\n".join(
        [USAGE, "", "Tactile fingertip sensor twin: simulation and analysis studies.", "", "commands:"]
        + [f"  {name:<16}{text}" for name, text in commands.items()]
        + ["", "options:"]
        + [f"  {name:<22}{text}" for name, text in options.items()]
    ) + "\n"


def _parse(argv):
    """``(command, values)`` for one command line; the command is None when help is asked for."""
    if not argv:
        raise _UsageError("a command is required")
    command = argv[0]
    if command in HELP_FLAGS:
        return None, {}
    if command not in COMMANDS and command != DUMP:
        raise _UsageError(f"unknown command {command!r} (choose from {', '.join([*COMMANDS, DUMP])})")
    known = ("--out",) if command == DUMP else OPTIONS
    values = {"config": None, "out": "out", "seed": None, "set": []}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP_FLAGS:
            return None, values
        name, eq, value = token.partition("=")
        if name not in known:
            raise _UsageError(f"unrecognized argument {token!r}")
        if not eq:
            value = next(tokens, None)
            # a token that names an option is not a value; -1 and -.5 are values
            if value is None or value[:1] == "-" and value[1:2] not in "0123456789.":
                raise _UsageError(f"{name} expects a value")
        if name == "--set":
            values["set"].append(value)
        elif name == "--seed":
            try:
                values["seed"] = int(value)
            except ValueError:
                raise _UsageError(f"--seed expects an integer, got {value!r}") from None
        else:
            values[name[2:]] = value
    return command, values


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"{USAGE}\ntacsim: error: {exc}", file=sys.stderr)
        return 2
    if command is None:
        print(_help(), end="")
        return 0
    if command == DUMP:
        print(dump_default_config(), end="")
        return 0
    out = args["out"]
    try:
        cfg = load_config(args["config"], args["set"], seed=args["seed"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(out)
    try:
        made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # what mkdir makes, leaf first
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create directory {out}: {exc.strerror}", file=sys.stderr)
        return 2
    gc.freeze()  # what the imports made outlives the study: no collection inside it walks those objects
    result = None
    try:
        result = COMMANDS[command](cfg, out)
    except TacsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: cannot write {exc.filename or out}: {exc.strerror}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()
        if result is None:  # the study failed: remove the directories made for it, while empty
            for path in made:
                try:
                    path.rmdir()
                except OSError:  # not empty: keep it and those above it
                    break
    for path in getattr(result, "out_files", []):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
