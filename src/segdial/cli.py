"""Command-line front end.

Exit codes: 0 success, 1 validation failure (bad flags, malformed or
inconsistent inputs), 2 I/O failure. --seed and --jobs resolve as
flag > SEGDIAL_SEED/SEGDIAL_JOBS environment variable > --config JSON file
> built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from pathlib import Path

# Each command is a module of `segdial.commands` that imports the modules it
# runs, and `main` imports only the one it runs, so no command loads a module
# it does not use. Every command counts areas, unions and overlaps from the
# geometry, so neither a command nor `import segdial.cli` loads NumPy.

ENV_PREFIX = "SEGDIAL_"
MAX_JOBS = 64  # --jobs sizes the curate thread pool; more threads than this only add contention


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag problems are validation
        raise CliUsageError(f"{self.prog}: error: {message}")


def _common_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="shuffle seed of split (default 0)")
    common.add_argument(
        "--jobs", type=int, default=None, help=f"client threads of curate (default 1, at most {MAX_JOBS})"
    )
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    return common


def _resolve_runtime(args) -> tuple[int, int]:
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise CliUsageError(f"{args.config}: config must be a JSON object")

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise CliUsageError(f"{ENV_PREFIX}{key.upper()} must be an integer, got {env!r}")
        if key in cfg:
            value = cfg[key]
            if not isinstance(value, int) or isinstance(value, bool):  # JSON true decodes to an int
                raise CliUsageError(f"config key {key!r} must be an integer")
            return value
        return default

    seed = pick(args.seed, "seed", 0)
    jobs = pick(args.jobs, "jobs", 1)
    if jobs < 1:
        raise CliUsageError("--jobs must be >= 1")
    if jobs > MAX_JOBS:
        raise CliUsageError(f"--jobs must be <= {MAX_JOBS}, got {jobs}")
    return seed, jobs


# target name of each `transform --to` choice
_TRANSFORM_TARGETS = {
    "semseg": "semseg",
    "instseg": "instseg",
    "sid-semseg": "sid_semseg",
    "sid-instseg": "sid_instseg",
    "pure": "pure_text",
}


# --- wiring ----------------------------------------------------------------------


def _add_arguments(p: _Parser, command: str) -> None:
    if command == "curate":
        p.add_argument("--input", type=Path, required=True, help="COCO-style instance JSON")
        p.add_argument("--min-image-side", type=int, default=512)
        p.add_argument("--min-area", type=int, default=400)
        p.add_argument("--task", choices=("instseg", "qa", "caption"), required=True)
        p.add_argument("--client", choices=("none", "fixture", "http"), default="none")
        p.add_argument("--fixture-dir", type=Path, help="directory of {image_id}.txt responses")
        p.add_argument("--endpoint", help="annotator HTTP endpoint")
        p.add_argument("--auth-token-env", help="environment variable holding the bearer token")
        p.add_argument("--image-root", type=Path, help="directory with the image files")
        p.add_argument("--max-retries", type=int, default=2)
        p.add_argument("--out", type=Path, required=True, help="jobs JSONL output")
        p.add_argument("--dropped-out", type=Path, help="dropped report (default <out>.dropped.jsonl)")
    elif command == "parse":
        p.add_argument("--responses", type=Path, required=True, help="directory of {image_id}.txt files")
        p.add_argument("--annotations", type=Path, required=True, help="COCO-style instance JSON")
        p.add_argument("--task", choices=("instseg", "qa", "caption"), required=True)
        p.add_argument("--out", type=Path, required=True, help="records JSONL output")
        p.add_argument("--diagnostics", type=Path, help="diagnostics JSONL (default <out>.diagnostics.jsonl)")
    elif command == "transform":
        p.add_argument("--in", dest="in_path", type=Path, required=True, help="records JSONL input")
        p.add_argument("--to", choices=tuple(_TRANSFORM_TARGETS), required=True)
        p.add_argument("--annotations", type=Path, help="COCO JSON (required for semantic targets)")
        p.add_argument("--out", type=Path, required=True)
        p.add_argument("--merged-out", type=Path, help="merged-annotation JSONL for semantic targets")
    elif command == "match":
        p.add_argument("--preds", type=Path, required=True, help="predictions JSONL")
        p.add_argument("--gt", type=Path, required=True, help="COCO-style instance JSON")
        p.add_argument("--w-iou", type=float, default=1.0)
        p.add_argument("--w-dice", type=float, default=0.0)
        p.add_argument("--out", type=Path, required=True, help="assignments JSONL output")
    elif command == "evaluate":
        p.add_argument("--gt", type=Path, required=True, help="COCO-style instance JSON")
        p.add_argument("--preds", type=Path, required=True, help="predictions JSONL")
        p.add_argument("--mode", choices=("inst", "sem"), required=True)
        p.add_argument("--out", type=Path, help="JSON report output")
    elif command == "report":
        p.add_argument("--in", dest="in_path", type=Path, required=True, help="JSON report")
    else:  # split
        p.add_argument("--in", dest="in_path", type=Path, required=True, help="records JSONL input")
        p.add_argument("--train-out", type=Path, required=True)
        p.add_argument("--eval-out", type=Path, required=True)
        p.add_argument("--eval-fraction", type=float, default=0.1)


# name: help line, in the order help lists them
_COMMANDS = {
    "curate": "filter a dataset and build annotator jobs",
    "parse": "parse annotator responses into records",
    "transform": "re-target records to another task mode",
    "match": "assign predicted masks to ground truth",
    "evaluate": "score predictions against ground truth",
    "report": "render a JSON report as text",
    "split": "seeded train/eval split of a records file",
}


def _run(args) -> int:
    """Run the parsed command: `run(args)` of its module in `segdial.commands`."""
    return import_module(f"segdial.commands.{args.command}").run(args)


def build_parser(command: str | None = None) -> _Parser:
    """The segdial argument parser.

    Every subcommand is registered, so help, usage and errors read the same
    whatever runs, but only `command` (every subcommand when None) gets its
    arguments: a run builds the one subparser it uses.
    """
    parser = _Parser(prog="segdial", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    common = _common_parser()
    for name, help_line in _COMMANDS.items():
        if command not in (None, name):
            sub.add_parser(name, help=help_line)
            continue
        p = sub.add_parser(name, parents=[common], help=help_line)
        _add_arguments(p, name)
        p.set_defaults(func=_run)
    return parser


def _command_of(argv: list[str]) -> str | None:
    """The subcommand argparse picks from `argv`: its first non-option argument."""
    return next((a for a in argv if not a.startswith("-")), None)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(_command_of(argv))
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            print("segdial: error: a command is required", file=sys.stderr)
            return 1
        args.seed, args.jobs = _resolve_runtime(args)
        return args.func(args)
    except CliUsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    # the commands raise the CliUsageError of the imported `segdial.cli`, not
    # of this copy run as a script, so that module's `main` must catch it
    from segdial.cli import entrypoint as _imported_entrypoint

    _imported_entrypoint()
