"""Command-line front end.

Exit codes: 0 success, 1 validation failure (bad flags, malformed or
inconsistent inputs), 2 I/O failure. Only curate takes --jobs and only
split takes --seed; each resolves as flag > environment variable
(SEGDIAL_JOBS, SEGDIAL_SEED) > its key ("jobs", "seed") in the --config
JSON file > default. No other subcommand takes --jobs, --seed or --config.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import json
import os
import stat
import sys
from importlib import import_module
from pathlib import Path

# Each command is a module of `segdial.commands` that imports the modules it
# runs, and `main` imports only the one it runs, so no command loads a module
# it does not use. Every command counts areas, unions and overlaps from the
# geometry, so neither a command nor `import segdial.cli` loads NumPy.

ENV_PREFIX = "SEGDIAL_"
MAX_JOBS = 64  # --jobs sizes the curate thread pool; more threads than this only add contention


# Set once `main` has registered `gc.freeze` with atexit, so the collections
# of interpreter finalization skip the ~12,000 objects that start-up, `site`
# and the imports made, whose traversal costs more than many subcommands'
# work. Every other atexit handler (`logging.shutdown`, `site`'s certifi
# cleanup), the flush of stdout and stderr and main's exit code still run, and
# each output file is closed before `run` returns. Only the `__del__` of cyclic
# garbage alive at exit is skipped, which CPython never guarantees. In-process
# callers (tests, traced benchmark passes) register it once per process.
_freeze_at_exit_registered = False


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag problems are validation
        raise CliUsageError(f"{self.prog}: error: {message}")


def _resolve(args, key: str, default: int) -> int:
    """The value of `--<key>`: flag > SEGDIAL_<KEY> > `--config` key > default."""
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise CliUsageError(f"{args.config}: config must be a JSON object")
    flag_value = getattr(args, key)
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


def check_output_paths(inputs: dict[str, Path | None], outputs: dict[str, Path | None]) -> None:
    """CliUsageError, before anything is written, when an output names the
    file of an input or of another output. Keys are the options' names;
    None is an option not given. Paths are compared resolved, so `./a` and
    `a`, or a symlink and its target, are one file; a directory, or a
    device such as /dev/null, is not compared. Then the OSError that `open`
    would raise for the first output, in `outputs` order, whose parent is
    missing or is not a directory, before anything is written."""

    def resolved(path: Path | None) -> str | None:
        if path is None or (path.exists() and not path.is_file()):
            return None
        return os.path.realpath(path)  # unlike Path.resolve, no RuntimeError on a symlink loop

    seen: dict[str, str] = {}
    for option, path in inputs.items():
        if (key := resolved(path)) is not None:
            seen.setdefault(key, option)
    for option, path in outputs.items():
        if (key := resolved(path)) is None:
            continue
        if key in seen:
            raise CliUsageError(f"{option} and {seen[key]} name the same file: {path}")
        seen[key] = option
    for path in outputs.values():
        try:
            if path is None or stat.S_ISDIR(os.stat(path.parent).st_mode):
                continue
            code = errno.ENOTDIR
        except OSError as exc:  # a missing parent, or one below a file
            code = exc.errno
        raise OSError(code, os.strerror(code), str(path))


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
        p.add_argument("--jobs", type=int, help=f"number of client threads, 1 to {MAX_JOBS} (default 1)")
        p.add_argument("--config", type=Path, help='JSON config file with an optional "jobs" key')
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
        p.add_argument("--seed", type=int, help="shuffle seed (default 0)")
        p.add_argument("--config", type=Path, help='JSON config file with an optional "seed" key')


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


def build_parser() -> _Parser:
    """The segdial argument parser."""
    parser = _Parser(prog="segdial", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, help_line in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        _add_arguments(p, name)
    return parser


def main(argv=None) -> int:
    global _freeze_at_exit_registered
    if not _freeze_at_exit_registered:
        atexit.register(gc.freeze)
        _freeze_at_exit_registered = True
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("segdial: error: a command is required", file=sys.stderr)
            return 1
        if args.command == "curate":
            args.jobs = _resolve(args, "jobs", 1)
            if args.jobs < 1:
                raise CliUsageError("--jobs must be >= 1")
            if args.jobs > MAX_JOBS:
                raise CliUsageError(f"--jobs must be <= {MAX_JOBS}, got {args.jobs}")
        elif args.command == "split":
            args.seed = _resolve(args, "seed", 0)
        return _run(args)
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
