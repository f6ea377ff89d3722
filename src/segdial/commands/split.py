"""`segdial split`: a seeded train/eval split of a records file."""

from __future__ import annotations

import random

from segdial import dataset_io
from segdial.cli import CliUsageError, check_output_paths


def run(args) -> int:
    if not (0.0 <= args.eval_fraction <= 1.0):
        raise CliUsageError("--eval-fraction must be in [0, 1]")
    check_output_paths(
        {"--in": args.in_path, "--config": args.config}, {"--train-out": args.train_out, "--eval-out": args.eval_out}
    )
    lines = dataset_io.read_record_lines(args.in_path)  # checked before touching outputs
    indices = list(range(len(lines)))
    random.Random(args.seed).shuffle(indices)
    n_eval = int(len(lines) * args.eval_fraction + 0.5)
    eval_set = set(indices[:n_eval])
    with open(args.train_out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line if line.endswith("\n") else line + "\n" for n, line in enumerate(lines) if n not in eval_set)
    with open(args.eval_out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line if line.endswith("\n") else line + "\n" for n, line in enumerate(lines) if n in eval_set)
    print(f"split: {len(lines) - n_eval} train / {n_eval} eval record(s)")
    return 0
