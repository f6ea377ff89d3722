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
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from segdial import ap

# Each command imports the modules it runs, so no command loads a module it
# does not use. Every command counts areas, unions and overlaps from the
# geometry, so neither a command nor `import segdial.cli` loads NumPy.

ENV_PREFIX = "SEGDIAL_"
MAX_JOBS = 64  # --jobs sizes the curate thread pool; more threads than this only add contention
_REPORT_FIELDS = ("AP50", "AP75", "mAP", "AP-small", "AP-medium", "AP-large")


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
            if not isinstance(cfg[key], int):
                raise CliUsageError(f"config key {key!r} must be an integer")
            return cfg[key]
        return default

    seed = pick(args.seed, "seed", 0)
    jobs = pick(args.jobs, "jobs", 1)
    if jobs < 1:
        raise CliUsageError("--jobs must be >= 1")
    if jobs > MAX_JOBS:
        raise CliUsageError(f"--jobs must be <= {MAX_JOBS}, got {jobs}")
    return seed, jobs


def _sibling(path: Path, suffix: str) -> Path:
    return path.parent / (path.stem + suffix)


# --- curate -------------------------------------------------------------------


def _cmd_curate(args) -> int:
    if args.max_retries < 0:  # before any output is written, whatever the client
        raise ValueError("max_retries must be >= 0")
    from segdial import clients, curation, dataset_io

    dataset = dataset_io.load_coco_footprints(args.input)  # areas and boxes are all it reads
    for w in dataset.warnings:
        print(f"warning: {w}", file=sys.stderr)
    result = curation.filter_dataset(dataset.images, args.min_image_side, args.min_area)
    dropped_out = args.dropped_out or _sibling(args.out, ".dropped.jsonl")
    dataset_io.write_jsonl(
        (
            {
                "schema_version": dataset_io.SCHEMA_VERSION,
                "image_id": d.image_id,
                "annotation_id": d.annotation_id,
                "reason": d.reason,
            }
            for d in result.dropped
        ),
        dropped_out,
    )

    builders = {
        "instseg": curation.build_instseg_prompt,
        "qa": curation.build_qa_prompt,
        "caption": curation.build_caption_prompt,
    }
    prompt_jobs = [builders[args.task](img) for img in result.kept]

    outcomes: list = [None] * len(prompt_jobs)
    client = None
    if args.client == "fixture":
        if args.fixture_dir is None:
            raise CliUsageError("--client fixture requires --fixture-dir")
        client = clients.FixtureModelClient(args.fixture_dir)
    elif args.client == "http":
        if args.endpoint is None:
            raise CliUsageError("--client http requires --endpoint")
        token = os.environ.get(args.auth_token_env) if args.auth_token_env else None
        client = clients.HttpModelClient(
            args.endpoint, auth_token=token, image_root=args.image_root
        )
    if client is not None:
        outcomes = clients.run_jobs(
            prompt_jobs, client, max_retries=args.max_retries, parallelism=args.jobs
        )

    def job_obj(job, res):
        return {
            "schema_version": dataset_io.SCHEMA_VERSION,
            "kind": job.kind,
            "image_id": job.image_id,
            "file_name": job.file_name,
            "prompt_text": job.prompt_text,
            "annotation_digest": job.annotation_digest,
            "response": res.response if res else None,
            "error": res.error if res else None,
            "attempts": res.attempts if res else 0,
        }

    dataset_io.write_jsonl((job_obj(j, r) for j, r in zip(prompt_jobs, outcomes)), args.out)
    failed = sum(1 for r in outcomes if r is not None and r.error is not None)
    print(
        f"curate: kept {len(result.kept)} image(s), dropped {len(result.dropped)} entr"
        f"{'y' if len(result.dropped) == 1 else 'ies'}, wrote {len(prompt_jobs)} job(s)"
        + (f", {failed} failed" if failed else "")
    )
    return 0


# --- parse --------------------------------------------------------------------


def _cmd_parse(args) -> int:
    from segdial import dataset_io, parsing

    labels_by_image = dataset_io.load_coco_labels(args.annotations)
    records: list[parsing.SerializedRecord] = []
    diag_rows: list[dict] = []

    def note(file_name, image_id, diag: parsing.Diagnostic):
        diag_rows.append(
            {
                "schema_version": dataset_io.SCHEMA_VERSION,
                "file": file_name,
                "image_id": image_id,
                "severity": diag.severity,
                "line": diag.line,
                "message": diag.message,
            }
        )

    responses_dir = Path(args.responses)
    if not responses_dir.is_dir():
        raise FileNotFoundError(f"response directory {responses_dir} does not exist")
    files = sorted(responses_dir.glob("*.txt"), key=lambda p: p.name)
    n_parsed_files = 0
    for path in files:
        try:
            image_id = int(path.stem)
        except ValueError:
            note(path.name, None, parsing.Diagnostic("error", None, "file name is not an image id"))
            continue
        if image_id not in labels_by_image:
            note(
                path.name,
                image_id,
                parsing.Diagnostic("error", None, f"image {image_id} not in the annotations"),
            )
            continue
        text = path.read_text(encoding="utf-8")
        anns = labels_by_image[image_id]
        n_parsed_files += 1
        if args.task == "instseg":
            recs, diags = parsing.parse_instseg_records(text, anns, image_id=image_id)
            for d in diags:
                note(path.name, image_id, d)
            records.extend(parsing.to_training_record(r) for r in recs)
        else:
            parse = parsing.parse_sid_response if args.task == "qa" else parsing.parse_caption_response
            result = parse(text, anns, image_id=image_id)
            for d in result.diagnostics:
                note(path.name, image_id, d)
            if result.record is not None:
                records.append(parsing.to_training_record(result.record))

    dataset_io.write_records(records, args.out)
    diagnostics_out = args.diagnostics or _sibling(args.out, ".diagnostics.jsonl")
    dataset_io.write_jsonl(diag_rows, diagnostics_out)
    print(
        f"parse: {len(records)} record(s) from {n_parsed_files} response(s), "
        f"{len(diag_rows)} diagnostic(s)"
    )
    return 0


# --- transform ------------------------------------------------------------------


_TRANSFORM_TARGETS = {
    "semseg": "semseg",
    "instseg": "instseg",
    "sid-semseg": "sid_semseg",
    "sid-instseg": "sid_instseg",
    "pure": "pure_text",
}


def _cmd_transform(args) -> int:
    from segdial import dataset_io, parsing, transforms

    target = _TRANSFORM_TARGETS[args.to]
    needs_annotations = target in ("semseg", "sid_semseg")
    ann_map = None
    if needs_annotations:
        if args.annotations is None:
            raise CliUsageError(f"--to {args.to} requires --annotations")
        from segdial.geometry import union_rle

        # each merged mask is coded from its members' geometry, so no pixel is drawn
        dataset, geometries = dataset_io.load_coco_geometries(args.annotations)
        ann_map = {a.instance_id: a for img in dataset.images for a in img.annotations}

        def merged_rle(members) -> dict:
            return dataset_io.rle_to_obj(union_rle([geometries[a.instance_id] for a in members]))

    serialized = dataset_io.read_records(args.in_path)
    out_records = []
    merged_rows = []
    for n, srec in enumerate(serialized, 1):
        try:
            record = parsing.from_training_record(srec, ann_map)
            if target == "pure_text":
                record = transforms.to_pure_text(record)
            elif target in ("semseg", "sid_semseg"):
                record, merged = transforms._regroup(record, ann_map, merged_rle)
                for turn_index, instance_id, category_id, label_name, member_ids, rle in merged:
                    merged_rows.append(
                        {
                            "schema_version": dataset_io.SCHEMA_VERSION,
                            "image_id": srec.image_id,
                            "turn_index": turn_index,
                            "instance_id": instance_id,
                            "category_id": category_id,
                            "label_name": label_name,
                            "member_ids": list(member_ids),
                            "rle": rle,
                        }
                    )
            record = transforms.append_task_template(record, target)
            out_records.append(parsing.to_training_record(record))
        except ValueError as exc:
            raise transforms.TransformError(f"record {n} (image {srec.image_id}): {exc}") from exc

    dataset_io.write_records(out_records, args.out)
    if args.merged_out is not None:
        dataset_io.write_jsonl(merged_rows, args.merged_out)
    print(f"transform: wrote {len(out_records)} {args.to} record(s)")
    return 0


# --- match ----------------------------------------------------------------------


def _cmd_match(args) -> int:
    from segdial import dataset_io, instances, matching
    from segdial.geometry import bitset

    matching.check_weights(args.w_iou, args.w_dice)  # before any file is read
    # every mask is matched as a bitset built from its geometry, so no pixel is drawn
    dataset, geometries = dataset_io.load_coco_geometries(args.gt)
    preds = dataset_io.read_prediction_geometries(args.preds)
    known = {img.image_id for img in dataset.images}
    bad = sorted({p[0] for p in preds} - known)
    if bad:
        raise instances.EvalValidationError([f"prediction for unknown image_id {i}" for i in bad])
    by_image: dict[int, list] = {}
    for image_id, _, _, geometry, width, height in preds:
        by_image.setdefault(image_id, []).append((geometry, width, height))

    rows = []
    for img in dataset.images:  # one image's bitsets at a time
        assignment = matching.assign_targets(
            [bitset(*p) for p in by_image.get(img.image_id, [])],
            [bitset(*geometries[a.instance_id]) for a in img.annotations],
            w_iou=args.w_iou,
            w_dice=args.w_dice,
        )
        rows.append(
            {
                "schema_version": dataset_io.SCHEMA_VERSION,
                "image_id": img.image_id,
                "pairs": [
                    [i, img.annotations[j].instance_id] for i, j in assignment.pairs
                ],
                "unmatched_pred_indices": list(assignment.unmatched_predictions),
                "unmatched_gt_instance_ids": [
                    img.annotations[j].instance_id for j in assignment.unmatched_groundtruths
                ],
                "total_cost": assignment.total_cost,
            }
        )
    dataset_io.write_jsonl(rows, args.out)
    print(f"match: wrote assignments for {len(rows)} image(s)")
    return 0


# --- evaluate / report ------------------------------------------------------------


def _inst_metrics_obj(report: ap.ApReport) -> dict:
    from segdial import dataset_io

    def block(b: ap.ApBlock) -> dict:
        return {
            "AP50": b.AP50,
            "AP75": b.AP75,
            "mAP": b.mAP,
            "AP-small": b.AP_small,
            "AP-medium": b.AP_medium,
            "AP-large": b.AP_large,
        }

    return {
        "schema_version": dataset_io.SCHEMA_VERSION,
        "mode": "inst",
        "metrics": block(report),
        "per_category": {str(cat): block(b) for cat, b in sorted(report.per_category.items())},
    }


def _render_report(obj: dict) -> str:
    mode = obj.get("mode")
    if mode == "inst":
        names = _REPORT_FIELDS
    elif mode == "sem":
        names = ("gIoU", "cIoU")
    else:
        raise CliUsageError(f"report mode must be 'inst' or 'sem', got {mode!r}")
    met = obj.get("metrics", {})
    if not isinstance(met, dict):
        raise CliUsageError("report metrics must be an object")
    lines = []
    for name in names:
        if name not in met:
            raise CliUsageError(f"report metrics lack {name!r}")
        try:
            lines.append(f"{name:<10}{float(met[name]):.3f}")
        except (TypeError, ValueError, OverflowError):
            raise CliUsageError(f"report metric {name!r} must be a number, got {met[name]!r}") from None
    return "\n".join(lines)


def _cmd_evaluate(args) -> int:
    from segdial import dataset_io
    from segdial.geometry import Bitset, bitset

    # every mask is scored as a bitset built from its geometry, so no pixel is drawn
    dataset, geometries = dataset_io.load_coco_geometries(args.gt)
    for w in dataset.warnings:
        print(f"warning: {w}", file=sys.stderr)
    rows = dataset_io.read_prediction_geometries(args.preds)
    if args.mode == "inst":
        from segdial.ap import evaluate_ap
        from segdial.instances import PredictionInstance

        preds = [
            PredictionInstance(image_id, bitset(geometry, width, height), score, category_id)
            for image_id, category_id, score, geometry, width, height in rows
        ]
        images = [
            img._replace(
                annotations=tuple(a._replace(mask=bitset(*geometries[a.instance_id])) for a in img.annotations)
            )
            for img in dataset.images
        ]
        report = evaluate_ap(preds, images, categories=set(dataset.categories))
        obj = _inst_metrics_obj(report)
    else:
        from segdial.geometry import bitset_union
        from segdial.instances import EvalValidationError
        from segdial.semseg import evaluate_semseg

        by_image: dict[int, Bitset] = {}
        for n, (image_id, _, _, geometry, width, height) in enumerate(rows):
            if image_id in by_image:
                raise EvalValidationError([f"prediction {n}: duplicate whole-image mask for image {image_id}"])
            by_image[image_id] = bitset(geometry, width, height)
        gts = {
            img.image_id: (
                bitset_union([bitset(*geometries[a.instance_id]) for a in img.annotations])
                if img.annotations
                else Bitset(img.width, img.height, 0, 0, 0)
            )
            for img in dataset.images
        }
        score = evaluate_semseg(by_image, gts)
        obj = {
            "schema_version": dataset_io.SCHEMA_VERSION,
            "mode": "sem",
            "metrics": {"gIoU": score.gIoU, "cIoU": score.cIoU},
            "warnings": list(score.warnings),
        }
        for w in score.warnings:
            print(f"warning: {w}", file=sys.stderr)
    print(_render_report(obj))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_report(args) -> int:
    with open(args.in_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise CliUsageError(f"{args.in_path}: report must be a JSON object")
    print(_render_report(obj))
    return 0


# --- split ----------------------------------------------------------------------


def _cmd_split(args) -> int:
    import random

    from segdial import dataset_io

    if not (0.0 <= args.eval_fraction <= 1.0):
        raise CliUsageError("--eval-fraction must be in [0, 1]")
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


# name: (help line, handler), in the order help lists them
_COMMANDS = {
    "curate": ("filter a dataset and build annotator jobs", _cmd_curate),
    "parse": ("parse annotator responses into records", _cmd_parse),
    "transform": ("re-target records to another task mode", _cmd_transform),
    "match": ("assign predicted masks to ground truth", _cmd_match),
    "evaluate": ("score predictions against ground truth", _cmd_evaluate),
    "report": ("render a JSON report as text", _cmd_report),
    "split": ("seeded train/eval split of a records file", _cmd_split),
}


def build_parser(command: str | None = None) -> _Parser:
    """The segdial argument parser.

    Every subcommand is registered, so help, usage and errors read the same
    whatever runs, but only `command` (every subcommand when None) gets its
    arguments: a run builds the one subparser it uses.
    """
    parser = _Parser(prog="segdial", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    common = _common_parser()
    for name, (help_line, handler) in _COMMANDS.items():
        if command not in (None, name):
            sub.add_parser(name, help=help_line)
            continue
        p = sub.add_parser(name, parents=[common], help=help_line)
        _add_arguments(p, name)
        p.set_defaults(func=handler)
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
    entrypoint()
