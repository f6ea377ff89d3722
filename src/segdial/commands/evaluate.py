"""`segdial evaluate`: score predictions against ground truth."""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

from segdial import dataset_io
from segdial.cli import check_output_paths
from segdial.commands.report import render_report

if TYPE_CHECKING:
    from segdial import ap


def _inst_metrics_obj(report: ap.ApReport) -> dict:
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


def run(args) -> int:
    check_output_paths({"--gt": args.gt, "--preds": args.preds}, {"--out": args.out})
    # every mask is scored as a bitset built from its code or polygons, so no pixel is drawn
    dataset = dataset_io.load_coco_masks(args.gt)
    for w in dataset.warnings:
        print(f"warning: {w}", file=sys.stderr)
    preds = dataset_io.read_prediction_masks(args.preds)
    if args.mode == "inst":
        from segdial.ap import evaluate_ap

        report = evaluate_ap(preds, dataset.images, categories=set(dataset.categories))
        obj = _inst_metrics_obj(report)
    else:
        from segdial.geometry import Bitset, bitset_union
        from segdial.instances import EvalValidationError, as_bitset
        from segdial.semseg import evaluate_semseg

        by_image = {}
        for n, p in enumerate(preds):
            if p.image_id in by_image:
                raise EvalValidationError([f"prediction {n}: duplicate whole-image mask for image {p.image_id}"])
            by_image[p.image_id] = p.mask
        gts = {
            img.image_id: (
                bitset_union([as_bitset(a.mask) for a in img.annotations])
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
    print(render_report(obj))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0
