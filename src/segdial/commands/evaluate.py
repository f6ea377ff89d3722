"""`segdial evaluate`: score predictions against ground truth."""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

from segdial import dataset_io
from segdial.commands.report import render_report
from segdial.geometry import Bitset, bitset

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
    print(render_report(obj))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0
