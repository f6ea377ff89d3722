"""Whole-image segmentation scores: gIoU and cIoU.

Each image needs two integers, the pixels its prediction shares with the
ground truth and the pixels of their union, and both come from the two
masks as bitsets (`geometry.bitset_overlap`). So this module loads no
NumPy; `segdial.metrics` re-exports its names.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Union

from segdial.geometry import Bitset, Rle, bitset_overlap
from segdial.instances import EvalValidationError, as_bitset

if TYPE_CHECKING:
    from segdial.mask import RasterMask

__all__ = ["SemSegScore", "evaluate_semseg"]


class SemSegScore(NamedTuple):
    """Whole-image segmentation quality.

    gIoU averages per-image IoUs so every image weighs the same; cIoU pools
    intersections over pooled unions so pixels weigh the same.
    """

    gIoU: float
    cIoU: float
    warnings: tuple[str, ...] = ()


def evaluate_semseg(
    preds: Mapping[int, Union[Bitset, Rle, RasterMask]],
    gts: Mapping[int, Union[Bitset, Rle, RasterMask]],
) -> SemSegScore:
    """Score one whole-image binary mask per image, given as a bitset, a
    run-length code or a mask; each pair is turned into bitsets as its
    image is scored, so one image's pair is built at a time.

    Every ground-truth image counts: an image without a prediction scores
    IoU 0 and is reported in warnings. Predictions for unknown images are
    rejected.
    """
    if not gts:
        raise EvalValidationError(["no ground-truth images to evaluate"])
    unknown = [f"prediction for unknown image_id {i}" for i in preds if i not in gts]
    if unknown:
        raise EvalValidationError(unknown)
    warnings = []
    per_image = []
    inter_total = 0
    union_total = 0
    for image_id, gt in gts.items():
        gt = as_bitset(gt)
        pred = preds.get(image_id)
        if pred is None:
            warnings.append(f"image {image_id}: no prediction, scored as IoU 0")
            per_image.append(0.0)
            union_total += gt.area
            continue
        if (pred.width, pred.height) != (gt.width, gt.height):
            raise EvalValidationError(
                [
                    f"image {image_id}: prediction is {pred.width}x{pred.height}, "
                    f"ground truth is {gt.width}x{gt.height}"
                ]
            )
        inter, union = bitset_overlap(as_bitset(pred), gt)
        per_image.append(inter / union if union else 0.0)
        inter_total += inter
        union_total += union
    giou = math.fsum(per_image) / len(per_image)
    ciou = inter_total / union_total if union_total else 0.0
    return SemSegScore(gIoU=giou, cIoU=ciou, warnings=tuple(warnings))

