"""Mask evaluation: COCO-protocol average precision, gIoU, and cIoU.

The AP protocol: IoU thresholds 0.50:0.05:0.95, greedy score-ordered
matching (ties broken by input order) where each detection takes the
highest-IoU still-unmatched ground truth at or above the threshold,
101-point interpolated precision, area bands small/medium/large at the
32^2 and 96^2 pixel boundaries, and at most 100 detections kept per image
and category. Ground truths outside the active band are ignorable: a
detection may still match one, in which case the detection is excluded
from the precision/recall tallies instead of counting as a false positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from segdial.curation import ImageRecord
from segdial.mask import RasterMask, area, mask_iou, overlap

__all__ = [
    "ApBlock",
    "ApProtocol",
    "ApReport",
    "EvalValidationError",
    "PredictionInstance",
    "SemSegScore",
    "evaluate_ap",
    "evaluate_semseg",
]

# integer-over-100 forms so every consumer sees bit-identical thresholds
_IOU_THRESHOLDS = tuple((50 + 5 * k) / 100.0 for k in range(10))
_RECALL_POINTS = tuple(i / 100.0 for i in range(101))


class EvalValidationError(ValueError):
    """Raised when predictions reference unknown images/categories or malformed masks."""

    def __init__(self, offenders: Sequence[str]):
        self.offenders = tuple(offenders)
        preview = "; ".join(self.offenders[:5])
        more = f" (+{len(self.offenders) - 5} more)" if len(self.offenders) > 5 else ""
        super().__init__(f"{len(self.offenders)} invalid prediction(s): {preview}{more}")


@dataclass(frozen=True)
class PredictionInstance:
    """One predicted instance mask with an optional confidence."""

    image_id: int
    mask: RasterMask
    score: float = 1.0
    category_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class ApProtocol:
    """Evaluation constants; the defaults are the ones reported everywhere.

    `iou_thresholds` must rise strictly within (0, 1] and hold 0.5 and 0.75,
    the thresholds that AP50 and AP75 report.
    """

    iou_thresholds: tuple[float, ...] = _IOU_THRESHOLDS
    recall_points: tuple[float, ...] = _RECALL_POINTS
    max_dets: int = 100
    small_ceiling: int = 32 ** 2  # areas strictly below are small
    large_floor: int = 96 ** 2  # areas strictly above are large

    def __post_init__(self) -> None:
        thr = tuple(self.iou_thresholds)
        if not all(0.0 < t <= 1.0 for t in thr) or any(a >= b for a, b in zip(thr, thr[1:])):
            raise ValueError(f"iou_thresholds must be strictly increasing in (0, 1], got {thr}")
        if 0.5 not in thr or 0.75 not in thr:
            raise ValueError(f"iou_thresholds must hold 0.5 and 0.75 (AP50, AP75), got {thr}")

    def bands(self):
        return (
            ("all", lambda a: True),
            ("small", lambda a: a < self.small_ceiling),
            ("medium", lambda a: self.small_ceiling <= a <= self.large_floor),
            ("large", lambda a: a > self.large_floor),
        )


@dataclass(frozen=True)
class ApBlock:
    """The six headline AP numbers."""

    mAP: float
    AP50: float
    AP75: float
    AP_small: float
    AP_medium: float
    AP_large: float


@dataclass(frozen=True)
class ApReport(ApBlock):
    per_category: Mapping[int, ApBlock]


@dataclass(frozen=True)
class SemSegScore:
    """Whole-image segmentation quality.

    gIoU averages per-image IoUs so every image weighs the same; cIoU pools
    intersections over pooled unions so pixels weigh the same.
    """

    gIoU: float
    cIoU: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Det:
    index: int  # global input position, the score tie-breaker
    score: float
    area: int
    mask: RasterMask


def _validate_predictions(
    preds: Sequence[PredictionInstance],
    images: Mapping[int, ImageRecord],
    known_categories: set[int],
) -> None:
    offenders = []
    for n, p in enumerate(preds):
        if p.image_id not in images:
            offenders.append(f"prediction {n}: unknown image_id {p.image_id}")
            continue
        if p.category_id is None:
            offenders.append(f"prediction {n}: missing category_id")
        elif p.category_id not in known_categories:
            offenders.append(f"prediction {n}: unknown category_id {p.category_id}")
        img = images[p.image_id]
        if (p.mask.width, p.mask.height) != (img.width, img.height):
            offenders.append(
                f"prediction {n}: mask is {p.mask.width}x{p.mask.height}, "
                f"image {p.image_id} is {img.width}x{img.height}"
            )
    if offenders:
        raise EvalValidationError(offenders)


def _greedy_match(
    ious: list[list[float]],
    gt_order: Sequence[int],
    gt_ignored: Sequence[bool],
    dets: Sequence[_Det],
    threshold: float,
    in_band,
) -> list[tuple[float, int, bool, bool]]:
    """Match one (image, category) cell at one threshold.

    Returns a (score, input_index, true_positive, ignored) row per detection.
    Ground truths are visited non-ignored first; once a detection holds a
    non-ignored match it never trades it for an ignored one.
    """
    taken: set[int] = set()
    rows = []
    for di, det in enumerate(dets):
        best = -1
        best_iou = 0.0
        for gi in gt_order:
            if gi in taken:
                continue
            if best >= 0 and not gt_ignored[best] and gt_ignored[gi]:
                break
            v = ious[di][gi]
            if best < 0:
                if v < threshold:
                    continue
            elif v <= best_iou:
                continue
            best = gi
            best_iou = v
        if best >= 0:
            taken.add(best)
            rows.append((det.score, det.index, not gt_ignored[best], bool(gt_ignored[best])))
        else:
            rows.append((det.score, det.index, False, not in_band(det.area)))
    return rows


def _average_precision(
    rows: list[tuple[float, int, bool, bool]],
    n_positive: int,
    recall_points: Sequence[float],
) -> float:
    rows = sorted(rows, key=lambda r: (-r[0], r[1]))
    tp = fp = 0
    tp_cum: list[int] = []
    fp_cum: list[int] = []
    for _, _, is_tp, ignored in rows:
        if ignored:
            continue
        tp += is_tp
        fp += not is_tp
        tp_cum.append(tp)
        fp_cum.append(fp)
    if not tp_cum:
        return 0.0
    tps = np.asarray(tp_cum, dtype=np.float64)
    fps = np.asarray(fp_cum, dtype=np.float64)
    recall = tps / n_positive
    precision = tps / (tps + fps)
    for i in range(len(precision) - 2, -1, -1):  # monotone envelope from the right
        if precision[i] < precision[i + 1]:
            precision[i] = precision[i + 1]
    spots = np.searchsorted(recall, recall_points, side="left")
    interpolated = [float(precision[s]) if s < len(precision) else 0.0 for s in spots]
    return sum(interpolated) / len(interpolated)


def evaluate_ap(
    preds: Sequence[PredictionInstance],
    gt_images: Sequence[ImageRecord],
    protocol: ApProtocol | None = None,
    categories: Optional[set[int]] = None,
) -> ApReport:
    """Score instance predictions against ground-truth images.

    `categories` widens the set of legal prediction categories beyond those
    present in the ground truth (e.g. the dataset's full category table);
    categories without any ground truth never contribute cells. Fields whose
    band contains no ground truth anywhere report 0.0.
    """
    protocol = protocol or ApProtocol()
    images: dict[int, ImageRecord] = {}
    for img in gt_images:
        if img.image_id in images:
            raise EvalValidationError([f"duplicate image_id {img.image_id} in ground truth"])
        images[img.image_id] = img
    gt_categories = {a.category_id for img in gt_images for a in img.annotations}
    known = set(categories) if categories is not None else set(gt_categories)
    known |= gt_categories
    _validate_predictions(preds, images, known)

    dets: dict[tuple[int, int], list[_Det]] = {}
    for n, p in enumerate(preds):
        entry = _Det(index=n, score=p.score, area=area(p.mask), mask=p.mask)
        dets.setdefault((p.image_id, p.category_id), []).append(entry)
    for cell in dets.values():
        cell.sort(key=lambda d: (-d.score, d.index))
        del cell[protocol.max_dets :]

    cats = sorted(gt_categories)
    bands = protocol.bands()
    # per (band, category): one row list per threshold, in image order, and
    # the count of ground truths inside the band
    rows = {(b, cat): [[] for _ in protocol.iou_thresholds] for b, _ in bands for cat in cats}
    positives = dict.fromkeys(rows, 0)
    for cat in cats:
        for img in images.values():
            gts = [a for a in img.annotations if a.category_id == cat]
            ds = dets.get((img.image_id, cat), [])
            ious = [[mask_iou(d.mask, g.mask) for g in gts] for d in ds]
            for band_name, in_band in bands:
                gt_ignored = [not in_band(g.area) for g in gts]
                gt_order = sorted(range(len(gts)), key=gt_ignored.__getitem__)
                positives[band_name, cat] += gt_ignored.count(False)
                for t, thr_rows in zip(protocol.iou_thresholds, rows[band_name, cat]):
                    thr_rows.extend(_greedy_match(ious, gt_order, gt_ignored, ds, t, in_band))

    # per (band, category): the AP at each threshold, or None when the band
    # holds no ground truth of that category
    curves = {
        key: [_average_precision(r, positives[key], protocol.recall_points) for r in rows[key]]
        if positives[key]
        else None
        for key in rows
    }

    i50 = protocol.iou_thresholds.index(0.5)
    i75 = protocol.iou_thresholds.index(0.75)

    def block(over: Sequence[int]) -> dict[str, float]:
        """The six fields averaged over the categories of `over` whose band holds ground truth."""

        def mean(band_name: str, pick) -> float:
            vals = [pick(curves[band_name, c]) for c in over if curves[band_name, c] is not None]
            return sum(vals) / len(vals) if vals else 0.0

        def thr_mean(curve: list[float]) -> float:
            return sum(curve) / len(curve)

        return dict(
            mAP=mean("all", thr_mean),
            AP50=mean("all", lambda c: c[i50]),
            AP75=mean("all", lambda c: c[i75]),
            AP_small=mean("small", thr_mean),
            AP_medium=mean("medium", thr_mean),
            AP_large=mean("large", thr_mean),
        )

    return ApReport(**block(cats), per_category={cat: ApBlock(**block([cat])) for cat in cats})


def evaluate_semseg(
    preds: Mapping[int, RasterMask],
    gts: Mapping[int, RasterMask],
) -> SemSegScore:
    """Score one whole-image binary mask per image.

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
        pred = preds.get(image_id)
        if pred is None:
            warnings.append(f"image {image_id}: no prediction, scored as IoU 0")
            per_image.append(0.0)
            union_total += area(gt)
            continue
        if (pred.width, pred.height) != (gt.width, gt.height):
            raise EvalValidationError(
                [
                    f"image {image_id}: prediction is {pred.width}x{pred.height}, "
                    f"ground truth is {gt.width}x{gt.height}"
                ]
            )
        inter, union = overlap(pred, gt)
        per_image.append(inter / union if union else 0.0)
        inter_total += inter
        union_total += union
    giou = math.fsum(per_image) / len(per_image)
    ciou = inter_total / union_total if union_total else 0.0
    return SemSegScore(gIoU=giou, cIoU=ciou, warnings=tuple(warnings))
