"""Mask evaluation: COCO-protocol average precision, and gIoU and cIoU,
which `segdial.semseg` scores from run-length codes.

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

from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from segdial.instances import EvalValidationError, ImageRecord, PredictionInstance
from segdial.mask import RasterMask, area, overlaps
from segdial.mask import mask_iou  # noqa: F401  (bench/tracing.py rebinds it here)
from segdial.semseg import SemSegScore, evaluate_semseg

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


class _ApProtocolFields(NamedTuple):
    iou_thresholds: tuple[float, ...] = _IOU_THRESHOLDS
    recall_points: tuple[float, ...] = _RECALL_POINTS
    max_dets: int = 100
    small_ceiling: int = 32 ** 2  # areas strictly below are small
    large_floor: int = 96 ** 2  # areas strictly above are large


class ApProtocol(_ApProtocolFields):
    """Evaluation constants; the defaults are the ones reported everywhere.

    `iou_thresholds` must rise strictly within (0, 1] and hold 0.5 and 0.75,
    the thresholds that AP50 and AP75 report. The checks run in __new__, which
    `_make` and `_replace` skip.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        protocol = super().__new__(cls, *args, **kwargs)
        thr = tuple(protocol.iou_thresholds)
        if not all(0.0 < t <= 1.0 for t in thr) or any(a >= b for a, b in zip(thr, thr[1:])):
            raise ValueError(f"iou_thresholds must be strictly increasing in (0, 1], got {thr}")
        if 0.5 not in thr or 0.75 not in thr:
            raise ValueError(f"iou_thresholds must hold 0.5 and 0.75 (AP50, AP75), got {thr}")
        return protocol

    def bands(self):
        return (
            ("all", lambda a: True),
            ("small", lambda a: a < self.small_ceiling),
            ("medium", lambda a: self.small_ceiling <= a <= self.large_floor),
            ("large", lambda a: a > self.large_floor),
        )


class ApBlock(NamedTuple):
    """The six headline AP numbers."""

    mAP: float
    AP50: float
    AP75: float
    AP_small: float
    AP_medium: float
    AP_large: float


class ApReport(NamedTuple):
    """The six headline AP numbers of `ApBlock` over all categories, and
    each category's own block."""

    mAP: float
    AP50: float
    AP75: float
    AP_small: float
    AP_medium: float
    AP_large: float
    per_category: Mapping[int, ApBlock]


class _Det(NamedTuple):
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


def _candidates(iou: np.ndarray, floor: float) -> list[list[tuple[float, int]]]:
    """Per detection, the (IoU, ground-truth index) pairs with IoU >= `floor`,
    IoU descending, then index ascending."""
    cands: list[list[tuple[float, int]]] = [[] for _ in range(iou.shape[0])]
    di, gi = np.nonzero(iou >= floor)
    vals = iou[di, gi]
    order = np.lexsort((gi, -vals, di))
    for d, v, g in zip(di[order].tolist(), vals[order].tolist(), gi[order].tolist()):
        cands[d].append((v, g))
    return cands


def _greedy_match(cands: list[list[tuple[float, int]]], threshold: float) -> list[int]:
    """The ground truth each detection takes at `threshold`, or -1.

    Detections go in score order; each takes the first ground truth of its
    candidate order that is still free and reaches the threshold.
    """
    taken: set[int] = set()
    matched = []
    for cand in cands:
        for v, g in cand:
            if v >= threshold and g not in taken:
                taken.add(g)
                matched.append(g)
                break
        else:
            matched.append(-1)
    return matched


# the outcome of one detection at one threshold in one band
_FP, _TP, _IGNORED = 0, 1, 2


def _average_precision(
    outcomes: np.ndarray, n_positive: int, recall_points: np.ndarray
) -> list[float]:
    """Interpolated AP of each row of `outcomes`: one threshold's
    _FP/_TP/_IGNORED per detection, in score order.

    An ignored detection repeats the precision and recall of the last one
    counted before it (0 before the first), so it changes neither the
    monotone envelope nor the first point that reaches each recall: every
    row reads the same points as its detections without the ignored ones.
    """
    tps = np.cumsum(outcomes == _TP, axis=1, dtype=np.float64)
    counted = np.cumsum(outcomes != _IGNORED, axis=1, dtype=np.float64)
    recall = tps / n_positive
    precision = tps / np.maximum(counted, 1.0)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    spots = np.stack([np.searchsorted(r, recall_points, side="left") for r in recall])
    padded = np.concatenate([envelope, np.zeros((len(envelope), 1))], axis=1)
    return [sum(row) / len(row) for row in np.take_along_axis(padded, spots, axis=1).tolist()]


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
    truths: dict[tuple[int, int], list] = {}
    for img in images.values():
        for a in img.annotations:
            truths.setdefault((img.image_id, a.category_id), []).append(a)

    cats = sorted(gt_categories)
    bands = protocol.bands()
    thresholds = protocol.iou_thresholds
    # per (band, category): one outcome list per threshold, cell after cell,
    # and the count of ground truths inside the band
    outcomes = {(b, cat): [[] for _ in thresholds] for b, _ in bands for cat in cats}
    positives = dict.fromkeys(outcomes, 0)
    # per category: the detections of its cells, in the same order
    cat_dets: dict[int, list[_Det]] = {cat: [] for cat in cats}
    # the cells holding detections or ground truth, category by category in image order
    rank = {image_id: n for n, image_id in enumerate(images)}
    cells = sorted((c for c in {*truths, *dets} if c[1] in cat_dets), key=lambda c: (c[1], rank[c[0]]))
    for image_id, cat in cells:
        gts = truths.get((image_id, cat), ())
        ds = dets.get((image_id, cat), ())
        cat_dets[cat].extend(ds)
        inter, union = overlaps([d.mask for d in ds], [g.mask for g in gts])
        iou = inter / np.maximum(union, 1)  # 0 for two empty masks, as mask_iou
        cands = _candidates(iou, thresholds[0])
        plain = [_greedy_match(cands, t) for t in thresholds]  # every ground truth in band
        for band_name, in_band in bands:
            gt_out = [not in_band(g.area) for g in gts]
            det_miss = [_FP if in_band(d.area) else _IGNORED for d in ds]
            positives[band_name, cat] += gt_out.count(False)
            # ground truths outside the band go last in each candidate order
            band_cands = [sorted(c, key=lambda vg: gt_out[vg[1]]) for c in cands]
            if band_cands != cands:
                per_thr = [_greedy_match(band_cands, t) for t in thresholds]
            else:
                per_thr = plain
            for k, matched in enumerate(per_thr):
                outcomes[band_name, cat][k].extend(
                    det_miss[i] if g < 0 else _IGNORED if gt_out[g] else _TP
                    for i, g in enumerate(matched)
                )

    recall_points = np.asarray(protocol.recall_points, dtype=np.float64)
    curves = {}  # per (band, category): the AP at each threshold, or None without ground truth
    for cat in cats:
        ds = cat_dets[cat]
        order = sorted(range(len(ds)), key=lambda x: (-ds[x].score, ds[x].index))
        for band_name, _ in bands:
            key = (band_name, cat)
            if not positives[key]:
                curves[key] = None
                continue
            curves[key] = _average_precision(
                np.array(outcomes[key], dtype=np.int8)[:, order], positives[key], recall_points
            )

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
