"""COCO-protocol average precision of instance masks, counted on bitsets.

The AP protocol: IoU thresholds 0.50:0.05:0.95, greedy score-ordered
matching (ties broken by input order) where each detection takes the
highest-IoU still-unmatched ground truth at or above the threshold,
101-point interpolated precision, area bands small/medium/large at the
32^2 and 96^2 pixel boundaries, and at most 100 detections kept per image
and category. Ground truths outside the active band are ignorable: a
detection may still match one, in which case the detection is excluded
from the precision/recall tallies instead of counting as a false positive.

A mask may be a `RasterMask`, a `geometry.Bitset` or a run-length code
(`geometry.Rle`), and each is scored as a Bitset, so the pixels a
detection shares with a ground truth take one shift, AND and bit count,
and the precision/recall curves are accumulated from the true positives
in pure Python: this module loads no NumPy. `segdial.metrics` re-exports
its names.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from operator import itemgetter, sub
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence, Union

from segdial.geometry import Bitset, bitset_overlap
from segdial.instances import EvalValidationError, ImageRecord, PredictionInstance, as_bitset

if TYPE_CHECKING:
    from segdial.mask import RasterMask

__all__ = ["ApBlock", "ApProtocol", "ApReport", "evaluate_ap"]

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
    the thresholds that AP50 and AP75 report, `recall_points` must rise
    strictly within [0, 1], `max_dets` must be an integer of at least 1,
    and the band bounds must satisfy 0 <= small_ceiling <= large_floor, so
    that no area is both small and large. The checks run in __new__, which
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
        pts = tuple(protocol.recall_points)
        if not pts or not all(0.0 <= p <= 1.0 for p in pts) or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"recall_points must be non-empty and strictly increasing in [0, 1], got {pts}")
        if type(protocol.max_dets) is not int or protocol.max_dets < 1:  # a bool is no count
            raise ValueError(f"max_dets must be an integer of at least 1, got {protocol.max_dets!r}")
        small, large = protocol.small_ceiling, protocol.large_floor
        if not 0 <= small <= large:
            raise ValueError(f"band bounds must satisfy 0 <= small_ceiling <= large_floor, got {small!r}, {large!r}")
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
    mask: Union[Bitset, RasterMask]


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


def _candidates(det: Bitset, truths: Sequence[Bitset], floor: float) -> list[tuple[float, int]]:
    """The (IoU, ground-truth index) pairs of `det` with IoU >= `floor`,
    IoU descending, then index ascending."""
    cands = []
    for g, truth in enumerate(truths):
        inter, union = bitset_overlap(det, truth)
        iou = inter / union if union else 0.0  # 0 for two empty masks, as mask_iou
        if iou >= floor:
            cands.append((iou, g))
    cands.sort(key=itemgetter(0), reverse=True)  # stable: equal IoUs keep index order
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


def _average_precision(
    hits: list[int], ignored: list[int], n_positive: int, recall_points: Sequence[float]
) -> float:
    """Interpolated AP of one threshold, given the ranks, in the category's
    score order, of its true positives (`hits`) and of its ignored
    detections; every other detection is a false positive.

    Recall rises only at a true positive, so the first detection that
    reaches a recall point above 0 is a true positive. Precision rises only
    there too, so the monotone envelope at that detection is the highest
    precision of the true positives from it on, and at a point of 0 or less
    the highest of all of them (0 without one). An ignored detection counts
    neither way.
    """
    if not hits:  # every point reads 0
        return 0.0 / len(recall_points)
    hits.sort()
    ignored.sort()
    recalls = [n / n_positive for n in range(1, len(hits) + 1)]
    # the detections counted up to a true positive: every rank up to it but the ignored ones
    precisions = [n / (rank + 1 - bisect_left(ignored, rank)) for n, rank in enumerate(hits, 1)]
    envelope = [*accumulate(reversed(precisions), max)][::-1] + [0.0]
    # a point reads the envelope at the first recall at or above it, so entry
    # k is read by the points above recall k - 1 up to recall k; the points
    # rise, so repeating each entry that many times adds the reads in point order
    reads = [bisect_right(recall_points, r) for r in recalls] + [len(recall_points)]
    counts = map(sub, reads, [0, *reads])
    return sum(chain.from_iterable(map(repeat, envelope, counts))) / len(recall_points)


def evaluate_ap(
    preds: Sequence[PredictionInstance],
    gt_images: Sequence[ImageRecord],
    protocol: ApProtocol | None = None,
    categories: Optional[set[int]] = None,
) -> ApReport:
    """Score instance predictions against ground-truth images.

    The masks of predictions and annotations are `Bitset`s, `Rle`s or
    `RasterMask`s; each prediction's is turned into a Bitset first, and each
    annotation's when its cell is scored. `categories` widens the
    set of legal prediction categories beyond those present in the ground
    truth (e.g. the dataset's full category table); categories without any
    ground truth never contribute cells. Fields whose band contains no
    ground truth anywhere report 0.0.
    """
    protocol = protocol or ApProtocol()
    preds = [p._replace(mask=as_bitset(p.mask)) for p in preds]
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
        entry = _Det(index=n, score=p.score, area=p.mask.area, mask=p.mask)
        dets.setdefault((p.image_id, p.category_id), []).append(entry)
    for cell in dets.values():
        cell.sort(key=lambda d: (-d.score, d.index))
        del cell[protocol.max_dets :]
    truths: dict[tuple[int, int], list] = {}
    for img in images.values():
        for a in img.annotations:
            truths.setdefault((img.image_id, a.category_id), []).append(a)

    cats = sorted(gt_categories)
    # each scored detection's rank in its category's score order
    by_category: dict[int, list[_Det]] = {cat: [] for cat in cats}
    for (_, cat), cell in dets.items():
        if cat in by_category:
            by_category[cat] += cell
    rank = {
        d.index: r for ds in by_category.values() for r, d in enumerate(sorted(ds, key=lambda d: (-d.score, d.index)))
    }
    bands = protocol.bands()
    thresholds = protocol.iou_thresholds
    # per (band, category): for each threshold, the ranks of the true
    # positives and of the ignored detections, and the count of ground
    # truths inside the band
    events = {(b, cat): [([], []) for _ in thresholds] for b, _ in bands for cat in cats}
    positives = dict.fromkeys(events, 0)
    # the cells holding detections or ground truth, category by category in image order
    order = {image_id: n for n, image_id in enumerate(images)}
    cells = sorted((c for c in {*truths, *dets} if c[1] in gt_categories), key=lambda c: (c[1], order[c[0]]))
    for image_id, cat in cells:
        gts = truths.get((image_id, cat), ())
        ds = dets.get((image_id, cat), ())
        ranks = [rank[d.index] for d in ds]
        truth_masks = [as_bitset(g.mask) for g in gts]
        cands = [_candidates(d.mask, truth_masks, thresholds[0]) for d in ds]
        plain = [_greedy_match(cands, t) for t in thresholds]  # every ground truth in band
        for band_name, in_band in bands:
            gt_out = [not in_band(g.area) for g in gts]
            det_out = [not in_band(d.area) for d in ds]
            positives[band_name, cat] += gt_out.count(False)
            # ground truths outside the band go last in each candidate order
            band_cands = [sorted(c, key=lambda vg: gt_out[vg[1]]) for c in cands]
            if band_cands != cands:
                per_thr = [_greedy_match(band_cands, t) for t in thresholds]
            else:
                per_thr = plain
            for (hits, ignored), matched in zip(events[band_name, cat], per_thr):
                for r, g, out in zip(ranks, matched, det_out):
                    if g < 0:
                        if out:  # an unmatched detection outside the band
                            ignored.append(r)
                    elif gt_out[g]:
                        ignored.append(r)
                    else:
                        hits.append(r)

    # per (band, category): the AP at each threshold, or None without ground truth
    curves = {
        key: [_average_precision(h, i, positives[key], protocol.recall_points) for h, i in events[key]]
        if positives[key]
        else None
        for key in events
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
