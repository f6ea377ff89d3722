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
from typing import Mapping, NamedTuple, Optional, Sequence

from segdial.geometry import Bitset
from segdial.instances import EvalValidationError, ImageRecord, PredictionInstance, as_bitset

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


def _candidates(det: Bitset, truths: Sequence[tuple[int, int, int, int]], floor: float) -> list[tuple[float, int]]:
    """The (IoU, ground-truth index) pairs of `det` with IoU >= `floor`,
    IoU descending, then index ascending; `truths` holds (first pixel, one
    past the last, bits, area) of each ground truth on the canvas of `det`.

    Two bounds rule a pair out before its pixels are counted. One whose
    column-major spans are disjoint shares no pixel, as in
    `matching._cost_rows`. And IoU is at most min / max of the two areas;
    rounding keeps order, so the float IoU is at most that quotient
    rounded, and a quotient below `floor` rules the pair out. The test
    takes the same correctly rounded division as the IoU: comparing the
    exact ratio with `floor` would drop areas 7 and 25 at 0.28, since
    7 / 25 rounds to the float 0.28 but lies below it.
    """
    start, bits, area = det.offset, det.bits, det.area
    end = start + bits.bit_length()
    cands = []
    for g, (g_start, g_end, g_bits, g_area) in enumerate(truths):
        # spans that meet belong to two masks that are not empty
        if g_start >= end or start >= g_end or (area / g_area if area < g_area else g_area / area) < floor:
            continue
        if g_start >= start:  # the mask that starts first is shifted onto the other
            inter = ((bits >> (g_start - start)) & g_bits).bit_count()
        else:
            inter = ((g_bits >> (start - g_start)) & bits).bit_count()
        iou = inter / (area + g_area - inter)
        if iou >= floor:
            cands.append((iou, g))
    cands.sort(key=itemgetter(0), reverse=True)  # stable: equal IoUs keep index order
    return cands


def _greedy_match(
    cands: list[list[tuple[float, int]]], thresholds: Sequence[float], out: Sequence[bool]
) -> list[dict[int, int]]:
    """For each threshold, {detection: ground truth} of the detections that
    take one.

    At each threshold the detections go in score order; each takes the
    first ground truth of its candidate order that is still free and
    reaches the threshold, where the ground truths that `out` marks, those
    outside the band, go last. The candidates of a detection fall in IoU
    order, so a scan ends at the first one below the threshold, and a
    detection whose best candidate is below a threshold takes nothing at
    that threshold or any higher one.
    """
    taken: list[set[int]] = [set() for _ in thresholds]
    matched: list[dict[int, int]] = [{} for _ in thresholds]
    for d, cand in enumerate(cands):
        for k, t in enumerate(thresholds):
            if not cand or cand[0][0] < t:
                break
            found = -1
            for v, g in cand:
                if v < t:
                    break
                if g not in taken[k]:
                    if not out[g]:
                        found = g
                        break
                    if found < 0:  # the first free one outside the band, unless one inside follows
                        found = g
            if found >= 0:
                taken[k].add(found)
                matched[k][d] = found
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
    `RasterMask`s; each is turned into a Bitset when its cell is scored, so
    only one cell's bitsets are held at a time. `categories` widens the
    set of legal prediction categories beyond those present in the ground
    truth (e.g. the dataset's full category table); categories without any
    ground truth never contribute cells. Fields whose band contains no
    ground truth anywhere report 0.0.
    """
    protocol = protocol or ApProtocol()
    preds = list(preds)
    images: dict[int, ImageRecord] = {}
    for img in gt_images:
        if img.image_id in images:
            raise EvalValidationError([f"duplicate image_id {img.image_id} in ground truth"])
        images[img.image_id] = img
    gt_categories = {a.category_id for img in gt_images for a in img.annotations}
    known = set(categories) if categories is not None else set(gt_categories)
    known |= gt_categories
    _validate_predictions(preds, images, known)

    def score_order(n: int) -> tuple[float, int]:
        return -preds[n].score, n

    # the indices of each cell's predictions, the kept ones in score order
    dets: dict[tuple[int, int], list[int]] = {}
    for n, p in enumerate(preds):
        dets.setdefault((p.image_id, p.category_id), []).append(n)
    for cell in dets.values():
        cell.sort(key=score_order)
        del cell[protocol.max_dets :]
    truths: dict[tuple[int, int], list] = {}
    for img in images.values():
        for a in img.annotations:
            truths.setdefault((img.image_id, a.category_id), []).append(a)

    cats = sorted(gt_categories)
    # each scored detection's rank in its category's score order
    by_category: dict[int, list[int]] = {cat: [] for cat in cats}
    for (_, cat), cell in dets.items():
        if cat in by_category:
            by_category[cat] += cell
    rank = {n: r for ns in by_category.values() for r, n in enumerate(sorted(ns, key=score_order))}
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
        # per band, whether each ground truth lies outside it
        gt_outs = [[not in_band(g.area) for g in gts] for _, in_band in bands]
        for (band_name, _), gt_out in zip(bands, gt_outs):
            positives[band_name, cat] += gt_out.count(False)
        cell = dets.get((image_id, cat), ())
        if not cell:
            continue
        ds = [as_bitset(preds[n].mask) for n in cell]
        ranks = [rank[n] for n in cell]
        spans = [(m.offset, m.offset + m.bits.bit_length(), m.bits, m.area) for m in (as_bitset(g.mask) for g in gts)]
        cands = [_candidates(d, spans, thresholds[0]) for d in ds]
        # the matches when every ground truth, or none, lies in the band
        plain = _greedy_match(cands, thresholds, [False] * len(gts))
        for (band_name, in_band), gt_out in zip(bands, gt_outs):
            per_thr = _greedy_match(cands, thresholds, gt_out) if any(gt_out) and not all(gt_out) else plain
            outside = [n for n, d in enumerate(ds) if not in_band(d.area)]
            for (hits, ignored), matched in zip(events[band_name, cat], per_thr):
                # a match is a hit inside the band and ignored outside it,
                # and so is a detection outside the band that takes nothing
                for n, g in matched.items():
                    (ignored if gt_out[g] else hits).append(ranks[n])
                if outside:
                    ignored += [ranks[n] for n in outside if n not in matched]

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
