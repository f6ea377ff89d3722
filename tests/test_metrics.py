import math
import random
from typing import NamedTuple, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import image_with_masks, make_mask, random_micro_dataset, rect_mask
from segdial.ap import _average_precision as ap_of_ranks, _validate_predictions
from segdial.curation import ImageRecord, InstanceAnnotation
from segdial.mask import RasterMask, Rle, area, bbox_of, mask_iou, rle_decode, rle_encode
from segdial.metrics import (
    ApBlock,
    ApProtocol,
    ApReport,
    EvalValidationError,
    PredictionInstance,
    evaluate_ap,
    evaluate_semseg,
)
from test_geometry import coded_pairs

CANVAS = 128


def pred(image_id, mask, score=1.0, category_id=1):
    return PredictionInstance(image_id=image_id, mask=mask, score=score, category_id=category_id)


def three_band_image(image_id=1, category_id=1):
    """One image holding a small, a medium, and a large object of one category."""
    small = rect_mask(CANVAS, CANVAS, 0, 0, 10, 10)  # 100 px
    medium = rect_mask(CANVAS, CANVAS, 80, 0, 120, 40)  # 1600 px
    large = rect_mask(CANVAS, CANVAS, 0, 20, 100, 120)  # 10000 px
    record = image_with_masks(image_id, [small, medium, large], [category_id] * 3)
    return record, (small, medium, large)


class TestProtocol:
    def test_threshold_and_recall_grids(self):
        p = ApProtocol()
        assert p.iou_thresholds == tuple((50 + 5 * k) / 100.0 for k in range(10))
        assert p.iou_thresholds[0] == 0.5 and p.iou_thresholds[5] == 0.75
        assert len(p.recall_points) == 101
        assert p.recall_points[0] == 0.0 and p.recall_points[-1] == 1.0

    @pytest.mark.parametrize(
        "grid",
        [
            (),
            (0.75, 0.5),  # reordered
            (0.5, 0.5, 0.75),  # repeated
            (0.0, 0.5, 0.75),
            (0.5, 0.75, 1.01),
            (0.5, 0.7),  # no 0.75
            (0.6, 0.75),  # no 0.5
        ],
    )
    def test_rejects_grids_without_increasing_thresholds_or_ap50_ap75(self, grid):
        with pytest.raises(ValueError, match="iou_thresholds"):
            ApProtocol(iou_thresholds=grid)

    @pytest.mark.parametrize(
        "points",
        [
            (),
            (0.5, 0.25),  # reordered
            (0.0, 0.5, 0.5, 1.0),  # repeated
            (-0.01, 0.5),
            (0.0, 1.01),
            (0.0, float("nan"), 1.0),
        ],
    )
    def test_rejects_recall_points_that_do_not_rise_within_0_1(self, points):
        with pytest.raises(ValueError, match="recall_points"):
            ApProtocol(recall_points=points)

    @pytest.mark.parametrize("max_dets", [0, -1, 2.5, 100.0, True, "100"])
    def test_rejects_max_dets_that_is_not_a_positive_integer(self, max_dets):
        with pytest.raises(ValueError, match="max_dets must be an integer of at least 1"):
            ApProtocol(max_dets=max_dets)

    @pytest.mark.parametrize(
        "small_ceiling, large_floor",
        [(10000, 100), (-1, 100), (1025, 1024), (float("nan"), 9216), (1024, float("nan"))],
    )
    def test_rejects_band_bounds_out_of_order(self, small_ceiling, large_floor):
        with pytest.raises(ValueError, match="band bounds"):
            ApProtocol(small_ceiling=small_ceiling, large_floor=large_floor)

    def test_accepts_one_detection_and_touching_band_bounds(self):
        protocol = ApProtocol(max_dets=1, small_ceiling=0, large_floor=0)
        bands = dict(protocol.bands())
        assert [n for n in ("small", "medium", "large") if bands[n](0)] == ["medium"]
        small = three_band_image()[1][0]
        report = evaluate_ap([pred(1, small)], [image_with_masks(1, [small], [1])], protocol=protocol)
        assert report.mAP == report.AP_large == 1.0

    @pytest.mark.parametrize("points", [(0.0,), (1.0,), (0.0, 0.25, 0.5, 1.0), (0.05, 0.95)])
    def test_grouped_curves_read_each_point_as_the_bisection_does(self, points):
        # each point reads the envelope at the first recall at or above it;
        # summing the envelope by runs of points must give the same float
        protocol = ApProtocol(recall_points=points)
        for seed in range(20):
            rng = random.Random(4000 + seed)
            n_positive = rng.randint(1, 6)
            hits = sorted(rng.sample(range(12), rng.randint(1, n_positive)))
            ignored = sorted(rng.sample([r for r in range(12) if r not in hits], rng.randint(0, 3)))
            recalls = [n / n_positive for n in range(1, len(hits) + 1)]
            precisions = [n / (r + 1 - sum(i < r for i in ignored)) for n, r in enumerate(hits, 1)]
            envelope = [max(precisions[k:]) for k in range(len(precisions))] + [0.0]
            want = sum(envelope[next((k for k, r in enumerate(recalls) if r >= p), len(recalls))] for p in points)
            got = ap_of_ranks(list(hits), list(ignored), n_positive, protocol.recall_points)
            assert got == want / len(points), seed

    @pytest.mark.parametrize("grid", [(0.5, 0.75), (0.25, 0.5, 0.6, 0.75, 1.0)])
    def test_ap50_and_ap75_read_their_own_thresholds(self, grid):
        protocol = ApProtocol(iou_thresholds=grid)
        for seed in range(20):
            preds_pkg, images_pkg, preds_dict, images_dict, categories = random_micro_dataset(
                random.Random(3000 + seed)
            )
            got = evaluate_ap(preds_pkg, images_pkg, protocol=protocol, categories=categories)
            want = oracles.reference_ap(preds_dict, images_dict)
            for field in ("AP50", "AP75"):
                assert getattr(got, field) == pytest.approx(want[field], abs=1e-9), (seed, field)
            assert set(got.per_category) == set(want["per_category"])
            for cat, block in want["per_category"].items():
                for field in ("AP50", "AP75"):
                    assert getattr(got.per_category[cat], field) == pytest.approx(
                        block[field], abs=1e-9
                    ), (seed, cat, field)

    def test_band_boundaries(self):
        bands = dict(ApProtocol().bands())
        for area, expect in [(1023, "small"), (1024, "medium"), (9216, "medium"), (9217, "large")]:
            assert bands["all"](area)
            hits = [n for n in ("small", "medium", "large") if bands[n](area)]
            assert hits == [expect]


class TestEvaluateApFixtures:
    def test_perfect_detector_scores_one_everywhere(self):
        record, masks = three_band_image()
        preds = [pred(1, m) for m in masks]
        report = evaluate_ap(preds, [record])
        for field in ("mAP", "AP50", "AP75", "AP_small", "AP_medium", "AP_large"):
            assert getattr(report, field) == 1.0, field
        assert set(report.per_category) == {1}
        for field in ("mAP", "AP50", "AP75", "AP_small", "AP_medium", "AP_large"):
            assert getattr(report.per_category[1], field) == 1.0, field

    def test_single_overlap_at_iou_point_six(self):
        # inter 3 / union 5 = 0.6 exactly, so thresholds .50/.55/.60 pass
        gt = rect_mask(CANVAS, CANVAS, 0, 0, 4, 1)
        pr = rect_mask(CANVAS, CANVAS, 1, 0, 5, 1)
        report = evaluate_ap([pred(1, pr)], [image_with_masks(1, [gt], [1])])
        assert report.AP50 == 1.0
        assert report.AP75 == 0.0
        assert report.mAP == 0.3
        assert report.AP_small == 0.3  # area 4 is small
        assert report.AP_medium == 0.0
        assert report.AP_large == 0.0

    def test_out_of_band_false_positive_is_ignored_in_band(self):
        # a large-area FP outranks the true detection: it halves AP overall
        # but vanishes from the small band, where it can never count
        gt = rect_mask(CANVAS, CANVAS, 0, 0, 10, 10)
        fp = rect_mask(CANVAS, CANVAS, 14, 14, 114, 114)  # 10000 px, matches nothing
        record = image_with_masks(1, [gt], [1])
        report = evaluate_ap([pred(1, fp, score=0.9), pred(1, gt, score=0.8)], [record])
        assert report.AP50 == 0.5
        assert report.mAP == 0.5
        assert report.AP_small == 1.0
        assert report.AP_medium == 0.0 and report.AP_large == 0.0

    def test_detection_matched_to_out_of_band_truth_is_ignored(self):
        # the higher-scored detection matches the large object; inside the
        # small band that match must not become a false positive
        record, (small, medium, large) = three_band_image()
        preds = [pred(1, large, score=1.0), pred(1, small, score=0.5)]
        report = evaluate_ap(preds, [record])
        assert report.AP_small == 1.0
        assert report.AP_large == 1.0

    def test_max_dets_truncates_by_score(self):
        gt = rect_mask(CANVAS, CANVAS, 0, 0, 10, 10)
        miss = rect_mask(CANVAS, CANVAS, 50, 50, 60, 60)
        record = image_with_masks(1, [gt], [1])
        preds = [pred(1, miss, score=0.9), pred(1, gt, score=0.5)]
        assert evaluate_ap(preds, [record]).AP50 == 0.5
        capped = evaluate_ap(preds, [record], protocol=ApProtocol(max_dets=1))
        assert capped.AP50 == 0.0

    def test_no_predictions_scores_zero(self):
        record, _ = three_band_image()
        report = evaluate_ap([], [record])
        assert report.mAP == 0.0 and report.AP50 == 0.0

    def test_no_ground_truth_scores_zero_with_empty_categories(self):
        record = image_with_masks(1, [rect_mask(8, 8, 0, 0, 2, 2)], [1])
        empty = image_with_masks(2, [rect_mask(8, 8, 0, 0, 1, 1)], [1])
        empty = type(empty)(
            image_id=2, width=8, height=8, file_name=empty.file_name, annotations=()
        )
        report = evaluate_ap([], [empty])
        assert report.mAP == 0.0
        assert report.per_category == {}

    def test_duplicate_truth_image_rejected(self):
        record, _ = three_band_image()
        with pytest.raises(EvalValidationError, match="duplicate image_id"):
            evaluate_ap([], [record, record])

    def test_prediction_validation_offenders(self):
        record, (small, _, _) = three_band_image()
        bad = [
            pred(99, small),  # unknown image
            pred(1, small, category_id=77),  # unknown category
            PredictionInstance(image_id=1, mask=small, score=0.5, category_id=None),
            pred(1, rect_mask(8, 8, 0, 0, 2, 2)),  # wrong canvas
        ]
        with pytest.raises(EvalValidationError) as exc:
            evaluate_ap(bad, [record])
        text = "\n".join(exc.value.offenders)
        assert "unknown image_id 99" in text
        assert "unknown category_id 77" in text
        assert "missing category_id" in text
        assert "mask is 8x8" in text

    def test_categories_argument_admits_truthless_predictions(self):
        record, (small, _, _) = three_band_image()
        extra = pred(1, small, score=0.4, category_id=9)
        with pytest.raises(EvalValidationError):
            evaluate_ap([extra], [record])
        report = evaluate_ap([extra, pred(1, small)], [record], categories={1, 9})
        # category 9 has no ground truth so it owns no cells at all
        assert set(report.per_category) == {1}
        assert report.AP_small == 1.0

    def test_a_prediction_gets_bits_only_when_its_cell_is_scored(self, monkeypatch):
        # predictions stay run-length codes until their cell is scored, so a
        # category without ground truth never gets bits
        import segdial.ap as ap

        first, _ = three_band_image(1)
        second, (small, medium, large) = three_band_image(2)
        preds = [pred(1, rle_encode(small)), pred(2, rle_encode(medium)), pred(2, rle_encode(large), category_id=9)]
        converted = []
        to_bits = ap.as_bitset
        monkeypatch.setattr(ap, "as_bitset", lambda m: converted.append(m) or to_bits(m))
        report = evaluate_ap(preds, [first, second], categories={1, 9})
        assert [m for m in converted if isinstance(m, Rle)] == [preds[0].mask, preds[1].mask]
        assert len(converted) == 2 + 6  # and each ground truth once
        # image 2's prediction is built after image 1's cell has been scored, not at entry
        assert converted.index(preds[1].mask) > min(i for i, m in enumerate(converted) if not isinstance(m, Rle))
        monkeypatch.undo()
        as_masks = [p._replace(mask=m) for p, m in zip(preds, (small, medium, large))]
        assert report == evaluate_ap(as_masks, [first, second], categories={1, 9})

    def test_score_range_enforced(self):
        m = rect_mask(8, 8, 0, 0, 2, 2)
        with pytest.raises(ValueError):
            PredictionInstance(image_id=1, mask=m, score=1.5, category_id=1)
        with pytest.raises(ValueError):
            PredictionInstance(image_id=1, mask=m, score=-0.1, category_id=1)


class TestEvaluateApAgainstOracle:
    def assert_matches_oracle(self, preds_pkg, images_pkg, preds_dict, images_dict, categories):
        got = evaluate_ap(preds_pkg, images_pkg, categories=categories)
        want = oracles.reference_ap(preds_dict, images_dict)
        for field in ("mAP", "AP50", "AP75", "AP_small", "AP_medium", "AP_large"):
            assert getattr(got, field) == pytest.approx(want[field], abs=1e-9), field
        assert set(got.per_category) == set(want["per_category"])
        for cat, block in want["per_category"].items():
            for field, value in block.items():
                assert getattr(got.per_category[cat], field) == pytest.approx(
                    value, abs=1e-9
                ), (cat, field)

    def test_random_micro_datasets_match_reference(self):
        for seed in range(40):
            self.assert_matches_oracle(*random_micro_dataset(random.Random(1000 + seed)))

    def test_ap50_dominates_ap75(self):
        for seed in range(40):
            preds_pkg, images_pkg, *_, categories = random_micro_dataset(
                random.Random(7000 + seed)
            )
            report = evaluate_ap(preds_pkg, images_pkg, categories=categories)
            assert report.AP50 >= report.AP75 - 1e-12


# --- the evaluate_ap that scored one IoU pair and one threshold at a time ------
# Kept verbatim (only the entry point is renamed) as the reference for the
# one-candidate-order evaluate_ap.


class _Det(NamedTuple):
    index: int  # global input position, the score tie-breaker
    score: float
    area: int
    mask: RasterMask


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


def reference_evaluate_ap(
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


def _blob(rng: random.Random, width: int, height: int) -> RasterMask:
    """A rectangle of 1-4 x 1-4 pixels (areas divisible by 2 and 4 are common),
    a few scattered pixels, or, rarely, nothing."""
    kind = rng.random()
    if kind < 0.05:
        return RasterMask.zeros(width, height)
    if kind < 0.8:
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        x0, y0 = rng.randrange(width - w + 1), rng.randrange(height - h + 1)
        return rect_mask(width, height, x0, y0, x0 + w, y0 + h)
    pixels = {(rng.randrange(width), rng.randrange(height)) for _ in range(rng.randint(1, 6))}
    return make_mask(width, height, pixels)


def _near(rng: random.Random, truth: RasterMask) -> RasterMask:
    """A detection of `truth`: itself, a half or three quarters of its pixels
    (IoU exactly 1/2 or 3/4 when its area allows), a superset, or a shift."""
    arr = truth.pixels.copy()
    ys, xs = np.nonzero(arr)
    kind = rng.choice(("same", "half", "three_quarters", "superset", "shift"))
    if kind in ("half", "three_quarters") and ys.size:
        keep = ys.size // 2 if kind == "half" else 3 * ys.size // 4
        drop = rng.sample(range(ys.size), ys.size - max(1, keep))
        arr[ys[drop], xs[drop]] = False
    elif kind == "superset":
        for _ in range(rng.randint(1, 4)):
            arr[rng.randrange(arr.shape[0]), rng.randrange(arr.shape[1])] = True
    elif kind == "shift":
        arr = np.roll(arr, rng.choice((-1, 1)), axis=rng.choice((0, 1)))
    return RasterMask(arr)


def scoring_case(rng: random.Random):
    """An evaluate_ap problem: 1-5 images, up to 4 categories with ground truth
    plus one without, tied scores, IoUs of exactly 1/2 and 3/4, max_dets 1-5,
    default or custom band limits, and empty cells."""
    width, height = rng.choice(((6, 6), (9, 5), (16, 12)))
    cats = list(range(1, rng.randint(1, 4) + 1))
    truthless = len(cats) + 1
    images, preds = [], []
    for image_id in range(1, rng.randint(1, 5) + 1):
        masks = [_blob(rng, width, height) for _ in range(rng.randint(0, 5))]
        gt_cats = [rng.choice(cats) for _ in masks]
        anns = tuple(
            InstanceAnnotation(100 * image_id + k, c, f"cat{c}", m, bbox_of(m), area(m), None)
            for k, (m, c) in enumerate(zip(masks, gt_cats))
        )
        images.append(ImageRecord(image_id, width, height, f"{image_id}.jpg", anns))
        for _ in range(rng.randint(0, 7)):
            if masks and rng.random() < 0.75:
                k = rng.randrange(len(masks))
                m = _near(rng, masks[k])
                cat = gt_cats[k] if rng.random() < 0.85 else rng.choice(cats + [truthless])
            else:
                m = _blob(rng, width, height)
                cat = rng.choice(cats + [truthless])
            score = rng.choice((0.25, 0.5, 0.5, 0.75, 1.0))
            preds.append(PredictionInstance(image_id=image_id, mask=m, score=score, category_id=cat))
    if rng.random() < 0.5:
        small = rng.randint(1, 10)
        bands = dict(small_ceiling=small, large_floor=rng.randint(small, 20))
    else:
        bands = {}
    protocol = ApProtocol(max_dets=rng.randint(1, 5), **bands)
    return preds, images, protocol, set(cats) | {truthless}


class TestEvaluateApAgainstTheOnePairReference:
    def test_seeded_cases_report_equal(self):
        ious = set()
        for seed in range(2000):
            preds, images, protocol, categories = scoring_case(random.Random(seed))
            got = evaluate_ap(preds, images, protocol, categories)
            want = reference_evaluate_ap(preds, images, protocol, categories)
            assert isinstance(got, ApReport) and got == want, seed
            if seed % 10 == 0:
                by_id = {img.image_id: img for img in images}
                ious.update(mask_iou(p.mask, a.mask) for p in preds for a in by_id[p.image_id].annotations)
        assert {0.5, 0.75} <= ious

    def test_custom_thresholds_and_recall_points(self):
        protocol = ApProtocol(
            iou_thresholds=(0.3, 0.5, 0.6, 0.75, 1.0), recall_points=(0.0, 0.25, 0.5, 1.0), max_dets=3
        )
        for seed in range(300):
            preds, images, _, categories = scoring_case(random.Random(10_000 + seed))
            got = evaluate_ap(preds, images, protocol, categories)
            assert got == reference_evaluate_ap(preds, images, protocol, categories), seed

    def test_workload_shaped_cells(self):
        # many detections per cell on one canvas, so the IoUs come from the
        # stacked product rather than pair by pair
        rng = random.Random(5)
        side = 48
        masks = [
            rect_mask(side, side, x, y, x + w, y + h)
            for x, y, w, h in (
                (rng.randrange(30), rng.randrange(30), rng.randint(4, 18), rng.randint(4, 18))
                for _ in range(30)
            )
        ]
        cats = [rng.randint(1, 2) for _ in masks]
        images = [image_with_masks(1, masks, cats)]
        preds = [
            PredictionInstance(1, _near(rng, masks[k]), rng.choice((0.3, 0.6, 0.9)), cats[k])
            for k in (rng.randrange(len(masks)) for _ in range(80))
        ]
        for protocol in (ApProtocol(), ApProtocol(max_dets=20, small_ceiling=40, large_floor=120)):
            assert evaluate_ap(preds, images, protocol) == reference_evaluate_ap(preds, images, protocol)

    @pytest.mark.parametrize(
        "gt_box, det_box, thresholds",
        [
            pytest.param((25, 1), (7, 1), (0.28, 0.5, 0.75), id="areas-7-and-25-at-0.28"),
            pytest.param((25, 2), (7, 1), (0.14, 0.5, 0.75), id="areas-7-and-50-at-0.14"),
            pytest.param((2, 1), (1, 1), ApProtocol().iou_thresholds, id="areas-1-and-2-at-0.5"),
        ],
    )
    def test_an_iou_at_the_first_threshold_is_a_match(self, gt_box, det_box, thresholds):
        # the detection lies inside its ground truth, so its IoU is the
        # quotient of the areas, which rounds to the first threshold: a
        # bound on the areas must keep the pair, though the exact ratios
        # 7/25 and 7/50 lie below the floats 0.28 and 0.14
        gt, det = rect_mask(32, 4, 0, 0, *gt_box), rect_mask(32, 4, 0, 0, *det_box)
        assert area(det) / area(gt) == thresholds[0]
        protocol = ApProtocol(iou_thresholds=thresholds)
        images = [image_with_masks(1, [gt], [1])]
        want = reference_evaluate_ap([pred(1, det)], images, protocol)
        assert want.mAP == 1.0 / len(thresholds)  # a match at the first threshold alone
        for mask in (det, rle_encode(det)):
            assert evaluate_ap([pred(1, mask)], images, protocol) == want

    def test_empty_masks(self):
        # an empty mask shares no pixel with any mask: its IoU with an empty
        # ground truth is 0 too, so only the two non-empty masks match
        empty, square = make_mask(8, 8), rect_mask(8, 8, 0, 0, 4, 4)
        images = [image_with_masks(1, [empty, square], [1, 1])]
        scores = (0.9, 0.5, 0.3)
        want = reference_evaluate_ap([pred(1, m, s) for m, s in zip((empty, square, empty), scores)], images)
        assert want.AP50 == ap_of_ranks([1], [], 2, ApProtocol().recall_points)
        for masks in ((empty, square, empty), (rle_encode(empty), rle_encode(square), rle_encode(empty))):
            assert evaluate_ap([pred(1, m, s) for m, s in zip(masks, scores)], images) == want


class TestEvaluateSemseg:
    def test_identical_masks_score_one(self):
        m = rect_mask(16, 16, 2, 2, 10, 10)
        score = evaluate_semseg({1: m}, {1: m})
        assert score.gIoU == 1.0 and score.cIoU == 1.0 and score.warnings == ()

    def test_one_hit_one_complete_miss_averages_to_half(self):
        # image 1: exact match (100 px); image 2: disjoint 50 px masks.
        # per-image IoUs 1.0 and 0.0 average to 0.5; pooled pixels agree
        # here because intersection 100 over union 100+50+50 is also 0.5.
        gt1 = rect_mask(32, 32, 0, 0, 10, 10)
        gt2 = rect_mask(32, 32, 0, 0, 10, 5)
        pr2 = rect_mask(32, 32, 0, 16, 10, 21)
        score = evaluate_semseg({1: gt1, 2: pr2}, {1: gt1, 2: gt2})
        assert score.gIoU == 0.5
        assert score.cIoU == 0.5

    def test_per_image_versus_pooled_weighting(self):
        # big perfect image + tiny half-miss: gIoU weighs images equally,
        # cIoU barely moves because the tiny image holds few pixels
        big = rect_mask(64, 64, 0, 0, 40, 40)  # 1600 px
        gt_small = rect_mask(64, 64, 0, 0, 2, 1)
        pr_small = rect_mask(64, 64, 1, 0, 3, 1)  # inter 1, union 3
        score = evaluate_semseg({1: big, 2: pr_small}, {1: big, 2: gt_small})
        assert score.gIoU == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)
        assert score.cIoU == pytest.approx(1601.0 / 1603.0)

    def test_missing_prediction_counts_truth_pixels(self):
        gt1 = rect_mask(16, 16, 0, 0, 4, 4)
        gt2 = rect_mask(16, 16, 0, 0, 8, 2)
        score = evaluate_semseg({1: gt1}, {1: gt1, 2: gt2})
        assert score.gIoU == 0.5
        assert score.cIoU == pytest.approx(16.0 / 32.0)
        assert len(score.warnings) == 1 and "image 2" in score.warnings[0]

    def test_all_empty_masks_score_zero(self):
        empty = RasterMask.zeros(8, 8)
        score = evaluate_semseg({1: empty}, {1: empty})
        assert score.gIoU == 0.0 and score.cIoU == 0.0

    def test_unknown_prediction_image_rejected(self):
        m = rect_mask(8, 8, 0, 0, 2, 2)
        with pytest.raises(EvalValidationError, match="unknown image_id 3"):
            evaluate_semseg({3: m}, {1: m})

    def test_size_mismatch_rejected(self):
        with pytest.raises(EvalValidationError, match="prediction is 8x8"):
            evaluate_semseg({1: rect_mask(8, 8, 0, 0, 2, 2)}, {1: rect_mask(16, 8, 0, 0, 2, 2)})

    def test_no_ground_truth_rejected(self):
        with pytest.raises(EvalValidationError):
            evaluate_semseg({}, {})

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(coded_pairs(), st.sampled_from(["both", "no prediction", "masks", "mixed"])),
                    min_size=1, max_size=5))
    def test_codes_and_masks_score_alike(self, images):
        # codes are scored from their runs; masks are encoded first, so both
        # forms, and a mix of them, give the same floats and warnings
        preds, gts, pred_masks, gt_masks = {}, {}, {}, {}
        for image_id, ((pred_code, gt_code), how) in enumerate(images):
            gts[image_id], gt_masks[image_id] = gt_code, rle_decode(gt_code)
            if how != "no prediction":
                preds[image_id], pred_masks[image_id] = pred_code, rle_decode(pred_code)
            if how == "masks":
                preds[image_id], gts[image_id] = pred_masks[image_id], gt_masks[image_id]
            elif how == "mixed":
                preds[image_id] = pred_masks[image_id]
        assert evaluate_semseg(preds, gts) == evaluate_semseg(pred_masks, gt_masks)

    def test_giou_is_exact_mean_of_per_image_ious(self, rng):
        from conftest import random_mask
        from segdial.mask import mask_iou

        gts = {i: random_mask(rng, 12, 12) for i in range(1, 8)}
        preds = {i: random_mask(rng, 12, 12) for i in range(1, 8)}
        score = evaluate_semseg(preds, gts)
        per_image = [mask_iou(preds[i], gts[i]) for i in gts]
        assert score.gIoU == math.fsum(per_image) / len(per_image)
