import math
import random

import numpy as np
import pytest

import oracles
from conftest import image_with_masks, make_mask, random_micro_dataset, rect_mask
from segdial.mask import RasterMask
from segdial.metrics import (
    ApBlock,
    ApProtocol,
    EvalValidationError,
    PredictionInstance,
    evaluate_ap,
    evaluate_semseg,
)

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

    def test_giou_is_exact_mean_of_per_image_ious(self, rng):
        from conftest import random_mask
        from segdial.mask import mask_iou

        gts = {i: random_mask(rng, 12, 12) for i in range(1, 8)}
        preds = {i: random_mask(rng, 12, 12) for i in range(1, 8)}
        score = evaluate_semseg(preds, gts)
        per_image = [mask_iou(preds[i], gts[i]) for i in gts]
        assert score.gIoU == math.fsum(per_image) / len(per_image)
