"""Acceptance gate: nine end-to-end guarantees, one test and scorecard line each.

Every test funnels through `scored(...)` so the terminal summary of a full run
prints PASS/FAIL per guarantee (see pytest_terminal_summary in conftest).
"""

import contextlib
import json
import math
import random
import time

import numpy as np
import pytest

import oracles
from conftest import (
    ACCEPTANCE_REPORT,
    ann_from_mask,
    coco_payload,
    image_with_masks,
    random_canonical_dialogue,
    random_mask,
    random_micro_dataset,
    random_star_polygon,
    rect_mask,
    rle_obj,
    write_json,
)
from segdial.cli import main
from segdial.curation import DropEntry, filter_dataset
from segdial.dataset_io import read_records, write_predictions
from segdial.mask import (
    Polygon,
    RasterMask,
    mask_iou,
    mask_union,
    rasterize,
    rle_decode,
    rle_encode,
)
from segdial.matching import hungarian
from segdial.metrics import PredictionInstance, evaluate_ap, evaluate_semseg
from segdial.parsing import (
    SegRef,
    from_training_record,
    parse_sid_response,
    render_dialogue,
    to_training_record,
)
from segdial.transforms import to_pure_text, to_semantic

AP_FIELDS = ("mAP", "AP50", "AP75", "AP_small", "AP_medium", "AP_large")


@contextlib.contextmanager
def scored(line):
    try:
        yield
    except BaseException:
        ACCEPTANCE_REPORT.append(f"FAIL  {line}")
        raise
    ACCEPTANCE_REPORT.append(f"PASS  {line}")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SEGDIAL_SEED", raising=False)
    monkeypatch.delenv("SEGDIAL_JOBS", raising=False)


def test_1_assignment_cost_equals_exhaustive_minimum():
    with scored("1/9 assignment total cost equals the exhaustive minimum on 1000 matrices in <10s"):
        rng = random.Random(1101)
        start = time.monotonic()
        for trial in range(1000):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            roll = rng.random()
            if roll < 0.40:  # coarse grid so ties are everywhere
                costs = [[rng.randrange(0, 9) / 4.0 for _ in range(m)] for _ in range(n)]
            elif roll < 0.50:  # fully degenerate: every assignment optimal
                v = rng.uniform(0.0, 2.0)
                costs = [[v] * m for _ in range(n)]
            else:
                costs = [[rng.uniform(0.0, 5.0) for _ in range(m)] for _ in range(n)]
            got = hungarian(np.array(costs, dtype=float))
            best_total, _ = oracles.brute_force_assignment(costs)
            assert got.total_cost == best_total, (trial, costs)
            assert len(got.pairs) == min(n, m)
            assert math.fsum(costs[i][j] for i, j in got.pairs) == best_total
        assert time.monotonic() - start < 10.0


def _perfect_banded_image():
    # one object per area band: 100 / 1600 / 10000 pixels on a 128x128 canvas
    masks = [
        rect_mask(128, 128, 0, 0, 10, 10),
        rect_mask(128, 128, 80, 0, 120, 40),
        rect_mask(128, 128, 0, 20, 100, 120),
    ]
    image = image_with_masks(1, masks, [1, 1, 1])
    preds = [
        PredictionInstance(image_id=1, mask=m, score=1.0, category_id=1) for m in masks
    ]
    return preds, image


def _assert_matches_oracle(preds_pkg, images_pkg, preds_dict, images_dict, categories):
    got = evaluate_ap(preds_pkg, images_pkg, categories=categories)
    want = oracles.reference_ap(preds_dict, images_dict)
    for field in AP_FIELDS:
        assert getattr(got, field) == pytest.approx(want[field], abs=1e-9), field
    assert set(got.per_category) == set(want["per_category"])
    for cat, block in want["per_category"].items():
        for field, value in block.items():
            assert getattr(got.per_category[cat], field) == pytest.approx(
                value, abs=1e-9
            ), (cat, field)
    return got


def test_2_instance_ap_matches_independent_reimplementation():
    with scored("2/9 instance AP matches an independent scorer within 1e-9 on 200 datasets"):
        for seed in range(200):
            preds_pkg, images_pkg, preds_dict, images_dict, categories = (
                random_micro_dataset(random.Random(12000 + seed))
            )
            _assert_matches_oracle(preds_pkg, images_pkg, preds_dict, images_dict, categories)
            silent = evaluate_ap([], images_pkg, categories=categories)
            assert all(getattr(silent, f) == 0.0 for f in AP_FIELDS)
            for block in silent.per_category.values():
                assert all(getattr(block, f) == 0.0 for f in AP_FIELDS)

        preds, image = _perfect_banded_image()
        full = evaluate_ap(preds, [image])
        assert all(getattr(full, f) == 1.0 for f in AP_FIELDS)
        assert all(getattr(full.per_category[1], f) == 1.0 for f in AP_FIELDS)
        none = evaluate_ap([], [image])
        assert all(getattr(none, f) == 0.0 for f in AP_FIELDS)


def test_3_looser_overlap_threshold_never_scores_lower():
    with scored("3/9 AP50 >= AP75 on every randomized dataset"):
        for seed in range(200):
            preds_pkg, images_pkg, *_, categories = random_micro_dataset(
                random.Random(12000 + seed)
            )
            report = evaluate_ap(preds_pkg, images_pkg, categories=categories)
            assert report.AP50 >= report.AP75, seed
            for cat, block in report.per_category.items():
                assert block.AP50 >= block.AP75, (seed, cat)


def test_4_mask_codecs_round_trip_and_match_pixel_center_oracle():
    with scored("4/9 RLE round-trips 1000 masks exactly; rasterizer matches the pixel-center oracle on 200 polygons"):
        rng = random.Random(4104)
        for _ in range(1000):
            w, h = rng.randint(1, 64), rng.randint(1, 64)
            density = rng.choice((None, None, None, 0.0, 1.0, 0.05, 0.95))
            m = random_mask(rng, w, h, density=density)
            assert rle_decode(rle_encode(m)) == m
        for _ in range(200):
            w, h = rng.randint(6, 32), rng.randint(6, 32)
            vertices = random_star_polygon(rng, w, h)
            got = rasterize(Polygon(vertices), w, h)
            want = oracles.rasterize_reference(vertices, w, h)
            assert np.array_equal(got.pixels, want)


def _flat_mask(width, height, n_pixels):
    arr = np.zeros((height, width), dtype=bool)
    arr.reshape(-1)[:n_pixels] = True
    return RasterMask(arr)


def test_5_size_filters_are_boundary_inclusive():
    with scored("5/9 512px-side and 400px2-area floors keep/drop boundary cases exactly"):
        def record(image_id, width, height, areas):
            masks = [_flat_mask(width, height, a) for a in areas]
            return image_with_masks(
                image_id, masks, [1] * len(masks), width=width, height=height
            )

        records = [
            record(1, 511, 511, [399, 400, 401]),
            record(2, 512, 512, [399, 400, 401]),
            record(3, 513, 513, [399, 400, 401]),
            record(4, 512, 512, [399]),
            record(5, 513, 511, [500]),
            record(6, 512, 513, [400]),
        ]
        result = filter_dataset(records)

        assert [rec.image_id for rec in result.kept] == [2, 3, 6]
        assert [a.instance_id for a in result.kept[0].annotations] == [2002, 2003]
        assert [a.area for a in result.kept[0].annotations] == [400, 401]
        assert [a.instance_id for a in result.kept[1].annotations] == [3002, 3003]
        assert [a.instance_id for a in result.kept[2].annotations] == [6001]
        assert result.dropped == (
            DropEntry(1, None, "image below 512x512"),
            DropEntry(2, 2001, "object area under 400 square pixels"),
            DropEntry(3, 3001, "object area under 400 square pixels"),
            DropEntry(4, 4001, "object area under 400 square pixels"),
            DropEntry(4, None, "image has no remaining objects"),
            DropEntry(5, None, "image below 512x512"),
        )


def test_6_dialogue_records_round_trip_through_every_serialization():
    with scored("6/9 500 dialogue records round-trip bytewise; the two-keyboard reply parses to one two-id reference"):
        for seed in range(500):
            text, labels = random_canonical_dialogue(random.Random(26000 + seed))
            result = parse_sid_response(text, labels)
            assert result.diagnostics == (), (seed, result.diagnostics)
            assert render_dialogue(result.record) == text
            again = parse_sid_response(render_dialogue(result.record), labels)
            assert again.record == result.record
            back = from_training_record(to_training_record(result.record), labels)
            assert back == result.record

        text = (
            "<person>: Where are the keyboards?\n"
            "<robot>: keyboards <34494; keyboard> <31264; keyboard>"
        )
        rec = parse_sid_response(text, {34494: "keyboard", 31264: "keyboard"}).record
        refs = [s for s in rec.turns[1].segments if isinstance(s, SegRef)]
        assert len(refs) == 1
        assert refs[0].instance_ids == (34494, 31264)
        serialized = to_training_record(rec).turns[1]
        assert serialized.text.count("<SEG>") == 2
        assert serialized.seg_ids == (34494, 31264)


def _annotations_for(labels_by_id):
    category = {lab: n + 1 for n, lab in enumerate(sorted(set(labels_by_id.values())))}
    anns = []
    for n, (instance_id, label) in enumerate(sorted(labels_by_id.items())):
        x0, y0 = (n * 3) % 62, (n * 5) % 62
        mask = rect_mask(64, 64, x0, y0, x0 + 2, y0 + 2)
        anns.append(ann_from_mask(instance_id, category[label], label, mask))
    return anns, category


def test_7_rewrites_drop_tokens_and_preserve_pixels():
    with scored("7/9 text stripping leaves no <SEG>; category merging ORs member pixels, one slot per category"):
        rng = random.Random(7107)
        merged_checked = 0
        total = 0
        while merged_checked < 500 or total < 500:
            assert total < 3000, "generator starved the merge branch"
            total += 1
            text, labels = random_canonical_dialogue(rng)
            result = parse_sid_response(text, labels)
            assert result.diagnostics == ()
            rec = result.record

            pure = to_pure_text(rec)
            for turn in to_training_record(pure).turns:
                assert "<SEG>" not in turn.text
                assert turn.seg_ids == ()

            if rec.task_mode != "sid_instseg":
                continue
            anns, category = _annotations_for(labels)
            mask_by_id = {a.instance_id: a.mask for a in anns}
            sem, merged = to_semantic(rec, anns)
            sem_serialized = to_training_record(sem)
            for orig_turn, sem_turn in zip(rec.turns, sem_serialized.turns):
                cats = {
                    category[labels[i]]
                    for seg in orig_turn.segments
                    if isinstance(seg, SegRef)
                    for i in seg.instance_ids
                }
                assert len(sem_turn.seg_ids) == len(cats)
            for group in merged:
                want = np.logical_or.reduce(
                    [mask_by_id[i].pixels for i in group.member_ids]
                )
                assert np.array_equal(group.mask.pixels, want)
                assert group.instance_id == min(group.member_ids)
            merged_checked += 1


def test_8_semantic_scores_average_per_image_and_pool_pixels():
    with scored("8/9 one hit + one miss with equal unions: gIoU is exactly 0.5 and cIoU the pooled pixel ratio"):
        gts = {
            1: rect_mask(64, 64, 0, 0, 10, 10),
            2: rect_mask(64, 64, 0, 0, 10, 5),
        }
        preds = {
            1: rect_mask(64, 64, 0, 0, 10, 10),
            2: rect_mask(64, 64, 20, 20, 30, 25),
        }
        per_image = [mask_iou(preds[i], gts[i]) for i in (1, 2)]
        assert sorted(per_image) == [0.0, 1.0]
        unions = [
            int(np.count_nonzero(preds[i].pixels | gts[i].pixels)) for i in (1, 2)
        ]
        assert unions[0] == unions[1]

        score = evaluate_semseg(preds, gts)
        assert score.gIoU == 0.5
        inter = sum(int(np.count_nonzero(preds[i].pixels & gts[i].pixels)) for i in (1, 2))
        assert score.cIoU == inter / sum(unions)
        assert score.cIoU == 0.5


PIPELINE_CATEGORIES = [(3, "keyboard"), (5, "lamp"), (7, "cat")]

PIPELINE_QA = {
    1: "<person>: Where are the keyboards?\n"
       "<robot>: keyboards <101; keyboard> <102; keyboard>\n"
       "<person>: and the light?\n"
       "<robot>: a lamp <103; lamp>",
    2: "<person>: who sits by the lamp?\n"
       "<robot>: a cat <201; cat> beside the lamp <202; lamp>",
    3: "<person>: any keyboards?\n<robot>: one keyboard <301; keyboard>",
    4: "<person>: how many cats?\n<robot>: cats <401; cat> <402; cat> <403; cat>",
    5: "<person>: what is on the desk?\n"
       "<robot>: a lamp <501; lamp> near a keyboard <502; keyboard>",
    6: "<person>: describe the scene\n"
       "<robot>: a cat <601; cat> and a keyboard <602; keyboard>",
}

PIPELINE_INSTSEG = {
    1: "Q1: What do people type on?\n"
       "A1: instance id is 101, label name is keyboard; instance id is 102, label name is keyboard\n"
       "Q2: What lights the room?\nA2: instance id is 103, label name is lamp",
    2: "Q1: Who is by the lamp?\nA1: instance id is 201, label name is cat\n"
       "Q2: What shines?\nA2: instance id is 202, label name is lamp",
    3: "Q1: Any keyboards?\nA1: instance id is 301, label name is keyboard",
    4: "Q1: How many cats?\n"
       "A1: instance id is 401, label name is cat; instance id is 402, label name is cat; "
       "instance id is 403, label name is cat",
    5: "Q1: What sits on the desk?\n"
       "A1: instance id is 501, label name is lamp; instance id is 502, label name is keyboard",
    6: "Q1: Who naps here?\nA1: instance id is 601, label name is cat\n"
       "Q2: Typing on what?\nA2: instance id is 602, label name is keyboard",
}


def _pipeline_gt():
    """Seven-image dataset: six keepable 512x512 images, one undersized image,
    one under-area object, three categories with cross-image overlap."""
    r = rect_mask
    anns = {
        101: (1, 3, r(512, 512, 10, 10, 40, 40)),
        102: (1, 3, r(512, 512, 100, 100, 130, 130)),
        103: (1, 5, r(512, 512, 200, 200, 230, 230)),
        201: (2, 7, r(512, 512, 5, 5, 35, 35)),
        202: (2, 5, r(512, 512, 60, 60, 90, 90)),
        301: (3, 3, r(512, 512, 300, 300, 340, 340)),
        401: (4, 7, r(512, 512, 10, 10, 31, 31)),
        402: (4, 7, r(512, 512, 50, 50, 71, 71)),
        403: (4, 7, r(512, 512, 100, 100, 121, 121)),
        501: (5, 5, r(512, 512, 5, 5, 26, 26)),
        502: (5, 3, r(512, 512, 40, 40, 61, 61)),
        601: (6, 7, r(512, 512, 0, 0, 21, 21)),
        602: (6, 3, r(512, 512, 30, 30, 51, 51)),
        603: (6, 5, r(512, 512, 60, 60, 70, 65)),  # 50 px: curate drops it
        701: (7, 5, r(400, 300, 0, 0, 30, 30)),  # undersized image
    }
    sizes = {i: (512, 512) for i in range(1, 7)}
    sizes[7] = (400, 300)
    images = []
    for image_id, (w, h) in sizes.items():
        rows = [
            (ann_id, cat, rle_obj(mask))
            for ann_id, (img, cat, mask) in sorted(anns.items())
            if img == image_id
        ]
        images.append((image_id, w, h, rows))
    payload = coco_payload(images, PIPELINE_CATEGORIES)
    return payload, anns, sizes


def _write_response_dir(root, name, texts):
    d = root / name
    d.mkdir()
    for image_id, text in texts.items():
        (d / f"{image_id}.txt").write_text(text, encoding="utf-8")
    return d


def _run_cli(argv):
    code = main([str(a) for a in argv])
    assert code == 0, argv
    return code


def _run_pipeline(root, shared, jobs):
    root.mkdir()
    gt, resp_qa, resp_inst, preds_inst, preds_sem = shared
    j = str(jobs)
    records_qa = root / "records_qa.jsonl"
    records_inst = root / "records_inst.jsonl"
    _run_cli(["curate", "--input", gt, "--task", "qa", "--client", "fixture",
              "--fixture-dir", resp_qa, "--out", root / "jobs.jsonl", "--jobs", j])
    _run_cli(["parse", "--responses", resp_qa, "--annotations", gt, "--task", "qa",
              "--out", records_qa])
    _run_cli(["parse", "--responses", resp_inst, "--annotations", gt, "--task", "instseg",
              "--out", records_inst])
    _run_cli(["transform", "--in", records_qa, "--to", "pure",
              "--out", root / "pure.jsonl"])
    _run_cli(["transform", "--in", records_qa, "--to", "sid-instseg",
              "--out", root / "sid_instseg.jsonl"])
    _run_cli(["transform", "--in", records_qa, "--to", "sid-semseg", "--annotations", gt,
              "--out", root / "sid_semseg.jsonl",
              "--merged-out", root / "sid_semseg.merged.jsonl"])
    _run_cli(["transform", "--in", records_inst, "--to", "instseg",
              "--out", root / "instseg.jsonl"])
    _run_cli(["transform", "--in", records_inst, "--to", "semseg", "--annotations", gt,
              "--out", root / "semseg.jsonl",
              "--merged-out", root / "semseg.merged.jsonl"])
    _run_cli(["match", "--preds", preds_inst, "--gt", gt,
              "--out", root / "match.jsonl"])
    _run_cli(["evaluate", "--gt", gt, "--preds", preds_inst, "--mode", "inst",
              "--out", root / "report_inst.json"])
    _run_cli(["evaluate", "--gt", gt, "--preds", preds_sem, "--mode", "sem",
              "--out", root / "report_sem.json"])
    _run_cli(["split", "--in", records_qa, "--train-out", root / "train.jsonl",
              "--eval-out", root / "eval.jsonl", "--eval-fraction", "0.25"])
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_9_cli_pipeline_is_deterministic_end_to_end(tmp_path, capsys):
    with scored("9/9 curate/parse/transform/match/evaluate/split pipeline runs <30s with byte-identical reruns and --jobs 1 vs 8"):
        payload, anns, sizes = _pipeline_gt()
        gt = tmp_path / "gt.json"
        write_json(gt, payload)
        resp_qa = _write_response_dir(tmp_path, "responses_qa", PIPELINE_QA)
        resp_inst = _write_response_dir(tmp_path, "responses_inst", PIPELINE_INSTSEG)

        preds_inst = tmp_path / "preds_inst.jsonl"
        write_predictions(
            [
                PredictionInstance(image_id=img, mask=mask, score=1.0, category_id=cat)
                for ann_id, (img, cat, mask) in sorted(anns.items())
            ],
            preds_inst,
        )
        preds_sem = tmp_path / "preds_sem.jsonl"
        write_predictions(
            [
                PredictionInstance(
                    image_id=image_id,
                    mask=mask_union(
                        [m for _, (img, _, m) in sorted(anns.items()) if img == image_id]
                    ),
                    score=1.0,
                )
                for image_id in sorted(sizes)
            ],
            preds_sem,
        )
        shared = (gt, resp_qa, resp_inst, preds_inst, preds_sem)

        start = time.monotonic()
        first = _run_pipeline(tmp_path / "run_a", shared, jobs=1)
        second = _run_pipeline(tmp_path / "run_b", shared, jobs=1)
        wide = _run_pipeline(tmp_path / "run_c", shared, jobs=8)
        elapsed = time.monotonic() - start
        capsys.readouterr()

        assert elapsed < 30.0
        assert set(first) == {
            "jobs.jsonl", "jobs.dropped.jsonl",
            "records_qa.jsonl", "records_qa.diagnostics.jsonl",
            "records_inst.jsonl", "records_inst.diagnostics.jsonl",
            "pure.jsonl", "sid_instseg.jsonl",
            "sid_semseg.jsonl", "sid_semseg.merged.jsonl",
            "instseg.jsonl", "semseg.jsonl", "semseg.merged.jsonl",
            "match.jsonl", "report_inst.json", "report_sem.json",
            "train.jsonl", "eval.jsonl",
        }
        assert second == first
        assert wide == first

        run_a = tmp_path / "run_a"
        records = read_records(run_a / "records_qa.jsonl")
        assert [r.image_id for r in records] == [1, 2, 3, 4, 5, 6]
        assert all(r.task_mode == "sid_instseg" for r in records)
        assert len(read_records(run_a / "records_inst.jsonl")) == 9  # one per Q/A pair
        for name in ("pure", "sid_instseg", "sid_semseg", "instseg", "semseg"):
            assert (run_a / f"{name}.jsonl").read_bytes().count(b"\n") > 0
        inst_report = json.loads(first["report_inst.json"])
        assert inst_report["metrics"]["AP50"] == 1.0
        assert inst_report["metrics"]["mAP"] == 1.0
        assert set(inst_report["per_category"]) == {"3", "5", "7"}
        sem_report = json.loads(first["report_sem.json"])
        assert sem_report["metrics"]["gIoU"] == 1.0
        assert sem_report["metrics"]["cIoU"] == 1.0
