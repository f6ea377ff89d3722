"""Micro-benchmarks of the scoring layers: the pairwise cost matrix and
`evaluate_ap`, on the shapes the benchmark workloads give them; one cell
scored on bitsets built from run-length codes (what `evaluate --mode inst`
runs), and the building of those bitsets; `evaluate_ap` on whole
datasets of `RasterMask`s and on the same datasets held as bitsets; and the
whole-image scores of `evaluate --mode sem` on the eval_coco workload (seed
0), counted on bitsets (what the CLI runs) next to the same scores through
the `segdial.mask` names (`rle_decode`, `rasterize`, `mask_union`,
`overlap`). Those names run the same geometry kernels through the
`RasterMask` view, so the pair measures the view's overhead, not a second
implementation.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from segdial.curation import ImageRecord, InstanceAnnotation
from segdial.dataset_io import _read_coco, load_coco_masks, read_prediction_masks
from segdial.geometry import Bitset, bitset, bitset_union
from segdial.instances import as_bitset
from segdial.mask import (
    Polygon, RasterMask, area, bbox_of, mask_union, overlap, rasterize, rle_decode, rle_encode,
)
from segdial.matching import build_cost_matrix
from segdial.metrics import PredictionInstance, evaluate_ap, evaluate_semseg

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from pixel_masks import mask_of  # noqa: E402


def _star(rng, width, height, r):
    """A jagged star of radius about `r` placed inside the canvas."""
    cx, cy = rng.uniform(r, width - r), rng.uniform(r, height - r)
    angles = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    radii = r * rng.uniform(0.5, 1.0, angles.size)
    return rasterize(Polygon(tuple(zip(cx + radii * np.cos(angles), cy + radii * np.sin(angles)))), width, height)


def _jitter(rng, m):
    """`m` moved by up to two pixels, as a prediction of it."""
    arr = np.roll(m.pixels, tuple(int(v) for v in rng.integers(-2, 3, 2)), axis=(0, 1))
    return RasterMask(arr)


def _cell(rng, width, height, n_pred, n_gt, radii):
    gts = [_star(rng, width, height, rng.uniform(*radii)) for _ in range(n_gt)]
    preds = [_jitter(rng, gts[int(rng.integers(n_gt))]) for _ in range(n_pred)]
    return preds, gts


_rng = np.random.default_rng(0)
CELLS = {
    "dense_100x60_128": _cell(_rng, 128, 128, 100, 60, (14, 36)),
    "sparse_24x7_640x480": _cell(_rng, 640, 480, 24, 7, (7, 50)),
    "tiny_3x2": _cell(_rng, 640, 480, 3, 2, (7, 50)),
}


@pytest.mark.parametrize("name", list(CELLS))
def test_cost_matrix(benchmark, name):
    preds, gts = CELLS[name]
    assert benchmark(build_cost_matrix, preds, gts).shape == (len(preds), len(gts))


@pytest.fixture(scope="module", params=["dense_100x60_128", "sparse_24x7_640x480"])
def coded_cell(request):
    """(prediction codes, ground-truth codes) of one cell."""
    preds, gts = CELLS[request.param]
    return [rle_encode(m) for m in preds], [rle_encode(m) for m in gts]


def _bitset_cell(pred_codes, gt_codes):
    """The cell as one image and one category of bitsets, scores descending."""
    gts = [bitset(c, c.width, c.height) for c in gt_codes]
    anns = tuple(InstanceAnnotation(k, 1, "kind1", g, None, g.area, None) for k, g in enumerate(gts))
    image = ImageRecord(1, gt_codes[0].width, gt_codes[0].height, "1.jpg", anns)
    preds = [
        PredictionInstance(1, bitset(c, c.width, c.height), 1.0 - k / len(pred_codes), 1)
        for k, c in enumerate(pred_codes)
    ]
    return preds, [image]


def test_cell_bitsets_and_ap(benchmark, coded_cell):
    # the counting of every pair and the AP accumulation of `evaluate --mode inst`
    preds, images = _bitset_cell(*coded_cell)
    assert 0.0 < benchmark(evaluate_ap, preds, images).mAP <= 1.0


def test_cell_bitsets_from_codes(benchmark, coded_cell):
    # building the bitsets the cell is scored on
    codes = [c for side in coded_cell for c in side]
    built = benchmark(lambda: [bitset(c, c.width, c.height) for c in codes])
    assert sum(b.area for b in built) == sum(sum(c.counts[1::2]) for c in codes)


def _dataset(rng, images, width, height, n_gt, n_pred, categories, radii):
    """Ground-truth images and scored predictions, most of them jittered copies."""
    records, preds = [], []
    for image_id in range(1, images + 1):
        preds_here, gts = _cell(rng, width, height, n_pred, n_gt, radii)
        cats = [int(c) for c in rng.choice(categories, n_gt)]
        anns = tuple(
            InstanceAnnotation(1000 * image_id + k, c, f"kind{c}", m, bbox_of(m), area(m), None)
            for k, (m, c) in enumerate(zip(gts, cats))
        )
        records.append(ImageRecord(image_id, width, height, f"{image_id}.jpg", anns))
        for m in preds_here:
            cat = cats[int(rng.integers(n_gt))]
            preds.append(PredictionInstance(image_id, m, round(float(rng.random()), 4), cat))
    return preds, records


DATASETS = {
    "match_dense_like": _dataset(_rng, 8, 128, 128, 60, 100, np.arange(1, 4), (14, 36)),
    "eval_coco_like": _dataset(_rng, 12, 640, 480, 7, 24, np.arange(1, 81), (7, 50)),
}


def _held_as_bitsets(preds, images):
    """`preds` and `images` with every mask already a Bitset, so a timing
    holds the counting and the AP accumulation but no `to_bitset`."""
    return (
        [p._replace(mask=as_bitset(p.mask)) for p in preds],
        [img._replace(annotations=tuple(a._replace(mask=as_bitset(a.mask)) for a in img.annotations))
         for img in images],
    )


DATASETS.update({f"{name}_bitsets": _held_as_bitsets(*data) for name, data in list(DATASETS.items())})


@pytest.mark.parametrize("name", list(DATASETS))
def test_evaluate_ap(benchmark, name):
    preds, images = DATASETS[name]
    report = benchmark(evaluate_ap, preds, images)
    assert 0.0 <= report.mAP <= 1.0
    if name.endswith("_bitsets"):
        assert report == evaluate_ap(*DATASETS[name.removesuffix("_bitsets")])


@pytest.fixture(scope="module")
def semantic_inputs(tmp_path_factory):
    """(images as `load_coco_masks` reads them, ground-truth (geometry,
    width, height) by annotation id, predictions as `read_prediction_masks`
    reads them) of the eval_coco workload, read without decoding."""
    files = workloads.generate("eval_coco", 0, tmp_path_factory.mktemp("eval_coco")).files
    _, meta, annotations = _read_coco(files["gt"])
    geometries = {
        ann["id"]: (g, meta[ann["image_id"]]["width"], meta[ann["image_id"]]["height"]) for ann, g in annotations
    }
    return load_coco_masks(files["gt"]).images, geometries, read_prediction_masks(files["sem_preds"])


def _semseg_from_bitsets(images, geometries, predictions):
    preds = {p.image_id: p.mask for p in predictions}
    gts = {
        img.image_id: bitset_union([as_bitset(a.mask) for a in img.annotations])
        if img.annotations else Bitset(img.width, img.height, 0, 0, 0)
        for img in images
    }
    score = evaluate_semseg(preds, gts)
    return score.gIoU, score.cIoU


def _semseg_through_pixels(images, geometries, predictions):
    preds = {p.image_id: rle_decode(p.mask) for p in predictions}  # run-length codes
    per_image, inter_total, union_total = [], 0, 0
    for img in images:
        gt = (mask_union([mask_of(*geometries[a.instance_id]) for a in img.annotations])
              if img.annotations else RasterMask.zeros(img.width, img.height))
        inter, union = overlap(preds[img.image_id], gt)
        per_image.append(inter / union if union else 0.0)
        inter_total += inter
        union_total += union
    return math.fsum(per_image) / len(per_image), inter_total / union_total if union_total else 0.0


def test_semseg_from_bitsets(benchmark, semantic_inputs):
    scores = benchmark(_semseg_from_bitsets, *semantic_inputs)
    assert scores == _semseg_through_pixels(*semantic_inputs)


def test_semseg_through_pixels(benchmark, semantic_inputs):
    assert benchmark(_semseg_through_pixels, *semantic_inputs)
