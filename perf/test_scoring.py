"""Micro-benchmarks of the scoring layers: the pairwise overlap matrix and
`evaluate_ap`, on the shapes the benchmark workloads give them.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import math

import numpy as np
import pytest

from segdial.curation import ImageRecord, InstanceAnnotation
from segdial.mask import Polygon, RasterMask, area, bbox_of, rasterize
from segdial.matching import build_cost_matrix
from segdial.metrics import PredictionInstance, evaluate_ap


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


@pytest.mark.parametrize("name", list(DATASETS))
def test_evaluate_ap(benchmark, name):
    preds, images = DATASETS[name]
    report = benchmark(evaluate_ap, preds, images)
    assert 0.0 <= report.mAP <= 1.0
