"""Micro-benchmarks of the matcher `hungarian` on the shapes it meets: drawn
matrices, and the per-image cost matrices that `match` builds on the seed-0
inputs of the match_dense (8 images) and eval_coco (12 images) workloads,
which `bench/workloads.py` writes into a temporary directory. Next to them,
the two layers `match` runs on Python lists: the cost rows of the dense
100x60 and sparse 24x7 cells of `test_scoring.py` from prebuilt bitsets, and
the solver `linear_sum_assignment` on the 100x60 and 24x7 matrices.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from segdial import matching
from segdial.dataset_io import load_coco, read_predictions
from segdial.mask import to_bitset
from segdial.matching import build_cost_matrix, hungarian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from test_scoring import CELLS  # noqa: E402

WORKLOADS = ("match_dense", "eval_coco")


def _iou_like(rng, n, m, duplicates):
    """DETR-shaped costs, drawn as `tests/test_matching.py::_iou_like` draws
    them: mostly 1.0, two-decimal IoU costs, `duplicates` copied rows."""
    costs = rng.random((n, m))
    costs[costs < 0.7] = 1.0
    costs = np.round(costs, 2)
    src = rng.choice(n, duplicates, replace=False)
    dst = rng.choice(np.setdiff1d(np.arange(n), src), duplicates, replace=False)
    costs[dst] = costs[src]
    return costs


def _eval_like(rng):
    """COCO-shaped cell: 24 detections against 7 objects, mostly disjoint."""
    costs = np.round(rng.random((24, 7)), 3)
    costs[rng.random((24, 7)) < 0.8] = 1.0
    return costs


_rng = np.random.default_rng(0)
MATRICES = {
    "iou_like_100x60": _iou_like(_rng, 100, 60, 10),
    "eval_like_24x7": _eval_like(_rng),
    "uniform_100x100": _rng.random((100, 100)),
    "tenths_100x100": _rng.integers(0, 11, (100, 100)) / 10,
    "uniform_300x300": _rng.random((300, 300)),
}


@pytest.mark.parametrize("name", list(MATRICES))
def test_hungarian(benchmark, name):
    costs = MATRICES[name]
    got = benchmark(hungarian, costs)
    assert len(got.pairs) == min(costs.shape)


@pytest.mark.parametrize("name", ["iou_like_100x60", "eval_like_24x7"])
def test_linear_sum_assignment(benchmark, name):
    costs = MATRICES[name].tolist()
    rows, cols, _, _ = benchmark(matching.linear_sum_assignment, costs)
    assert len(rows) == len(cols) == min(len(costs), len(costs[0]))


@pytest.mark.parametrize("name", ["dense_100x60_128", "sparse_24x7_640x480"])
def test_cost_rows(benchmark, name):
    preds, gts = ([to_bitset(m) for m in masks] for masks in CELLS[name])
    rows = benchmark(matching._cost_rows, preds, gts, 1.0, 0.0)
    assert [len(row) for row in rows] == [len(gts)] * len(preds)


@pytest.fixture(scope="module")
def workload_costs(tmp_path_factory):
    """{workload: the cost matrix of each image, as `match` builds them}."""
    root = tmp_path_factory.mktemp("workloads")
    costs = {}
    for name in WORKLOADS:
        files = workloads.generate(name, 0, root / name).files
        dataset, preds = load_coco(files["gt"]), read_predictions(files["preds"])
        by_image = {}
        for p in preds:
            by_image.setdefault(p.image_id, []).append(p.mask)
        costs[name] = [
            build_cost_matrix(by_image.get(img.image_id, []), [a.mask for a in img.annotations])
            for img in dataset.images
        ]
    return costs


@pytest.mark.parametrize("name", WORKLOADS)
def test_hungarian_on_workload(benchmark, workload_costs, name):
    matrices = workload_costs[name]
    got = benchmark(lambda: [hungarian(costs) for costs in matrices])
    assert [len(a.pairs) for a in got] == [min(costs.shape) for costs in matrices]
