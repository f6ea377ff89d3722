"""Micro-benchmarks of the matcher `hungarian` on the shapes it meets.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import numpy as np
import pytest

from segdial.matching import hungarian


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
