"""Micro-benchmarks of the readers: `load_coco`, `load_coco_labels` and
`read_predictions` on the inputs of the three benchmark workloads (seed 0),
which `bench/workloads.py` writes into a temporary directory.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import sys
from pathlib import Path

import pytest

from segdial.dataset_io import load_coco, load_coco_labels, read_predictions

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

NAMES = workloads.NAMES


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("workloads")
    return {name: workloads.generate(name, 0, root / name).files for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_load_coco(benchmark, inputs, name):
    dataset = benchmark(load_coco, inputs[name]["gt"])
    assert dataset.images


@pytest.mark.parametrize("name", NAMES)
def test_load_coco_labels(benchmark, inputs, name):
    labels = benchmark(load_coco_labels, inputs[name]["gt"])
    assert labels


@pytest.mark.parametrize("name", NAMES)
def test_read_predictions(benchmark, inputs, name):
    assert benchmark(read_predictions, inputs[name]["preds"])


@pytest.mark.parametrize("name", NAMES)
def test_read_sem_predictions(benchmark, inputs, name):
    assert benchmark(read_predictions, inputs[name]["sem_preds"])
