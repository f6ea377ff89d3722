"""Micro-benchmarks of the polygon kernel: `geometry.bitset` and
`geometry.footprint` of every polygon annotation in the ground truth of the
three benchmark workloads (seed 0), which `bench/workloads.py` writes into a
temporary directory. The geometries are read once, outside the timed
region, and are plain polygon tuples, so each round builds every bitset
anew. match_dense holds no polygon, so its rounds time the run-length
annotations instead: the path the polygon kernel does not touch.

    pytest perf/test_polygons.py --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import sys
from pathlib import Path

import pytest

from segdial.dataset_io import load_coco_geometries
from segdial.geometry import Rle, bitset, footprint

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

NAMES = workloads.NAMES


@pytest.fixture(scope="module")
def geometries(tmp_path_factory):
    """(geometry, width, height) of each annotation, polygons as plain tuples
    so no bitset kept at load is reused; the run-length codes where a
    workload holds no polygon."""
    root = tmp_path_factory.mktemp("workloads")
    out = {}
    for name in NAMES:
        _, loaded = load_coco_geometries(workloads.generate(name, 0, root / name).files["gt"])
        polygons = [(tuple(g), w, h) for g, w, h in loaded.values() if not isinstance(g, Rle)]
        out[name] = polygons or list(loaded.values())
    return out


@pytest.mark.parametrize("name", NAMES)
def test_bitsets(benchmark, geometries, name):
    masks = benchmark(lambda: [bitset(*g) for g in geometries[name]])
    assert any(m.area for m in masks)


@pytest.mark.parametrize("name", NAMES)
def test_footprints(benchmark, geometries, name):
    counted = benchmark(lambda: [footprint(*g) for g in geometries[name]])
    assert any(area for area, _ in counted)
