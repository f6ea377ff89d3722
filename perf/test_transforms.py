"""Micro-benchmarks of the merged masks of `transform --to sid-semseg`: the
run-length code of each merged annotation, counted from its members'
geometry by `geometry.union_rle` (what the CLI runs), next to the NumPy path
it replaces, `rle_encode(mask_union(decode_geometries(...)))`. The member
sets are those of the three benchmark workloads (seed 0), which
`bench/workloads.py` writes into a temporary directory and `parse` turns
into records.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import sys
from pathlib import Path

import pytest

from segdial.cli import main
from segdial.dataset_io import load_coco_geometries, read_records
from segdial.geometry import union_rle
from segdial.instances import decode_geometries
from segdial.mask import mask_union, rle_encode
from segdial.parsing import from_training_record
from segdial.transforms import _regroup

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

NAMES = workloads.NAMES


@pytest.fixture(scope="module")
def member_sets(tmp_path_factory):
    """{workload: [(geometry, width, height) of each member] per merged annotation}."""
    root = tmp_path_factory.mktemp("workloads")
    sets = {}
    for name in NAMES:
        files = workloads.generate(name, 0, root / name).files
        records = root / name / "records.jsonl"
        argv = ["parse", "--responses", files["responses"], "--annotations", files["gt"], "--task", "qa",
                "--out", records]
        assert main(list(map(str, argv))) == 0
        dataset, geometries = load_coco_geometries(files["gt"])
        anns = {a.instance_id: a for img in dataset.images for a in img.annotations}
        sets[name] = [
            group[-1]
            for srec in read_records(records)
            for group in _regroup(from_training_record(srec, anns), anns,
                                  lambda members: [geometries[a.instance_id] for a in members])[1]
        ]
    return sets


def _from_geometry(sets):
    return [union_rle(items) for items in sets]


def _through_pixels(sets):
    return [rle_encode(mask_union(decode_geometries(items))) for items in sets]


@pytest.mark.parametrize("name", NAMES)
def test_union_rle(benchmark, member_sets, name):
    codes = benchmark(_from_geometry, member_sets[name])
    assert codes == _through_pixels(member_sets[name])


@pytest.mark.parametrize("name", NAMES)
def test_decode_union_encode(benchmark, member_sets, name):
    assert benchmark(_through_pixels, member_sets[name])
