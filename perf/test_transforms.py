"""Micro-benchmarks of the merged masks of `transform --to sid-semseg`: the
run-length code of each merged annotation, from its members' masks as
`load_coco_masks` reads them by `bitset_rle(bitset_union(...))` (what the
CLI runs), next to the same codes through the `segdial.mask` names,
`rle_encode(mask_union(...))` of their geometry's masks; those names run
the same geometry kernels through the `RasterMask` view, so the pair
measures the view's overhead, not a second implementation. The member
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
from segdial.dataset_io import _read_coco, load_coco_masks, read_records
from segdial.geometry import bitset_rle, bitset_union
from segdial.instances import as_bitset
from segdial.mask import mask_union, rle_encode
from segdial.parsing import from_training_record
from segdial.transforms import _regroup

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from pixel_masks import mask_of  # noqa: E402

NAMES = workloads.NAMES


@pytest.fixture(scope="module")
def member_sets(tmp_path_factory):
    """{workload: [(mask, (geometry, width, height)) of each member] per
    merged annotation}."""
    root = tmp_path_factory.mktemp("workloads")
    sets = {}
    for name in NAMES:
        files = workloads.generate(name, 0, root / name).files
        records = root / name / "records.jsonl"
        argv = ["parse", "--responses", files["responses"], "--annotations", files["gt"], "--task", "qa",
                "--out", records]
        assert main(list(map(str, argv))) == 0
        _, meta, annotations = _read_coco(files["gt"])
        geometries = {
            ann["id"]: (g, meta[ann["image_id"]]["width"], meta[ann["image_id"]]["height"]) for ann, g in annotations
        }
        by_image = {
            img.image_id: {a.instance_id: a for a in img.annotations} for img in load_coco_masks(files["gt"]).images
        }
        sets[name] = [
            group[-1]
            for srec in read_records(records)
            for group in _regroup(from_training_record(srec, by_image[srec.image_id]), by_image[srec.image_id],
                                  lambda members: [(a.mask, geometries[a.instance_id]) for a in members])[1]
        ]
    return sets


def _from_bitsets(sets):
    return [bitset_rle(bitset_union([as_bitset(mask) for mask, _ in items])) for items in sets]


def _through_pixels(sets):
    return [rle_encode(mask_union([mask_of(*g) for _, g in items])) for items in sets]


@pytest.mark.parametrize("name", NAMES)
def test_bitset_rle(benchmark, member_sets, name):
    codes = benchmark(_from_bitsets, member_sets[name])
    assert codes == _through_pixels(member_sets[name])


@pytest.mark.parametrize("name", NAMES)
def test_decode_union_encode(benchmark, member_sets, name):
    assert benchmark(_through_pixels, member_sets[name])
