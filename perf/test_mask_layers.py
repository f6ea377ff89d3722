"""Per-layer micro-benchmarks of `segdial.mask` on a 640x480 canvas.

    pytest perf --benchmark-only

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import math

import pytest

from segdial.mask import Polygon, overlap, rasterize, rle_decode, rle_encode

WIDTH, HEIGHT = 640, 480


def star(cx, cy, r_out, r_in, points=12):
    """A non-convex star polygon centred on (cx, cy)."""
    verts = []
    for k in range(2 * points):
        r = r_out if k % 2 == 0 else r_in
        a = math.pi * k / points
        verts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return Polygon(tuple(verts))


SHAPE = star(320, 240, 90, 45)


@pytest.fixture(scope="module")
def masks():
    return {
        "shape": rasterize(SHAPE, WIDTH, HEIGHT),
        "shifted": rasterize(star(350, 260, 90, 45), WIDTH, HEIGHT),
        "far": rasterize(star(80, 80, 60, 30), WIDTH, HEIGHT),
    }


def test_rasterize(benchmark):
    benchmark(rasterize, SHAPE, WIDTH, HEIGHT)


def test_rle_decode(benchmark, masks):
    benchmark(rle_decode, rle_encode(masks["shape"]))


def test_overlap_disjoint(benchmark, masks):
    assert benchmark(overlap, masks["shape"], masks["far"])[0] == 0


def test_overlap_overlapping(benchmark, masks):
    assert benchmark(overlap, masks["shape"], masks["shifted"])[0] > 0
