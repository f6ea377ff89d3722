"""`geometry.footprint` and the bitsets of `geometry.bitset` against the
masks they stand in for.

`footprint` counts the area and tight box of a mask, `bitset` holds a mask
in one int, on which `bitset_overlap` counts the pixels two masks share,
`bitset_union` unites masks and `bitset_rle` codes them, from their polygons
or run-length codes in pure Python. `reference_pixels` draws the masks by
independent paths: polygons by the per-pixel oracle
`oracles.rasterize_reference`, and run-length codes by `test_mask._expand`,
one run at a time. Every case here compares the two.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import rect_polygon
from segdial.geometry import (
    VERTEX_BOUND, BBox, Bitset, Polygon, Rle, _polygon_bitset, bitset, bitset_footprint, bitset_overlap,
    bitset_rle, bitset_union, footprint,
)
from segdial.mask import RasterMask, mask_union, overlap, rle_decode, to_bitset
from test_mask import _expand


def reference_pixels(geometry, width, height):
    """The (height, width) pixels of a geometry by the independent paths:
    an rle expanded run by run on its own canvas, and polygons filled
    center by center and united."""
    if isinstance(geometry, Rle):
        return _expand(geometry)
    pixels = np.zeros((height, width), dtype=bool)
    for poly in geometry:
        pixels |= oracles.rasterize_reference(poly.vertices, width, height)
    return pixels


def pixel_footprint(pixels):
    """(area, tight inclusive box or None when empty) of an array."""
    ys, xs = np.nonzero(pixels)
    box = BBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())) if ys.size else None
    return int(pixels.sum()), box


def decoded(geometry, width, height):
    return pixel_footprint(reference_pixels(geometry, width, height))


def coordinate(limit):
    """Vertex coordinates on whole and half pixels, on the canvas edge and
    past it, and anywhere in between."""
    return st.one_of(
        st.integers(0, 2 * limit + 6).map(lambda k: k / 2),
        st.just(float(limit)),
        st.floats(0, limit + 3, allow_nan=False, allow_infinity=False),
    )


@st.composite
def polygon_geometries(draw, max_side=14, canvas=None):
    width, height = canvas or (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    vertex = st.tuples(coordinate(width), coordinate(height))
    parts = draw(st.lists(st.lists(vertex, max_size=8).map(Polygon), min_size=1, max_size=4))
    return tuple(parts), width, height


@st.composite
def rle_geometries(draw, max_side=14, canvas=None):
    shape = canvas[::-1] if canvas else (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    fill = draw(st.sampled_from(["any", "empty", "full", "sparse"]))
    if fill == "any":
        pixels = draw(hnp.arrays(bool, shape))
    elif fill == "sparse":  # short runs, many of them crossing a column boundary
        pixels = draw(hnp.arrays(bool, shape, elements=st.sampled_from([False, False, False, True])))
    else:
        pixels = np.full(shape, fill == "full")
    return Rle(shape[1], shape[0], column_major_counts(pixels)), shape[1], shape[0]


@st.composite
def member_lists(draw, max_side=14):
    """1 to 4 geometries, polygons and rle mixed, on one canvas."""
    canvas = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    member = st.one_of(polygon_geometries(canvas=canvas), rle_geometries(canvas=canvas))
    return draw(st.lists(member, min_size=1, max_size=4))


def decoded_union(items):
    """The code of the union of the members' `reference_pixels`."""
    _, width, height = items[0]
    return Rle(width, height, column_major_counts(np.logical_or.reduce([reference_pixels(*item) for item in items])))


def coded_union(items):
    """The code of the union, from the members' bitsets, as `transform` writes it."""
    return bitset_rle(bitset_union([bitset(*item) for item in items]))


def column_major_counts(pixels):
    """The run lengths of a (height, width) array read down each column,
    starting with a clear run, dropping a trailing clear one."""
    flat = np.concatenate(([False], pixels.ravel(order="F"), [False]))
    bounds = np.flatnonzero(flat[1:] != flat[:-1])
    counts = np.diff(np.concatenate(([0], bounds, [pixels.size]))).tolist()
    return tuple(counts[:-1] if len(counts) > 1 and counts[-1] == 0 else counts)


class TestFootprint:
    @settings(max_examples=400, deadline=None)
    @given(polygon_geometries())
    def test_polygons_agree_with_the_decoded_mask(self, case):
        assert footprint(*case) == decoded(*case)

    @settings(max_examples=300, deadline=None)
    @given(rle_geometries())
    def test_rle_agrees_with_the_decoded_mask(self, case):
        assert footprint(*case) == decoded(*case)

    @pytest.mark.parametrize(
        "parts, width, height, want",
        [
            ([[]], 6, 6, (0, None)),  # no vertex
            ([[1, 1, 4, 4]], 6, 6, (0, None)),  # two vertices
            ([[1, 1, 4, 1, 4, 1]], 6, 6, (0, None)),  # no area
            ([rect_polygon(2, 3, 3, 4)], 6, 6, (1, BBox(2, 3, 2, 3))),  # one pixel
            ([rect_polygon(2.5, 3.5, 3.5, 4.5)], 6, 6, (1, BBox(2, 3, 2, 3))),  # centers on the edges
            ([rect_polygon(0, 0, 6, 5)], 6, 5, (30, BBox(0, 0, 5, 4))),  # the canvas edge
            ([rect_polygon(4, 4, 40, 9)], 6, 6, (4, BBox(4, 4, 5, 5))),  # past the edge
            ([rect_polygon(7, 1, 9, 3)], 6, 6, (0, None)),  # off the canvas
            ([rect_polygon(1, 1, 3, 3), rect_polygon(2, 2, 5, 4)], 6, 6, (9, BBox(1, 1, 4, 3))),  # overlap
            ([rect_polygon(0, 0, 1, 1), rect_polygon(5, 5, 6, 6)], 6, 6, (2, BBox(0, 0, 5, 5))),  # apart
            ([rect_polygon(1, 1, 3, 3), rect_polygon(1, 1, 3, 3)], 6, 6, (4, BBox(1, 1, 2, 2))),  # twice
        ],
    )
    def test_named_polygons(self, parts, width, height, want):
        geometry = tuple(Polygon.from_flat(p) for p in parts)
        assert footprint(geometry, width, height) == want == decoded(geometry, width, height)

    @pytest.mark.parametrize(
        "counts, want",
        [
            ((12,), (0, None)),  # empty
            ((0, 12), (12, BBox(0, 0, 3, 2))),  # full
            ((2, 2, 8), (2, BBox(0, 0, 1, 2))),  # one run crossing from column 0 to 1
            ((1, 1, 1, 1, 8), (2, BBox(0, 0, 1, 1))),  # two runs, in two columns
            ((4, 1, 6, 1), (2, BBox(1, 1, 3, 2))),  # the last run ends the canvas
            ((0, 1, 10, 1), (2, BBox(0, 0, 3, 2))),
        ],
    )
    def test_named_rle(self, counts, want):
        rle = Rle(4, 3, counts)
        assert footprint(rle, 4, 3) == want == decoded(rle, 4, 3)

    @settings(max_examples=100, deadline=None)
    @given(polygon_geometries(max_side=10))
    def test_polygons_agree_with_the_pixel_center_oracle(self, case):
        geometry, width, height = case
        pixels = np.zeros((height, width), dtype=bool)
        for poly in geometry:
            pixels |= oracles.rasterize_reference(poly.vertices, width, height)
        assert footprint(geometry, width, height) == pixel_footprint(pixels)

    @pytest.mark.parametrize("edges", [(3, 0, 2, 0), (0, 3, 0, 2)])
    def test_a_degenerate_box_is_refused(self, edges):
        with pytest.raises(ValueError, match=rf"degenerate bbox: BBox\(left={edges[0]}, top={edges[1]}"):
            BBox(*edges)

    def test_refuses_what_decoding_refuses(self):
        triangle = (Polygon(((0, 0), (2, 0), (2, 2))),)
        for geometry, width, height, message in [
            (triangle, 0, 4, "canvas must span at least one pixel"),
            (triangle, 4, -1, "canvas must span at least one pixel"),
            ((), 4, 4, "geometry needs at least one polygon"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                footprint(geometry, width, height)

    def test_no_vertex_overflows_a_crossing(self):
        # A vertex at or past the bound is refused when the polygon is built;
        # just below it, both paths compute every crossing in range and agree.
        for big in (VERTEX_BOUND, 1.5e308):
            with pytest.raises(ValueError, match=r"^polygon vertices must be below 2\*\*500$"):
                Polygon(((0, 0), (big, 8), (0, 9)))
        below = np.nextafter(VERTEX_BOUND, 0)
        for vertices in [((0, 0), (below, 8), (0, 9)), ((0, below), (below, 0), (0, 0))]:
            geometry = (Polygon(vertices),)
            with np.errstate(all="raise"):
                assert decoded(geometry, 4, 9) == footprint(geometry, 4, 9)


class TestUnionRle:
    """`coded_union`: the run-length code of a union, built from bitsets."""

    @settings(max_examples=400, deadline=None)
    @given(member_lists())
    def test_agrees_with_the_decoded_union(self, items):
        assert coded_union(items) == decoded_union(items)

    @pytest.mark.parametrize(
        "members, width, height, counts",
        [
            ([[[1, 1, 4, 1, 4, 1]], (12,)], 4, 3, (12,)),  # an empty union
            ([[rect_polygon(0, 0, 4, 3)]], 4, 3, (0, 12)),  # the full canvas
            ([(4, 2, 6), [rect_polygon(2, 0, 3, 2)]], 4, 3, (4, 4, 4)),  # a run wraps into the next column
            ([(0, 2, 1, 2, 7)], 4, 3, (0, 2, 1, 2, 7)),  # an rle alone is its own code
            ([[rect_polygon(2.5, 1, 9, 7)], [rect_polygon(0, 2, 1, 7)]], 4, 3, (2, 1, 4, 2, 1, 2)),  # clipped
            ([[[0, 0, 4, 3]], [[0, 0, 4, 0, 4, 3, 0, 3]]], 4, 3, (0, 12)),  # fewer than 3 vertices add nothing
            ([(1, 2, 9), (3, 2, 7), (6, 3, 3)], 4, 3, (1, 4, 1, 3, 3)),  # rle runs touch and overlap
        ],
    )
    def test_named_unions(self, members, width, height, counts):
        items = [
            (Rle(width, height, m) if isinstance(m, tuple) else tuple(Polygon.from_flat(p) for p in m), width, height)
            for m in members
        ]
        assert coded_union(items) == Rle(width, height, counts) == decoded_union(items)

    @settings(max_examples=100, deadline=None)
    @given(polygon_geometries(max_side=10), st.data())
    def test_polygons_agree_with_the_pixel_center_oracle(self, case, data):
        geometry, width, height = case
        split = data.draw(st.integers(0, len(geometry)))  # the parts, as one member or two
        items = [(g, width, height) for g in (geometry[:split], geometry[split:]) if g]
        pixels = np.zeros((height, width), dtype=bool)
        for poly in geometry:
            pixels |= oracles.rasterize_reference(poly.vertices, width, height)
        assert coded_union(items) == Rle(width, height, column_major_counts(pixels))

    def test_refuses_what_the_decoded_union_refuses(self):
        triangle = (Polygon(((0, 0), (2, 0), (2, 2))),)
        cases = [
            ([], "bitset_union needs at least one mask"),
            ([(triangle, 0, 4)], "canvas must span at least one pixel"),
            ([((), 4, 4)], "geometry needs at least one polygon"),
            ([(Rle(4, 3, (12,)), 4, 3), (triangle, 3, 4)], "mask canvases differ: 4x3 vs 3x4"),
            ([(triangle, 4, 3), (Rle(3, 4, (12,)), 4, 3)], "mask canvases differ: 4x3 vs 3x4"),
        ]
        for items, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                coded_union(items)
        with pytest.raises(ValueError, match="^mask_union needs at least one mask$"):
            mask_union([])


@st.composite
def coded_pairs(draw, max_side=14):
    """Two run-length codes on one canvas, each of polygons (coded by
    `coded_union`) or of pixels, empty and full ones among them."""
    canvas = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    member = st.one_of(polygon_geometries(canvas=canvas), rle_geometries(canvas=canvas))
    return tuple(coded_union([draw(member)]) for _ in range(2))


def pixel_bitset(pixels):
    """The Bitset of a (height, width) array, one pixel at a time: bit k is
    pixel offset + k, read down each column, and bit 0 is the first set one."""
    height, width = pixels.shape
    bits = 0
    for x in range(width):
        for y in range(height):
            if pixels[y, x]:
                bits |= 1 << (x * height + y)
    if not bits:
        return Bitset(width, height, 0, 0, 0)
    offset = (bits & -bits).bit_length() - 1
    return Bitset(width, height, offset, bits >> offset, int(pixels.sum()))


def decoded_bitset(geometry, width, height):
    """The Bitset of the `reference_pixels`, pixel by pixel; `mask.to_bitset`
    of the `RasterMask` of those pixels must agree."""
    pixels = reference_pixels(geometry, width, height)
    bits = pixel_bitset(pixels)
    assert to_bitset(RasterMask(pixels)) == bits
    return bits


class TestBitset:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(polygon_geometries(), rle_geometries()))
    def test_agrees_with_the_decoded_mask(self, case):
        # empty and full masks, runs across column boundaries, polygons past
        # the canvas edge and parts of fewer than 3 vertices among them
        want = decoded_bitset(*case)
        assert bitset(*case) == want
        # the footprint `load_coco_masks` reads from the bitset it keeps
        assert bitset_footprint(want) == footprint(*case) == decoded(*case)

    @pytest.mark.parametrize(
        "member, width, height, want",
        [
            ((12,), 4, 3, (0, 0, 0)),  # empty
            ((0, 12), 4, 3, (0, 2**12 - 1, 12)),  # full
            ((4, 4, 4), 4, 3, (4, 0b1111, 4)),  # a run wraps into the next column
            ([[1, 1, 4, 1, 4, 1]], 4, 3, (0, 0, 0)),  # fewer than 3 vertices
            ([rect_polygon(0, 0, 4, 3)], 4, 3, (0, 2**12 - 1, 12)),  # the full canvas
            ([rect_polygon(2.5, 1, 9, 7)], 4, 3, (7, 0b11011, 4)),  # clipped by the canvas edge
            ([rect_polygon(1, 0, 2, 1), rect_polygon(1, 2, 2, 3)], 4, 3, (3, 0b101, 2)),  # two parts in a column
        ],
    )
    def test_named_masks(self, member, width, height, want):
        geometry = Rle(width, height, member) if isinstance(member, tuple) else tuple(map(Polygon.from_flat, member))
        assert bitset(geometry, width, height) == Bitset(width, height, *want) == decoded_bitset(geometry, width, height)

    @settings(max_examples=100, deadline=None)
    @given(polygon_geometries(max_side=10))
    def test_polygons_agree_with_the_pixel_center_oracle(self, case):
        geometry, width, height = case
        pixels = np.zeros((height, width), dtype=bool)
        for poly in geometry:
            pixels |= oracles.rasterize_reference(poly.vertices, width, height)
        assert bitset(geometry, width, height) == pixel_bitset(pixels)

    @settings(max_examples=200, deadline=None)
    @given(member_lists())
    def test_union_agrees_with_the_decoded_union(self, items):
        pixels = np.logical_or.reduce([reference_pixels(*item) for item in items])
        assert bitset_union([bitset(*item) for item in items]) == pixel_bitset(pixels)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(polygon_geometries(), rle_geometries()))
    def test_code_is_the_decoded_masks_code(self, case):
        # empty and full masks and runs that wrap into the next column among them
        b = bitset(*case)
        code = bitset_rle(b)
        assert code == Rle(case[1], case[2], column_major_counts(reference_pixels(*case)))
        assert bitset(code, code.width, code.height) == b

    @pytest.mark.parametrize(
        "counts",
        [
            (12,),  # empty
            (0, 12),  # full
            (4, 4, 4),  # a run wraps into the next column
            (0, 1, 10, 1),  # set runs at both ends of the canvas
            (11, 1),  # the last pixel alone
            (1, 1, 1, 1, 1, 1, 6),  # one-pixel runs and gaps
        ],
    )
    def test_named_codes(self, counts):
        rle = Rle(4, 3, counts)
        assert bitset_rle(bitset(rle, 4, 3)) == rle

    def test_refuses_what_decoding_refuses(self):
        triangle = (Polygon(((0, 0), (2, 0), (2, 2))),)
        for geometry, width, height, message in [
            (triangle, 0, 4, "canvas must span at least one pixel"),
            (triangle, 4, 0, "canvas must span at least one pixel"),
            ((), 4, 4, "geometry needs at least one polygon"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                bitset(geometry, width, height)
        a, b = Bitset(4, 3, 0, 0, 0), Bitset(3, 4, 0, 0, 0)
        with pytest.raises(ValueError, match=r"^mask canvases differ: 4x3 vs 3x4$"):
            mask_union([RasterMask.zeros(4, 3), RasterMask.zeros(3, 4)])
        with pytest.raises(ValueError, match=r"^mask canvases differ: 4x3 vs 3x4$"):
            bitset_union([a, b])
        with pytest.raises(ValueError):
            bitset_union([])


def kernel_part(rng, kind, width, height):
    """One polygon of `kind`, seeded by `rng`, for a width x height canvas."""
    n = rng.randint(3, 9)
    if kind == "half":  # whole and half pixels, so edges pass through pixel centers
        return Polygon([(rng.randint(0, 2 * width) / 2, rng.randint(0, 2 * height) / 2) for _ in range(n)])
    if kind == "partly off":  # some vertices past the right or bottom edge
        return Polygon([(rng.uniform(0, 2 * width + 4), rng.uniform(0, 2 * height + 4)) for _ in range(n)])
    if kind == "wholly off":  # right of the canvas, below it, or both
        dx, dy = rng.choice([(width, 0), (0, height), (width, height)])
        return Polygon([(dx + rng.uniform(0, 6), dy + rng.uniform(0, 6)) for _ in range(n)])
    if kind == "few":  # fewer than 3 vertices hold no pixel
        return Polygon([(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(rng.randint(0, 2))])
    if kind == "horizontal":  # a staircase of horizontal and vertical edges
        xs = sorted(rng.sample(range(2 * width + 3), 3))
        ys = sorted(rng.sample(range(2 * height + 3), 3))
        x0, x1, x2 = (x / 2 for x in xs)
        y0, y1, y2 = (y / 2 for y in ys)
        return Polygon([(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)])
    if kind == "huge":  # a vertex just below VERTEX_BOUND, so crossings lie far off the canvas
        below = np.nextafter(VERTEX_BOUND, 0)
        verts = [(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(n - 1)]
        verts.insert(rng.randrange(n), rng.choice([(below, rng.uniform(0, height)), (rng.uniform(0, width), below),
                                                   (below, below)]))
        return Polygon(verts)
    if kind == "far corner":  # an edge from far off the canvas to column 0, whose crossings can round below 0
        far = (rng.uniform(0.5, 1) * VERTEX_BOUND, rng.uniform(0.5, 1) * VERTEX_BOUND)
        return Polygon([far, (0.0, rng.randint(0, height)), *((rng.uniform(0, width), rng.uniform(0, height))
                                                              for _ in range(rng.randint(0, 2)))])
    return Polygon([(rng.uniform(0, width + 1), rng.uniform(0, height + 1)) for _ in range(n)])


class TestPolygonKernel:
    """The toggle-and-scan kernel `_polygon_bitset` against the pixel-center
    oracle, one part at a time and united, on seeded polygons of every
    kind the kernel special-cases."""

    KINDS = ("half", "partly off", "wholly off", "few", "horizontal", "huge", "far corner", "any")

    @pytest.mark.parametrize("seed", range(6))
    def test_parts_and_unions_agree_with_the_pixel_center_oracle(self, seed):
        rng = random.Random(seed)
        for case in range(60):
            width, height = rng.randint(1, 12), rng.randint(1, 12)
            geometry = tuple(kernel_part(rng, rng.choice(self.KINDS), width, height) for _ in range(rng.randint(1, 4)))
            pixels = np.zeros((height, width), dtype=bool)
            for poly in geometry:
                part = oracles.rasterize_reference(poly.vertices, width, height)
                assert _polygon_bitset(poly, width, height) == pixel_bitset(part), (seed, case, poly)
                pixels |= part
            assert bitset(geometry, width, height) == pixel_bitset(pixels), (seed, case)
            with np.errstate(all="raise"):
                assert footprint(geometry, width, height) == pixel_footprint(pixels)

    def test_every_kind_holds_pixels_somewhere(self):
        # the seeded cases are not all empty: each kind but the two that
        # cannot reach the canvas sets pixels in some case
        rng = random.Random(0)
        for kind in self.KINDS:
            areas = [bitset((kernel_part(rng, kind, 8, 8),), 8, 8).area for _ in range(40)]
            assert (max(areas) > 0) == (kind not in ("wholly off", "few")), kind


class TestRleOverlap:
    """The pixels two run-length codes share, counted on their bitsets."""

    @settings(max_examples=400, deadline=None)
    @given(coded_pairs())
    def test_agrees_with_decoded_masks_and_a_pixel_count(self, pair):
        a, b = map(_expand, pair)
        counted = (int((a & b).sum()), int((a | b).sum()))
        bits = [bitset(code, code.width, code.height) for code in pair]
        assert bitset_overlap(*bits) == overlap(*map(rle_decode, pair)) == counted
        assert bitset_overlap(*bits[::-1]) == counted

    @pytest.mark.parametrize(
        "a, b, width, height, counted",
        [
            ((12,), (12,), 4, 3, (0, 0)),  # both empty
            ((12,), (0, 12), 4, 3, (0, 12)),  # empty and full
            ((0, 12), (0, 12), 4, 3, (12, 12)),  # both full
            ((2, 2, 8), (4, 2, 6), 4, 3, (0, 4)),  # runs touch across a column boundary
            ((2, 3, 7), (4, 2, 6), 4, 3, (1, 4)),  # a run that wraps into the next column meets the other
            ((0, 1, 1, 1, 1, 1, 7), (1, 5, 6), 4, 3, (2, 6)),  # one run spans several
        ],
    )
    def test_named_overlaps(self, a, b, width, height, counted):
        a, b = Rle(width, height, a), Rle(width, height, b)
        bits_a, bits_b = bitset(a, width, height), bitset(b, width, height)
        assert bitset_overlap(bits_a, bits_b) == bitset_overlap(bits_b, bits_a) == counted
        assert overlap(rle_decode(a), rle_decode(b)) == counted

    def test_refuses_what_the_decoded_overlap_refuses(self):
        a, b = Rle(4, 3, (12,)), Rle(3, 4, (12,))
        with pytest.raises(ValueError, match=r"^mask canvases differ: 4x3 vs 3x4$"):
            overlap(rle_decode(a), rle_decode(b))
        with pytest.raises(ValueError, match=r"^mask canvases differ: 4x3 vs 3x4$"):
            bitset_overlap(bitset(a, 4, 3), bitset(b, 3, 4))
