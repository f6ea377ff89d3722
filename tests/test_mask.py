import json
import random
import tracemalloc
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import make_mask, random_star_polygon, rect_mask
from segdial.dataset_io import read_predictions, rle_to_obj
from segdial.geometry import bitset, bitset_overlap
from segdial.mask import (
    BBox,
    Polygon,
    RasterMask,
    Rle,
    area,
    bbox_of,
    mask_iou,
    mask_union,
    overlap,
    rasterize,
    rle_decode,
    rle_encode,
    to_bitset,
)
from segdial.matching import build_cost_matrix


def shapes(max_side=12):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side))


def mask_arrays(max_side=12):
    return shapes(max_side).flatmap(lambda s: hnp.arrays(bool, s))


def mask_array_pairs(max_side=12):
    return shapes(max_side).flatmap(
        lambda s: st.tuples(hnp.arrays(bool, s), hnp.arrays(bool, s))
    )


class TestRasterize:
    def test_axis_aligned_square_covers_interior_pixel_centers(self):
        poly = Polygon(((1, 1), (4, 1), (4, 4), (1, 4)))
        assert rasterize(poly, 6, 6) == rect_mask(6, 6, 1, 1, 4, 4)
        assert area(rasterize(poly, 6, 6)) == 9

    def test_full_canvas(self):
        poly = Polygon(((0, 0), (5, 0), (5, 4), (0, 4)))
        assert area(rasterize(poly, 5, 4)) == 20

    def test_degenerate_vertex_counts_give_empty_mask(self):
        assert area(rasterize(Polygon(()), 4, 4)) == 0
        assert area(rasterize(Polygon(((1, 1),)), 4, 4)) == 0
        assert area(rasterize(Polygon(((1, 1), (3, 3))), 4, 4)) == 0

    def test_geometry_beyond_canvas_is_clipped(self):
        poly = Polygon(((2, 2), (100, 2), (100, 100), (2, 100)))
        m = rasterize(poly, 6, 6)
        assert m == rect_mask(6, 6, 2, 2, 6, 6)

    def test_triangle_matches_reference(self):
        verts = ((0.0, 0.0), (8.0, 0.5), (1.0, 7.5))
        got = rasterize(Polygon(verts), 8, 8)
        assert np.array_equal(got.pixels, oracles.rasterize_reference(verts, 8, 8))

    def test_nonconvex_polygons_match_reference(self, rng):
        for trial in range(60):
            w = rng.randint(4, 24)
            h = rng.randint(4, 24)
            verts = random_star_polygon(rng, w, h)
            got = rasterize(Polygon(verts), w, h)
            want = oracles.rasterize_reference(verts, w, h)
            assert np.array_equal(got.pixels, want), (verts, w, h)

    def test_rejects_empty_canvas(self):
        with pytest.raises(ValueError):
            rasterize(Polygon(((0, 0), (2, 0), (2, 2))), 0, 4)

    def test_polygon_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            Polygon(((0, 0), (-1, 2), (3, 3)))
        with pytest.raises(ValueError):
            Polygon(((0, 0), (float("nan"), 2), (3, 3)))
        with pytest.raises(ValueError):
            Polygon.from_flat([0, 0, 1])


class TestRle:
    def test_all_zero(self):
        assert rle_encode(RasterMask.zeros(2, 2)).counts == (4,)

    def test_all_one(self):
        assert rle_encode(make_mask(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])).counts == (0, 4)

    def test_column_major_order(self):
        # set pixel (x=1, y=0): column 0 is clear, column 1 starts with it
        assert rle_encode(make_mask(2, 2, [(1, 0)])).counts == (2, 1, 1)
        checker = make_mask(2, 2, [(0, 0), (1, 1)])
        assert rle_encode(checker).counts == (0, 1, 2, 1)

    def test_decode_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            Rle(2, 2, (3,))
        with pytest.raises(ValueError):
            Rle(2, 2, (5,))

    def test_decode_rejects_interior_zero_and_negative_runs(self):
        with pytest.raises(ValueError):
            Rle(2, 2, (1, 0, 3))
        with pytest.raises(ValueError):
            Rle(2, 2, (-1, 5))
        Rle(2, 2, (0, 4))  # leading zero run is the all-ones spelling

    def test_count_checks_keep_their_messages(self):
        with pytest.raises(ValueError, match="^rle counts must be non-negative$"):
            Rle(2, 2, (2, -1, 3))
        with pytest.raises(ValueError, match="^rle has a zero-length run after the first$"):
            Rle(2, 2, (0, 2, 0, 2))
        with pytest.raises(ValueError, match="^rle counts sum to 3, expected 4$"):
            Rle(2, 2, (1, 2))
        with pytest.raises(ValueError, match="^rle counts must be non-empty$"):
            Rle(2, 2, [])

    def test_counts_beyond_int64_are_checked_exactly(self):
        with pytest.raises(ValueError, match=f"^rle counts sum to {2**70}, expected 4$"):
            Rle(2, 2, (2**70,))
        with pytest.raises(ValueError, match=f"^rle counts sum to {2**63 + 4}, expected 4$"):
            Rle(2, 2, (2**63, 4))
        with pytest.raises(ValueError, match="^rle counts must be non-negative$"):
            Rle(2, 2, (-(2**70), 4))
        # each count fits int64, but their int64 sum wraps around to 4
        with pytest.raises(ValueError, match=f"^rle counts sum to {2**64 + 4}, expected 4$"):
            Rle(2, 2, (2**62, 2**62, 2**62, 2**62 + 4))

    def test_counts_become_a_tuple_of_python_ints(self):
        truncated = Rle(2, 2, (1.9, 2.2, 1))  # as int() truncates
        assert truncated.counts == (1, 2, 1)
        from_numpy = Rle(2, 2, np.array([1, 2, 1], dtype=np.uint8))
        assert from_numpy == truncated
        for rle in (truncated, from_numpy):
            assert all(type(c) is int for c in rle.counts)
        with pytest.raises(ValueError):
            Rle(2, 2, (float("nan"), 4))
        with pytest.raises(OverflowError):
            Rle(2, 2, (float("inf"),))

    @given(mask_arrays())
    def test_round_trip(self, arr):
        m = RasterMask(arr)
        assert rle_decode(rle_encode(m)) == m

    @given(mask_arrays())
    def test_counts_sum_to_canvas(self, arr):
        r = rle_encode(RasterMask(arr))
        assert sum(r.counts) == r.width * r.height


def _expand(rle):
    """The pixels of a column-major run-length code, one run at a time."""
    flat = []
    for k, c in enumerate(rle.counts):
        flat += [k % 2 == 1] * c
    return np.array(flat, dtype=bool).reshape(rle.width, rle.height).T


def _random_code(rng, width, height):
    """A code of up to 12 runs at seeded places; half of them start with a set run."""
    total = width * height
    cuts = sorted(rng.sample(range(1, total), rng.randint(0, min(total - 1, 12))))
    bounds = [0, *cuts, total]
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    return Rle(width, height, tuple([0, *counts] if rng.random() < 0.5 else counts))


class TestDecodeMany:
    """`rle_decode`, and `read_predictions` of many codes, against
    `_expand`, written without NumPy runs."""

    CANVASES = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (5, 4), (13, 17), (64, 3)]

    def codes(self, seed):
        rng = random.Random(seed)
        codes = []
        for w, h in self.CANVASES:
            codes += [Rle(w, h, (w * h,)), Rle(w, h, (0, w * h))]  # empty and full canvas
            codes += [_random_code(rng, w, h) for _ in range(25)]
        rng.shuffle(codes)  # canvases mixed in one call
        return codes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("chunk", [1, 50, 2**22])
    def test_matches_an_independent_expansion(self, seed, chunk, tmp_path):
        # codes go to `read_predictions` in files of `chunk` lines each: one
        # at a time, a few canvases mixed, all in one file; no grouping may
        # change a mask
        codes = self.codes(seed)
        path = tmp_path / "preds.jsonl"
        got = []
        for i in range(0, len(codes), chunk):
            lines = [json.dumps({"image_id": 1, "rle": rle_to_obj(rle)}) + "\n" for rle in codes[i : i + chunk]]
            path.write_text("".join(lines), encoding="utf-8")
            got += [p.mask for p in read_predictions(path)]
        assert len(got) == len(codes)
        for rle, m in zip(codes, got):
            want = _expand(rle)
            assert (m.width, m.height) == (rle.width, rle.height)
            assert np.array_equal(m.pixels, want)
            assert m == RasterMask(want)  # the same tight crop
            assert area(m) == int(np.count_nonzero(want))

    def test_one_code_and_none(self, tmp_path):
        for rle in self.codes(3)[:40]:
            assert rle_decode(rle) == RasterMask(_expand(rle))
        path = tmp_path / "preds.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_predictions(path) == []


class TestIou:
    def test_identical_masks(self):
        m = rect_mask(8, 8, 1, 1, 5, 5)
        assert mask_iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = rect_mask(8, 8, 0, 0, 2, 2)
        b = rect_mask(8, 8, 4, 4, 8, 8)
        assert mask_iou(a, b) == 0.0

    def test_both_empty_is_zero(self):
        z = RasterMask.zeros(4, 4)
        assert mask_iou(z, z) == 0.0

    def test_crossing_strips(self):
        # 4x2 strip against 2x4 strip overlapping in a 2x2 corner: 4 / 12
        a = rect_mask(8, 8, 0, 0, 4, 2)
        b = rect_mask(8, 8, 0, 0, 2, 4)
        assert mask_iou(a, b) == pytest.approx(4 / 12)

    def test_rejects_canvas_mismatch(self):
        with pytest.raises(ValueError):
            mask_iou(RasterMask.zeros(4, 4), RasterMask.zeros(4, 5))

    @given(mask_array_pairs())
    def test_overlap_counts_shared_and_covered_pixels(self, arrs):
        a, b = RasterMask(arrs[0]), RasterMask(arrs[1])
        inter, union = overlap(a, b)
        assert inter == int((arrs[0] & arrs[1]).sum())
        assert union == int((arrs[0] | arrs[1]).sum())
        assert inter + union == area(a) + area(b)
        assert mask_iou(a, b) == (inter / union if union else 0.0)

    def test_overlap_rejects_canvas_mismatch(self):
        with pytest.raises(ValueError, match="canvases differ"):
            overlap(RasterMask.zeros(4, 4), RasterMask.zeros(5, 4))

    @given(mask_array_pairs())
    def test_symmetric_and_bounded(self, arrs):
        a, b = RasterMask(arrs[0]), RasterMask(arrs[1])
        v = mask_iou(a, b)
        assert v == mask_iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(shapes().flatmap(lambda s: st.tuples(*[hnp.arrays(bool, s)] * 3)))
    def test_growing_shared_pixels_never_lowers_iou(self, arrs):
        a, b, extra = (RasterMask(x) for x in arrs)
        grown_a = mask_union([a, extra])
        grown_b = mask_union([b, extra])
        assert mask_iou(grown_a, grown_b) >= mask_iou(a, b)


class TestUnionAreaBBox:
    def test_union_of_one(self):
        m = rect_mask(5, 5, 1, 1, 3, 3)
        assert mask_union([m]) == m

    def test_union_covers_with_complement(self):
        m = rect_mask(5, 5, 0, 0, 3, 5)
        comp = RasterMask(~m.pixels)
        assert area(mask_union([m, comp])) == 25

    def test_union_requires_masks(self):
        with pytest.raises(ValueError):
            mask_union([])

    @given(mask_array_pairs())
    def test_union_dominates_both(self, arrs):
        a, b = RasterMask(arrs[0]), RasterMask(arrs[1])
        u = mask_union([a, b])
        assert np.all(u.pixels >= a.pixels)
        assert np.all(u.pixels >= b.pixels)
        assert area(u) == int(np.count_nonzero(a.pixels | b.pixels))

    def test_area_and_bbox_of_empty(self):
        z = RasterMask.zeros(7, 3)
        assert area(z) == 0
        assert bbox_of(z) is None

    def test_bbox_is_tight_and_inclusive(self):
        m = make_mask(8, 8, [(2, 1), (5, 1), (2, 6)])
        assert bbox_of(m) == BBox(2, 1, 5, 6)

    def test_bbox_center_stays_inside(self):
        assert BBox(1, 1, 3, 3).center == (2, 2)
        assert BBox(1, 0, 2, 0).center == (2, 0)  # halves round down-right
        assert BBox(4, 4, 4, 4).center == (4, 4)

    @given(mask_arrays())
    def test_bbox_contains_all_set_pixels(self, arr):
        m = RasterMask(arr)
        box = bbox_of(m)
        ys, xs = np.nonzero(arr)
        if box is None:
            assert len(xs) == 0
        else:
            assert box.left == xs.min() and box.right == xs.max()
            assert box.top == ys.min() and box.bottom == ys.max()


class TestRasterMaskType:
    def test_masks_are_immutable(self):
        m = RasterMask.zeros(3, 3)
        with pytest.raises(ValueError):
            m.pixels[0, 0] = True

    def test_constructor_copies(self):
        arr = np.zeros((2, 2), dtype=bool)
        m = RasterMask(arr)
        arr[0, 0] = True
        assert area(m) == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            RasterMask(np.zeros((2, 2, 2), dtype=bool))
        with pytest.raises(ValueError):
            RasterMask(np.zeros((0, 4), dtype=bool))


def _rle_reference(arr):
    """Column-major run lengths of the full canvas, the first run counting zeros."""
    flat = arr.flatten(order="F").astype(np.int8)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(flat)) + 1, [flat.size]))
    counts = np.diff(bounds).tolist()
    return tuple([0] + counts if flat[0] else counts)


@st.composite
def placed_shape(draw, width, height, max_side=12):
    """A canvas holding one small random shape whose tight box is the drawn rectangle."""
    h = draw(st.integers(1, min(max_side, height)))
    w = draw(st.integers(1, min(max_side, width)))
    top = draw(st.integers(0, height - h))
    left = draw(st.integers(0, width - w))
    return _canvas_with_box(draw, width, height, top, left, h, w)


def _canvas_with_box(draw, width, height, top, left, h, w):
    bits = draw(hnp.arrays(bool, (h, w)))
    # one set pixel on each edge of the box makes it the tight box
    bits[0, draw(st.integers(0, w - 1))] = True
    bits[-1, draw(st.integers(0, w - 1))] = True
    bits[draw(st.integers(0, h - 1)), 0] = True
    bits[draw(st.integers(0, h - 1)), -1] = True
    canvas = np.zeros((height, width), dtype=bool)
    canvas[top : top + h, left : left + w] = bits
    return canvas


def _partner(draw, a, kind):
    """A canvas like `a` (which has set pixels) holding a shape of `kind`
    relative to a's box: empty, one pixel, independent, beside it (touching
    but disjoint boxes), sharing its last line, or nested inside it."""
    height, width = a.shape
    ys, xs = np.nonzero(a)
    top, bottom, left, right = ys.min(), ys.max() + 1, xs.min(), xs.max() + 1
    if kind == "empty":
        return np.zeros_like(a)
    if kind == "pixel":
        b = np.zeros_like(a)
        b[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
        return b
    if kind == "any":
        return draw(placed_shape(width, height))
    if kind == "nested":
        h = draw(st.integers(1, bottom - top))
        w = draw(st.integers(1, right - left))
        t = draw(st.integers(top, bottom - h))
        l = draw(st.integers(left, right - w))
        return _canvas_with_box(draw, width, height, t, l, h, w)
    # the second box starts one line past the first ("beside": the boxes
    # are disjoint but touch) or on its last line ("shared_edge")
    shift = 0 if kind == "beside" else 1
    side = draw(st.sampled_from(["right", "below", "left", "above"]))
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    if side == "right":
        l, t = right - shift, draw(st.integers(top - h + 1, bottom - 1))
    elif side == "left":
        l, t = left - w + shift, draw(st.integers(top - h + 1, bottom - 1))
    elif side == "below":
        t, l = bottom - shift, draw(st.integers(left - w + 1, right - 1))
    else:
        t, l = top - h + shift, draw(st.integers(left - w + 1, right - 1))
    if not (0 <= t and t + h <= height and 0 <= l and l + w <= width):
        return np.zeros_like(a)
    return _canvas_with_box(draw, width, height, t, l, h, w)


PARTNER_KINDS = ["empty", "pixel", "any", "beside", "shared_edge", "nested"]


@st.composite
def canvas_pairs(draw):
    """Two same-canvas arrays on up to 300x300: empty, one-pixel, disjoint,
    edge-touching, one-line-overlapping, nested, or independent shapes."""
    width = draw(st.integers(1, 300))
    height = draw(st.integers(1, 300))
    a = draw(placed_shape(width, height))
    b = _partner(draw, a, draw(st.sampled_from(PARTNER_KINDS)))
    return (a, b) if draw(st.booleans()) else (b, a)


def _polygons_past_the_edge(max_side=24):
    def verts(size):
        width, height = size
        coord = lambda hi: st.one_of(  # noqa: E731
            st.integers(0, 4 * hi).map(lambda v: v / 2),  # lands on pixel centers and edges
            st.floats(0, 2 * hi, allow_nan=False),
        )
        return st.tuples(
            st.just(width),
            st.just(height),
            st.lists(st.tuples(coord(width), coord(height)), min_size=3, max_size=8),
        )

    return shapes(max_side).flatmap(verts)


class TestCroppedStorage:
    """The stored masks against full-canvas numpy on the same pixels."""

    @settings(max_examples=300, deadline=None)
    @given(canvas_pairs())
    def test_set_operations_match_full_canvas_numpy(self, arrs):
        a_arr, b_arr = arrs
        a, b = RasterMask(a_arr), RasterMask(b_arr)
        inter = int(np.count_nonzero(a_arr & b_arr))
        union = int(np.count_nonzero(a_arr | b_arr))
        assert overlap(a, b) == (inter, union)
        assert mask_iou(a, b) == (inter / union if union else 0.0)
        joined = mask_union([a, b])
        assert np.array_equal(joined.pixels, a_arr | b_arr)
        assert joined == RasterMask(a_arr | b_arr)
        assert area(joined) == union
        for m, arr in ((a, a_arr), (b, b_arr)):
            assert np.array_equal(m.pixels, arr)
            assert area(m) == int(np.count_nonzero(arr))
            ys, xs = np.nonzero(arr)
            want = BBox(xs.min(), ys.min(), xs.max(), ys.max()) if ys.size else None
            assert bbox_of(m) == want

    @settings(max_examples=200, deadline=None)
    @given(canvas_pairs())
    def test_run_length_round_trip_matches_full_canvas_runs(self, arrs):
        for arr in arrs:
            m = RasterMask(arr)
            rle = rle_encode(m)
            assert rle.counts == _rle_reference(arr)
            back = rle_decode(rle)
            assert np.array_equal(back.pixels, arr)
            assert back == m and hash(back) == hash(m)

    @settings(max_examples=300, deadline=None)
    @given(canvas_pairs(), st.data())
    def test_equality_and_hash_follow_the_pixels(self, arrs, data):
        a_arr, b_arr = arrs
        a, b = RasterMask(a_arr), RasterMask(b_arr)
        same = bool(np.array_equal(a_arr, b_arr))
        assert (a == b) is same
        if same:
            assert hash(a) == hash(b)
        assert RasterMask(a_arr.copy()) == a and hash(RasterMask(a_arr.copy())) == hash(a)
        flipped = a_arr.copy()
        y = data.draw(st.integers(0, a_arr.shape[0] - 1))
        x = data.draw(st.integers(0, a_arr.shape[1] - 1))
        flipped[y, x] = not flipped[y, x]
        assert RasterMask(flipped) != a

    @settings(max_examples=200, deadline=None)
    @given(_polygons_past_the_edge())
    def test_rasterize_polygons_crossing_the_canvas_edge(self, case):
        width, height, verts = case
        got = rasterize(Polygon(verts), width, height)
        want = oracles.rasterize_reference(verts, width, height)
        assert np.array_equal(got.pixels, want)
        assert area(got) == int(np.count_nonzero(want))
        assert got == RasterMask(want)

    def test_pixels_is_a_fresh_read_only_canvas(self):
        m = rect_mask(9, 7, 2, 3, 5, 6)
        first, second = m.pixels, m.pixels
        assert first is not second and first.shape == (7, 9)
        assert not first.flags.writeable
        assert RasterMask.zeros(9, 7).pixels.shape == (7, 9)
        with pytest.raises(ValueError):
            RasterMask.zeros(0, 7)


def _seeded_polygons(rng, width, height):
    """Polygons for a width x height canvas: the full canvas, one clipped
    to it, fewer than 3 vertices, one wholly off the canvas, and seeded
    ones with vertices on whole and half pixels (edges through pixel
    centers) or anywhere, partly past the right and bottom edges."""
    yield Polygon(((0, 0), (width, 0), (width, height), (0, height)))
    yield Polygon(((0, 0), (3 * width, 0), (0, 3 * height)))
    yield Polygon(((1, 1), (2, 2)))
    yield Polygon([(width + rng.uniform(0, 5), rng.uniform(0, 2 * height)) for _ in range(4)])
    for _ in range(6):
        n = rng.randint(3, 8)
        yield Polygon([(rng.randint(0, 3 * width) / 2, rng.randint(0, 3 * height) / 2) for _ in range(n)])
        yield Polygon([(rng.uniform(0, 1.5 * width), rng.uniform(0, 1.5 * height)) for _ in range(n)])


def _pixel_box(arr):
    ys, xs = np.nonzero(arr)
    return BBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())) if ys.size else None


class TestMeaningKept:
    """Every public name of `segdial.mask` against the independent paths:
    `oracles.rasterize_reference` for polygons, `_expand` for run-length
    codes, `_rle_reference` for the code of an array, and NumPy set
    operations on full canvases; on seeded empty, full, clipped, 1xN and
    Nx1 canvases."""

    CANVASES = [(1, 1), (1, 7), (7, 1), (1, 30), (30, 1), (6, 5), (11, 13)]

    def arrays(self, seed):
        """(width, height, arrays) per canvas: empty, full, one pixel,
        seeded densities and the pixel-center fill of each polygon of
        `_seeded_polygons`, paired with the polygon or None."""
        rng = random.Random(seed)
        for width, height in self.CANVASES:
            arrays = [(None, np.zeros((height, width), dtype=bool)), (None, np.ones((height, width), dtype=bool))]
            one = np.zeros((height, width), dtype=bool)
            one[rng.randrange(height), rng.randrange(width)] = True
            arrays.append((None, one))
            for density in (0.1, 0.5, 0.9):
                arrays.append((None, np.array([[rng.random() < density for _ in range(width)] for _ in range(height)])))
            for poly in _seeded_polygons(rng, width, height):
                arrays.append((poly, oracles.rasterize_reference(poly.vertices, width, height)))
            yield width, height, arrays

    @pytest.mark.parametrize("seed", range(5))
    def test_each_mask_and_its_code(self, seed):
        for width, height, arrays in self.arrays(seed):
            for poly, want in arrays:
                code = Rle(width, height, _rle_reference(want))
                assert np.array_equal(_expand(code), want)  # the two oracles agree
                masks = [RasterMask(want), rle_decode(code)]
                if poly is not None:
                    masks.append(rasterize(poly, width, height))
                for m in masks:
                    assert (m.width, m.height) == (width, height)
                    assert np.array_equal(m.pixels, want), (width, height, poly)
                    assert m == masks[0]
                    assert area(m) == int(np.count_nonzero(want))
                    assert bbox_of(m) == _pixel_box(want)
                    assert rle_encode(m) == code

    @pytest.mark.parametrize("seed", range(5))
    def test_pairs(self, seed):
        rng = random.Random(seed)
        for width, height, arrays in self.arrays(seed):
            pixels = [arr for _, arr in arrays]
            for _ in range(40):
                a_arr, b_arr, c_arr = (rng.choice(pixels) for _ in range(3))
                a, b, c = RasterMask(a_arr), RasterMask(b_arr), RasterMask(c_arr)
                inter, union = int(np.count_nonzero(a_arr & b_arr)), int(np.count_nonzero(a_arr | b_arr))
                assert overlap(a, b) == (inter, union)
                assert mask_iou(a, b) == (inter / union if union else 0.0)
                joined = mask_union([a, b, c])
                assert np.array_equal(joined.pixels, a_arr | b_arr | c_arr)
                assert area(joined) == int(np.count_nonzero(a_arr | b_arr | c_arr))
                assert bbox_of(joined) == _pixel_box(a_arr | b_arr | c_arr)
                assert mask_union([a]) == a

    def test_errors_keep_their_messages(self):
        a, b = RasterMask.zeros(4, 3), RasterMask(np.ones((4, 3), dtype=bool))  # 4x3 and 3x4
        for call in (
            lambda: overlap(a, b), lambda: mask_iou(a, b), lambda: mask_union([a, b]), lambda: mask_union([a, a, b]),
        ):
            with pytest.raises(ValueError, match=r"^mask canvases differ: 4x3 vs 3x4$"):
                call()
        with pytest.raises(ValueError, match="^mask_union needs at least one mask$"):
            mask_union([])
        triangle = Polygon(((0, 0), (2, 0), (2, 2)))
        for width, height in ((0, 4), (4, 0), (-1, -1)):
            with pytest.raises(ValueError, match="^canvas must span at least one pixel$"):
                rasterize(triangle, width, height)
        with pytest.raises(ValueError, match=r"^mask must be 2-d, got shape \(2, 2, 2\)$"):
            RasterMask(np.zeros((2, 2, 2), dtype=bool))
        with pytest.raises(ValueError, match=r"^mask must span at least one pixel, got shape \(0, 4\)$"):
            RasterMask(np.zeros((0, 4), dtype=bool))
        with pytest.raises(ValueError, match=r"^mask must span at least one pixel, got shape \(7, 0\)$"):
            RasterMask.zeros(0, 7)


class TestMemory:
    def test_small_objects_on_a_huge_canvas_stay_small(self):
        side = 4096  # a full canvas is 16 MiB of bools
        counts = [side * 100 + 200]  # a 5x3 block at column 100, row 200
        for col in range(3):
            counts += [5, side - 5] if col < 2 else [5, side * side - (side * 102 + 205)]
        rle = Rle(side, side, tuple(counts))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            drawn = rasterize(Polygon(((98, 198), (106, 198), (106, 208), (98, 208))), side, side)
            decoded = rle_decode(rle)
            iou = mask_iou(drawn, decoded)
            joined = mask_union([drawn, decoded])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (area(drawn), area(decoded), area(joined)) == (80, 15, 80)
        assert iou == 15 / 80
        assert peak < 1 << 20, peak

    def test_decoding_many_codes_expands_a_bounded_chunk(self):
        # each code sets the top pixel of the first and last column of a
        # 1024x1024 canvas: its crop is one row, but its box columns hold 1 MiB
        side = 1024
        rle = Rle(side, side, (0, 1, (side - 1) * side - 1, 1, side - 1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            masks = [rle_decode(rle) for _ in range(32)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(m == masks[0] for m in masks) and area(masks[0]) == 2
        assert bbox_of(masks[0]) == BBox(0, 0, side - 1, 0)
        assert peak < 1.5 * side * side, peak  # one code's box columns, not the 32 MiB of all of them


class TestPixelFormatOwnership:
    def test_only_the_mask_module_reads_pixels(self):
        # A change of mask storage (cropped or run-length) must touch mask.py alone.
        package = Path(__file__).resolve().parents[1] / "src" / "segdial"
        modules = sorted(package.glob("*.py"))
        assert any(p.name == "mask.py" for p in modules)
        offenders = [
            f"{path.name}:{n}"
            for path in modules
            if path.name != "mask.py"
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if ".pixels" in line or "count_nonzero" in line
        ]
        assert offenders == []


@st.composite
def mask_lists(draw):
    """Two lists of same-canvas masks, 20 in all, on up to 40x40: each
    mask is empty, one pixel, independent, beside, sharing a line with, or
    nested in an anchor shape or an earlier mask."""
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    shapes = [draw(placed_shape(width, height))]
    for _ in range(draw(st.integers(0, 19))):
        base = draw(st.sampled_from([s for s in shapes if s.any()]))
        shapes.append(_partner(draw, base, draw(st.sampled_from(PARTNER_KINDS))))
    shapes = draw(st.permutations(shapes))
    cut = draw(st.integers(0, len(shapes)))
    return [RasterMask(s) for s in shapes[:cut]], [RasterMask(s) for s in shapes[cut:]]


def _iou_costs(count, masks_a, masks_b):
    """1 - IoU of every pair, row by row, from the (intersection, union)
    counts of `count`: the IoU-only costs of `build_cost_matrix`."""
    return [[1.0 - (i / u if u else 0.0) for i, u in (count(a, b) for b in masks_b)] for a in masks_a]


def _pixel_costs(masks_a, masks_b):
    """`_iou_costs` counted by NumPy on the full canvases of the masks."""
    return _iou_costs(
        lambda a, b: (int(np.count_nonzero(a & b)), int(np.count_nonzero(a | b))),
        [m.pixels for m in masks_a], [m.pixels for m in masks_b],
    )


def _row_runs(m):
    """`m` as one pixel-tall rectangle per run of set pixels in a row."""
    polygons = []
    for y, row in enumerate(m.pixels.tolist()):
        x = 0
        for on, run in groupby(row):
            n = len(list(run))
            if on:
                polygons.append(Polygon(((x, y), (x + n, y), (x + n, y + 1), (x, y + 1))))
            x += n
    return polygons or [Polygon(())]


# each way to count every pair of two lists without drawing a pixel:
# `build_cost_matrix` on the masks as given, `bitset_overlap` on every pair
# of `to_bitset` views, or `build_cost_matrix` on bitsets counted from the
# masks' run-length codes or built from the rectangles of their row runs
PATHS = ("auto", "pairs", "stack", "row_bands")


def _costs_by(path, masks_a, masks_b):
    if path == "pairs":
        return _iou_costs(bitset_overlap, [to_bitset(m) for m in masks_a], [to_bitset(m) for m in masks_b])
    if path == "stack":
        masks_a, masks_b = [rle_encode(m) for m in masks_a], [rle_encode(m) for m in masks_b]
    elif path == "row_bands":
        masks_a = [bitset(_row_runs(m), m.width, m.height) for m in masks_a]
        masks_b = [bitset(_row_runs(m), m.width, m.height) for m in masks_b]
    return build_cost_matrix(masks_a, masks_b).tolist()


class TestOverlaps:
    """The pair costs of two mask lists against NumPy counts of each pair's pixels."""

    @pytest.mark.parametrize("path", PATHS)
    def test_workload_shapes(self, path):
        rng = random.Random(8)
        for width, height, n, m in ((128, 128, 60, 40), (640, 480, 24, 7), (50, 40, 3, 2)):
            masks = [
                rasterize(Polygon(random_star_polygon(rng, width, height)), width, height)
                for _ in range(n + m)
            ]
            masks += masks[:5]  # duplicates
            a, b = masks[:n], masks[n:]
            assert _costs_by(path, a, b) == _pixel_costs(a, b)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n", [2, 9])
    def test_canvas_mismatch_names_the_first_pair_in_row_major_order(self, path, n):
        masks_a = [rect_mask(8, 8, 0, 0, 3, 3) for _ in range(n)]
        masks_a[1] = rect_mask(9, 8, 0, 0, 3, 3)
        masks_b = [rect_mask(8, 8, 1, 1, 4, 4) for _ in range(n)]
        masks_b[-1] = RasterMask.zeros(8, 7)
        with pytest.raises(ValueError) as want:
            _iou_costs(overlap, masks_a, masks_b)
        with pytest.raises(ValueError) as got:
            _costs_by(path, masks_a, masks_b)
        assert str(got.value) == str(want.value) == "mask canvases differ: 8x8 vs 8x7"
        with pytest.raises(ValueError, match="^mask canvases differ: 9x8 vs 8x8$"):
            _costs_by(path, masks_a, masks_b[:-1])
