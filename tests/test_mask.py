from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import make_mask, random_star_polygon, rect_mask
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
)


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

    @given(mask_arrays())
    def test_round_trip(self, arr):
        m = RasterMask(arr)
        assert rle_decode(rle_encode(m)) == m

    @given(mask_arrays())
    def test_counts_sum_to_canvas(self, arr):
        r = rle_encode(RasterMask(arr))
        assert sum(r.counts) == r.width * r.height


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
