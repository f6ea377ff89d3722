"""`geometry.footprint` against the masks it stands in for.

`footprint` counts the area and tight box of a mask from its polygons or
run-length code in pure Python; `decode_geometries` draws the mask with
NumPy. The two implement the same coverage rule independently, so every
case here compares them, and one compares both with the per-pixel oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import rect_polygon
from segdial.geometry import VERTEX_BOUND, BBox, Polygon, Rle, footprint
from segdial.instances import decode_geometries
from segdial.mask import RasterMask, area, bbox_of, rle_encode


def decoded(geometry, width, height):
    (mask,) = decode_geometries([(geometry, width, height)])
    return area(mask), bbox_of(mask)


def coordinate(limit):
    """Vertex coordinates on whole and half pixels, on the canvas edge and
    past it, and anywhere in between."""
    return st.one_of(
        st.integers(0, 2 * limit + 6).map(lambda k: k / 2),
        st.just(float(limit)),
        st.floats(0, limit + 3, allow_nan=False, allow_infinity=False),
    )


@st.composite
def polygon_geometries(draw, max_side=14):
    width, height = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    vertex = st.tuples(coordinate(width), coordinate(height))
    parts = draw(st.lists(st.lists(vertex, max_size=8).map(Polygon), min_size=1, max_size=4))
    return tuple(parts), width, height


@st.composite
def rle_geometries(draw, max_side=14):
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    fill = draw(st.sampled_from(["any", "empty", "full", "sparse"]))
    if fill == "any":
        pixels = draw(hnp.arrays(bool, shape))
    elif fill == "sparse":  # short runs, many of them crossing a column boundary
        pixels = draw(hnp.arrays(bool, shape, elements=st.sampled_from([False, False, False, True])))
    else:
        pixels = np.full(shape, fill == "full")
    return rle_encode(RasterMask(pixels)), shape[1], shape[0]


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
        ys, xs = np.nonzero(pixels)
        want = BBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())) if ys.size else None
        assert footprint(geometry, width, height) == (int(pixels.sum()), want)

    def test_refuses_what_decoding_refuses(self):
        triangle = (Polygon(((0, 0), (2, 0), (2, 2))),)
        for geometry, width, height in [(triangle, 0, 4), (triangle, 4, -1), ((), 4, 4)]:
            with pytest.raises(ValueError):
                decoded(geometry, width, height)
            with pytest.raises(ValueError):
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
