"""Geometry as files describe it: polygons and run-length codes, checked in pure Python.

Every check a polygon or run-length code must pass lives here, and this
module loads no NumPy, so a reader that needs only labels and ids can reject
exactly the geometry that `segdial.mask` would refuse to draw without paying
for pixels. `segdial.mask` turns these values into masks; `footprint` gives
the area and box of such a mask, and `union_rle` the run-length code of a
union of such masks, from the geometry alone.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Union

__all__ = ["BBox", "Geometry", "Polygon", "Rle", "check_canvas", "check_fit", "footprint", "union_rle"]


# A checked record type is a NamedTuple of its fields plus a subclass whose
# __new__ makes the checks; `_make` and `_replace` skip them, so build
# checked values through the constructor.


class _BBoxFields(NamedTuple):
    left: int
    top: int
    right: int
    bottom: int


class BBox(_BBoxFields):
    """Tight pixel-index bounds, inclusive on all four edges."""

    __slots__ = ()

    def __new__(cls, left, top, right, bottom):
        box = tuple.__new__(cls, (left, top, right, bottom))
        if left > right or top > bottom:
            raise ValueError(f"degenerate bbox: {box!r}")
        return box

    @property
    def center(self) -> tuple[int, int]:
        # integer center, halves round toward the bottom-right
        return ((self.left + self.right + 1) // 2, (self.top + self.bottom + 1) // 2)


# Every vertex coordinate lies below this bound, so the row crossing
# dx * (y + 0.5 - y1) / dy + x1 that `mask.rasterize` and `footprint` compute
# stays finite: |dx| < 2**500 and |y + 0.5 - y1| <= |dy| < 2**500, so the
# product stays below 2**1000 and the quotient below 2**500.
VERTEX_BOUND = 2.0 ** 500


class _PolygonFields(NamedTuple):
    vertices: tuple[tuple[float, float], ...]


class Polygon(_PolygonFields):
    """Closed vertex loop in pixel coordinates (x, y), not necessarily convex."""

    __slots__ = ()

    def __new__(cls, vertices):
        verts = tuple((float(x), float(y)) for x, y in vertices)
        for x, y in verts:
            if not (0 <= x < VERTEX_BOUND and 0 <= y < VERTEX_BOUND):  # nan fails every comparison
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError("polygon vertices must be finite")
                if x < 0 or y < 0:
                    raise ValueError("polygon vertices must be non-negative")
                raise ValueError("polygon vertices must be below 2**500")
        return tuple.__new__(cls, (verts,))

    @classmethod
    def from_flat(cls, coords: Sequence[float]) -> "Polygon":
        """Build from a flat [x0, y0, x1, y1, ...] list."""
        if len(coords) % 2 != 0:
            raise ValueError("flat coordinate list must have even length")
        pairs = tuple((coords[i], coords[i + 1]) for i in range(0, len(coords), 2))
        return cls(pairs)


class _RleFields(NamedTuple):
    width: int
    height: int
    counts: tuple[int, ...]


class Rle(_RleFields):
    """Column-major run-length code; counts[0] is a zero run (possibly empty).

    The counts become a tuple of Python ints, `int(c)` of each given count.
    """

    __slots__ = ()

    def __new__(cls, width, height, counts):
        if width < 1 or height < 1:
            raise ValueError("rle canvas must span at least one pixel")
        counts = tuple(counts)
        if not set(map(type, counts)) <= {int}:  # bools, floats, NumPy ints, strings
            counts = tuple(map(int, counts))
        if not counts:
            raise ValueError("rle counts must be non-empty")
        if min(counts) < 0:
            raise ValueError("rle counts must be non-negative")
        if not all(counts[1:]):
            raise ValueError("rle has a zero-length run after the first")
        total = sum(counts)
        if total != width * height:
            raise ValueError(f"rle counts sum to {total}, expected {width * height}")
        return tuple.__new__(cls, (width, height, counts))


Geometry = Union[tuple[Polygon, ...], Rle]


def check_canvas(width: int, height: int) -> None:
    """Raise ValueError unless a width x height canvas holds a pixel."""
    if width < 1 or height < 1:
        raise ValueError("canvas must span at least one pixel")


def check_fit(geometry: Geometry, width: int, height: int) -> None:
    """Raise ValueError unless `geometry` can be drawn on a width x height
    image: an rle must be coded on exactly that canvas, and polygons need a
    canvas of at least one pixel."""
    if isinstance(geometry, Rle):
        if (geometry.width, geometry.height) != (width, height):
            raise ValueError(
                f"rle canvas {geometry.width}x{geometry.height} "
                f"does not match image {width}x{height}"
            )
    else:
        check_canvas(width, height)


def footprint(geometry: Geometry, width: int, height: int) -> tuple[int, Optional[BBox]]:
    """(area, tight inclusive box or None when empty) of the mask that
    `segdial.instances.decode_geometries` makes of (geometry, width, height),
    counted from the geometry without drawing a pixel.

    Polygons follow `mask.rasterize`, crossing for crossing: pixel (x, y) is
    set iff its center lies inside under the even-odd rule, clipped to the
    canvas, and the parts are united row by row as `mask_union` unites them.
    An rle follows the run arithmetic of `mask.rle_decode_many`.
    """
    if isinstance(geometry, Rle):
        return _rle_footprint(geometry)
    check_canvas(width, height)
    if not geometry:
        raise ValueError("geometry needs at least one polygon")
    rows = _row_union(geometry, width, height)
    if not rows:
        return 0, None
    area = sum(stop - start for _, start, stop in rows)
    return area, BBox(min(r[1] for r in rows), rows[0][0], max(r[2] for r in rows) - 1, rows[-1][0])


def union_rle(items: Sequence[tuple[Geometry, int, int]]) -> Rle:
    """`mask.rle_encode(mask.mask_union(decode_geometries(items)))`, counted
    from the geometry without drawing a pixel: the column-major code, in
    `rle_encode`'s form, of the union of the masks of every (geometry,
    width, height) of `items`.

    Each mask must lie on the canvas of the first, as `mask_union` requires,
    and is the one `decode_geometries` makes: an rle on its own canvas,
    polygons on width x height. The polygons are united row by row as
    `footprint` unites them and their runs read down the columns; each set
    run of an rle is already an interval of the column-major order.
    """
    if not items:
        raise ValueError("union_rle needs at least one geometry")
    polygons: list[Polygon] = []
    runs: list[tuple[int, int]] = []  # [start, stop) in the column-major order
    canvases = []
    for geometry, width, height in items:
        if isinstance(geometry, Rle):
            ends = list(accumulate(geometry.counts))
            runs += zip(ends[0::2], ends[1::2])
            width, height = geometry.width, geometry.height
        else:
            check_canvas(width, height)
            if not geometry:
                raise ValueError("geometry needs at least one polygon")
            polygons += geometry
        canvases.append((width, height))
    width, height = canvases[0]
    for w, h in canvases:
        if (w, h) != (width, height):
            raise ValueError(f"mask canvases differ: {width}x{height} vs {w}x{h}")
    runs += _column_runs(_row_union(polygons, width, height), height)
    runs.sort()
    # a run that touches or overlaps the last one extends it
    total, counts, end = width * height, [], -1
    for start, stop in runs:
        if start > end:
            counts += (start - max(end, 0), stop - start)
            end = stop
        elif stop > end:
            counts[-1] += stop - end
            end = stop
    if end < total:  # the clear run after the last set one, or the whole canvas
        counts.append(total - max(end, 0))
    return Rle(width, height, counts)


def _row_union(polygons: Sequence[Polygon], width: int, height: int) -> list[tuple[int, int, int]]:
    """(y, start, stop) of each maximal run [start, stop) of pixels of row y
    that any of `polygons` holds, by row and then from the left."""
    out: list[tuple[int, int, int]] = []
    for y, start, stop in sorted(s for poly in polygons for s in _spans(poly, width, height) if s[1] < s[2]):
        if out and out[-1][0] == y and start <= out[-1][2]:  # touches or overlaps the last run
            if stop > out[-1][2]:
                out[-1] = (y, out[-1][1], stop)
        else:
            out.append((y, start, stop))
    return out


def _column_runs(rows: list[tuple[int, int, int]], height: int) -> list[tuple[int, int]]:
    """The pixels of `_row_union`'s runs as [start, stop) intervals of the
    column-major order, column by column and down each column."""
    # sweeping the columns from the left, a run turns its row on at its
    # start and off at its stop; the rows of a column then hold the runs
    # between the boundaries where a row and the one above it differ
    toggles = sorted([(start, y) for y, start, _ in rows] + [(stop, y) for y, _, stop in rows])
    edges: set[int] = set()
    bounds: list[int] = []  # the start and stop of each run, in order
    for (x, y), (following, _) in zip(toggles, toggles[1:] + toggles[-1:]):
        edges.symmetric_difference_update((y, y + 1))
        if following > x and edges:  # columns x .. following - 1 look alike
            cut = sorted(edges)
            for base in range(x * height, following * height, height):
                bounds += map(base.__add__, cut)
    return list(zip(bounds[0::2], bounds[1::2]))


def _spans(poly: Polygon, width: int, height: int) -> list[tuple[int, int, int]]:
    """(y, start, stop) for each run [start, stop) of pixels of row y that
    `poly` holds, clipped to the canvas, where a run may be empty; fewer than
    3 vertices hold no pixel."""
    verts = poly.vertices
    if len(verts) < 3:
        return []
    crossings: list[tuple[int, float]] = []
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        if y1 == y2:  # a horizontal edge crosses no row
            continue
        # the edge crosses row y iff min(y1, y2) <= y + 0.5 < max(y1, y2)
        rows = range(max(0, math.ceil(min(y1, y2) - 0.5)), min(height, math.ceil(max(y1, y2) - 0.5)))
        dx, dy = x2 - x1, y2 - y1
        # the IEEE expression of `mask.rasterize`, so edge-touching centers agree exactly
        crossings += zip(rows, [dx * (y + 0.5 - y1) / dy + x1 for y in rows])
    crossings.sort()
    # every row holds an even number of crossings, and a center is inside when
    # an odd number of them lie at or left of it: between crossings 2k and 2k + 1
    pairs = iter(crossings)
    return [
        (y, max(0, math.ceil(a - 0.5)), min(width, math.ceil(b - 0.5)))
        for (y, a), (_, b) in zip(pairs, pairs)
    ]


def _rle_footprint(rle: Rle) -> tuple[int, Optional[BBox]]:
    """`footprint` of an rle: a set run within one column covers its own
    rows, and one that crosses a column boundary covers the column height."""
    h, counts = rle.height, rle.counts
    sets = counts[1::2]
    if not sets:
        return 0, None
    ends = list(accumulate(counts))  # ends[2k] starts set run k, ends[2k + 1] ends it
    n = 2 * len(sets)
    firsts = [start % h for start in ends[0:n:2]]  # the row of each run's first pixel
    lasts = [(stop - 1) % h for stop in ends[1:n:2]]  # and of its last
    # a run as long as a column, or one that wraps into the next, covers the column height
    if max(sets) >= h or any(map(operator.gt, firsts, lasts)):
        top, bottom = 0, h - 1
    else:
        top, bottom = min(firsts), max(lasts)
    return sum(sets), BBox(counts[0] // h, top, (ends[n - 1] - 1) // h, bottom)
