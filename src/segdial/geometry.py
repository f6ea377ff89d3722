"""Geometry as files describe it: polygons and run-length codes, checked in pure Python.

Every check a polygon or run-length code must pass lives here, and this
module loads no NumPy, so a reader that needs only labels and ids can reject
exactly the geometry that `segdial.mask` would refuse to draw without paying
for pixels. `segdial.mask` turns these values into masks; `footprint` gives
the area and box of such a mask from the geometry alone, and
`bitset_footprint` from its Bitset. `bitset` gives such
a mask as a `Bitset`, one Python int, on which `bitset_overlap` counts the
pixels two masks share and `bitset_union` unites masks, a machine word at a
time; `bitset_rle` gives a Bitset's run-length code.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Union

__all__ = [
    "BBox", "Bitset", "Geometry", "Polygon", "Rle", "bitset", "bitset_footprint", "bitset_overlap", "bitset_rle",
    "bitset_union", "check_canvas", "check_fit", "footprint",
]


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
    counted from the geometry without drawing a pixel: polygons by
    `bitset_footprint` of their `bitset`, and an rle from its runs.
    """
    if isinstance(geometry, Rle):
        return _rle_footprint(geometry)
    return bitset_footprint(bitset(geometry, width, height))


def bitset_footprint(b: Bitset) -> tuple[int, Optional[BBox]]:
    """(area, tight inclusive box or None when empty) of the mask `b` holds:
    the area is its bit count, the columns of the box those of its first
    and last set bits, and the rows those that the OR of all its columns
    holds."""
    if not b.area:
        return 0, None
    h = b.height
    left, right = b.offset // h, (b.offset + b.bits.bit_length() - 1) // h
    # fold the upper half of the columns onto the lower half until one
    # column is left: it holds every row that any column holds
    rows, columns = b.bits << (b.offset - left * h), right - left + 1
    while columns > 1:
        columns = (columns + 1) // 2
        rows = (rows | rows >> (columns * h)) & ((1 << columns * h) - 1)
    return b.area, BBox(left, (rows & -rows).bit_length() - 1, right, rows.bit_length() - 1)


class Bitset(NamedTuple):
    """A mask on a width x height canvas as one Python int: bit k of `bits`
    is pixel `offset + k` of the column-major order, in which pixel (x, y)
    is x * height + y. Bit 0 is the first set pixel, so a mask has one
    Bitset; an empty mask has offset 0 and bits 0. `area` counts the set
    bits. Build it with `bitset` or `bitset_union`."""

    width: int
    height: int
    offset: int
    bits: int
    area: int


def bitset(geometry: Geometry, width: int, height: int) -> Bitset:
    """The mask that `segdial.instances.decode_geometries` makes of
    (geometry, width, height), as a Bitset built from the geometry without
    drawing a pixel: an rle on its own canvas, polygons on width x height,
    each part filled by `_polygon_bitset` and the parts united."""
    if isinstance(geometry, Rle):
        ends = list(accumulate(geometry.counts))
        starts, stops = ends[0::2], ends[1::2]  # of the set runs, and one clear run past them
        if not stops:
            return Bitset(geometry.width, geometry.height, 0, 0, 0)
        # bit k of each field is pixel base + k: the set runs are the bits
        # below each stop less the bits below each start
        base = starts[0]
        bits = _bit_field(stops, base, stops[-1]) - _bit_field(starts[: len(stops)], base, stops[-1])
        return Bitset(geometry.width, geometry.height, base, bits, sum(geometry.counts[1::2]))
    check_canvas(width, height)
    if not geometry:
        raise ValueError("geometry needs at least one polygon")
    return bitset_union([_polygon_bitset(poly, width, height) for poly in geometry])


def bitset_overlap(a: Bitset, b: Bitset) -> tuple[int, int]:
    """(intersection, union) pixel counts of two masks on one canvas, from
    one shift, AND and bit count, in the manner of cocoapi's `rleIou`:
    `mask.overlap` of the decoded masks, without drawing a pixel."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(f"mask canvases differ: {a.width}x{a.height} vs {b.width}x{b.height}")
    # the mask that starts first is shifted onto the other
    shift = b.offset - a.offset
    if shift >= 0:
        inter = ((a.bits >> shift) & b.bits).bit_count()
    else:
        inter = ((b.bits >> -shift) & a.bits).bit_count()
    return inter, a.area + b.area - inter


def bitset_union(masks: Sequence[Bitset]) -> Bitset:
    """The pixelwise OR of a non-empty list of masks on one canvas, as
    `mask.mask_union` unites the decoded masks."""
    if not masks:
        raise ValueError("bitset_union needs at least one mask")
    first = masks[0]
    for m in masks[1:]:
        if (m.width, m.height) != (first.width, first.height):
            raise ValueError(f"mask canvases differ: {first.width}x{first.height} vs {m.width}x{m.height}")
    parts = [m for m in masks if m.area]
    if len(parts) <= 1:
        return parts[0] if parts else first
    base = min(m.offset for m in parts)
    bits = 0
    for m in parts:
        bits |= m.bits << (m.offset - base)
    return Bitset(first.width, first.height, base, bits, bits.bit_count())


def bitset_rle(b: Bitset) -> Rle:
    """The column-major run-length code of `b`, in `mask.rle_encode`'s
    form: `rle_encode` of the decoded mask."""
    total = b.width * b.height
    if not b.bits:
        return Rle(b.width, b.height, (total,))
    # the binary digits start and end with a set bit, so read from the
    # right they are the set and clear runs in order, starting with a set one
    runs = [len(run) for run in re.findall("1+|0+", format(b.bits, "b"))]
    runs.reverse()
    end = b.offset + b.bits.bit_length()
    if end < total:  # the clear run after the last set one
        runs.append(total - end)
    return Rle(b.width, b.height, [b.offset, *runs])


def _bit_field(positions: list[int], base: int, last: int) -> int:
    """The int with bit p - base set for each p that occurs an odd number of
    times in `positions`, which lie in [base, last]."""
    field = bytearray(((last - base) >> 3) + 1)
    for p in positions:
        p -= base
        field[p >> 3] ^= 1 << (p & 7)
    return int.from_bytes(field, "little")


def _polygon_bitset(poly: Polygon, width: int, height: int) -> Bitset:
    """The pixels of a width x height canvas whose centers `poly` holds
    under the even-odd rule, as `mask.rasterize` sets them; fewer than 3
    vertices hold none.

    In the manner of cocoapi's `rleFrPoly`, no crossings are sorted: a
    crossing of row y at x flips every pixel of the row from column
    ceil(x - 0.5) on, so one toggle bit per crossing and a prefix XOR over
    the columns give the pixels.
    """
    verts = poly.vertices
    if len(verts) < 3:
        return Bitset(width, height, 0, 0, 0)
    ceil = math.ceil
    # (x1, y1, dx, dy, rows crossed) of each edge that is not horizontal:
    # it crosses row y iff min(y1, y2) <= y + 0.5 < max(y1, y2)
    edges = [
        (x1, y1, x2 - x1, y2 - y1, range(max(0, ceil(min(y1, y2) - 0.5)), min(height, ceil(max(y1, y2) - 0.5))))
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1])
        if y1 != y2
    ]
    # the column-major position of each crossing's first flipped pixel, with
    # the IEEE expression of `mask.rasterize`, so edge-touching centers agree exactly
    toggles = [ceil(dx * (y + 0.5 - y1) / dy + x1 - 0.5) * height + y for x1, y1, dx, dy, rows in edges for y in rows]
    if not toggles:
        return Bitset(width, height, 0, 0, 0)
    size = width * height
    clipped = max(toggles) >= size
    if clipped or min(toggles) < 0:
        # a flip left of the canvas flips its first column, one right of it nothing
        toggles = [max(t // height, 0) * height + t % height for t in toggles if t < size]
        if not toggles:
            return Bitset(width, height, 0, 0, 0)
    last = max(toggles)
    # the pixels end at the last toggle's column, or at the canvas edge
    # when a toggle past it was dropped
    end = width if clipped else last // height
    base = min(toggles) // height * height
    bits = _bit_field(toggles, base, last)  # two toggles of one pixel cancel
    # the prefix XOR, by doubling the columns folded in; bits past the
    # last column are cut off
    columns = end - base // height
    span = 1
    while span < columns:
        bits ^= bits << (span * height)
        span *= 2
    bits &= (1 << columns * height) - 1
    if not bits:
        return Bitset(width, height, 0, 0, 0)
    first = (bits & -bits).bit_length() - 1
    return Bitset(width, height, base + first, bits >> first, bits.bit_count())


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
