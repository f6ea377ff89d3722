"""Geometry as files describe it: polygons and run-length codes, checked in pure Python.

Every check a polygon or run-length code must pass lives here, and this
module loads no NumPy, so a reader that needs only labels and ids can reject
exactly the geometry that `segdial.mask` would refuse to draw without paying
for pixels. `segdial.mask` turns these values into masks.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

__all__ = ["Geometry", "Polygon", "Rle", "check_canvas", "check_fit"]


# A checked record type is a NamedTuple of its fields plus a subclass whose
# __new__ makes the checks; `_make` and `_replace` skip them, so build
# checked values through the constructor.


class _PolygonFields(NamedTuple):
    vertices: tuple[tuple[float, float], ...]


class Polygon(_PolygonFields):
    """Closed vertex loop in pixel coordinates (x, y), not necessarily convex."""

    __slots__ = ()

    def __new__(cls, vertices):
        verts = tuple((float(x), float(y)) for x, y in vertices)
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("polygon vertices must be finite")
            if x < 0 or y < 0:
                raise ValueError("polygon vertices must be non-negative")
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
