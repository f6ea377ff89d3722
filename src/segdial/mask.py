"""Binary mask geometry: polygons, rasterization, run-length codec, set ops.

Masks are immutable boolean grids indexed [y, x] with x growing right and
y growing down. The run-length code is column-major with the first run
counting zeros, so an all-ones mask starts with a zero-length run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "BBox",
    "Polygon",
    "RasterMask",
    "Rle",
    "area",
    "bbox_of",
    "mask_iou",
    "mask_union",
    "overlap",
    "rasterize",
    "rle_decode",
    "rle_encode",
]


@dataclass(frozen=True)
class BBox:
    """Tight pixel-index bounds, inclusive on all four edges."""

    left: int
    top: int
    right: int
    bottom: int

    def __post_init__(self) -> None:
        if self.left > self.right or self.top > self.bottom:
            raise ValueError(f"degenerate bbox: {self!r}")

    @property
    def center(self) -> tuple[int, int]:
        # integer center, halves round toward the bottom-right
        return ((self.left + self.right + 1) // 2, (self.top + self.bottom + 1) // 2)


@dataclass(frozen=True)
class Polygon:
    """Closed vertex loop in pixel coordinates (x, y), not necessarily convex."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("polygon vertices must be finite")
            if x < 0 or y < 0:
                raise ValueError("polygon vertices must be non-negative")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def from_flat(cls, coords: Sequence[float]) -> "Polygon":
        """Build from a flat [x0, y0, x1, y1, ...] list."""
        if len(coords) % 2 != 0:
            raise ValueError("flat coordinate list must have even length")
        pairs = tuple((coords[i], coords[i + 1]) for i in range(0, len(coords), 2))
        return cls(pairs)


class RasterMask:
    """Immutable binary occupancy grid of shape (height, width)."""

    __slots__ = ("_pixels",)

    def __init__(self, pixels: np.ndarray) -> None:
        arr = np.array(pixels, dtype=bool, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask must span at least one pixel, got shape {arr.shape}")
        arr.setflags(write=False)
        self._pixels = arr

    @classmethod
    def zeros(cls, width: int, height: int) -> "RasterMask":
        return cls(np.zeros((height, width), dtype=bool))

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterMask):
            return NotImplemented
        return self._pixels.shape == other._pixels.shape and bool(
            np.array_equal(self._pixels, other._pixels)
        )

    def __hash__(self) -> int:
        return hash((self._pixels.shape, self._pixels.tobytes()))

    def __repr__(self) -> str:
        return f"RasterMask({self.width}x{self.height}, area={area(self)})"


@dataclass(frozen=True)
class Rle:
    """Column-major run-length code; counts[0] is a zero run (possibly empty)."""

    width: int
    height: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("rle canvas must span at least one pixel")
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if not counts:
            raise ValueError("rle counts must be non-empty")
        if any(c < 0 for c in counts):
            raise ValueError("rle counts must be non-negative")
        if any(c == 0 for c in counts[1:]):
            raise ValueError("rle has a zero-length run after the first")
        total = sum(counts)
        if total != self.width * self.height:
            raise ValueError(
                f"rle counts sum to {total}, expected {self.width * self.height}"
            )


def rasterize(poly: Polygon, width: int, height: int) -> RasterMask:
    """Fill a polygon onto a width x height canvas.

    Pixel (x, y) is set iff its center (x + 0.5, y + 0.5) lies inside the
    polygon under the even-odd rule; geometry outside the canvas is clipped.
    Fewer than 3 vertices yields the empty mask.
    """
    if width < 1 or height < 1:
        raise ValueError("canvas must span at least one pixel")
    verts = poly.vertices
    if len(verts) < 3:
        return RasterMask.zeros(width, height)
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64) + 0.5
    inside = np.zeros((height, width), dtype=bool)
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        if y1 == y2:
            continue
        crosses = (y1 > ys) != (y2 > ys)
        if not crosses.any():
            continue
        # operand order matters: this must stay the same IEEE expression as
        # the scalar crossing test so edge-touching centers agree exactly
        xint = (x2 - x1) * (ys[crosses] - y1) / (y2 - y1) + x1
        inside[crosses] ^= xs[None, :] < xint[:, None]
    return RasterMask(inside)


def rle_encode(mask: RasterMask) -> Rle:
    """Encode a mask; decoding the result restores it exactly."""
    flat = mask.pixels.flatten(order="F")
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    counts = [int(c) for c in np.diff(bounds)]
    if flat[0]:
        counts.insert(0, 0)
    return Rle(mask.width, mask.height, tuple(counts))


def rle_decode(rle: Rle) -> RasterMask:
    """Expand a run-length code back into a mask."""
    values = np.zeros(len(rle.counts), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, rle.counts)
    return RasterMask(flat.reshape((rle.height, rle.width), order="F"))


def _check_same_canvas(a: RasterMask, b: RasterMask) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"mask canvases differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def overlap(a: RasterMask, b: RasterMask) -> tuple[int, int]:
    """(intersection, union) pixel counts of two same-canvas masks."""
    _check_same_canvas(a, b)
    inter = int(np.count_nonzero(a.pixels & b.pixels))
    union = int(np.count_nonzero(a.pixels | b.pixels))
    return inter, union


def mask_iou(a: RasterMask, b: RasterMask) -> float:
    """Intersection over union of two same-canvas masks; 0.0 when both are empty."""
    inter, union = overlap(a, b)
    return inter / union if union else 0.0


def mask_union(masks: Sequence[RasterMask]) -> RasterMask:
    """Pixelwise OR of a non-empty list of same-canvas masks."""
    if not masks:
        raise ValueError("mask_union needs at least one mask")
    first = masks[0]
    out = first.pixels.copy()
    for m in masks[1:]:
        _check_same_canvas(first, m)
        out |= m.pixels
    return RasterMask(out)


def area(mask: RasterMask) -> int:
    """Number of set pixels."""
    return int(np.count_nonzero(mask.pixels))


def bbox_of(mask: RasterMask) -> Optional[BBox]:
    """Tight inclusive bbox of the set pixels, or None for an empty mask."""
    ys, xs = np.nonzero(mask.pixels)
    if ys.size == 0:
        return None
    return BBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))
