"""Binary masks: rasterization, run-length codec, set ops.

Masks are immutable boolean grids indexed [y, x] with x growing right and
y growing down. The run-length code is column-major with the first run
counting zeros, so an all-ones mask starts with a zero-length run. The
polygon and run-length values, their checks and the box type are those of
`segdial.geometry`, which loads no NumPy; they are re-exported here.

A `RasterMask` is a view of a `geometry.Bitset`: it stores its canvas
size, the tight box of its set pixels and the Bitset of the pixels cut to
that box, on a canvas of the box's size, so its memory is a bit per pixel
of the object's box, not of the canvas or of the box's full-height columns.
Every function here is the Bitset function of `segdial.geometry` on the
canvas Bitset, which `to_bitset` rebuilds from the crop (`rasterize` and
`rle_decode` are `bitset`, `rle_encode` is `bitset_rle`, `overlap` is
`bitset_overlap`, `mask_union` is `bitset_union`); `area` and `bbox_of`
read the stored count and box. NumPy serves only the edges: cutting a
canvas Bitset to its box and placing the crop back, `RasterMask(ndarray)`,
and `RasterMask.pixels`, which unpacks a new full canvas on each call, so
it is for callers that need the whole grid, not for hot paths.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from segdial.geometry import (
    BBox, Bitset, Polygon, Rle, bitset, bitset_footprint, bitset_overlap, bitset_rle, bitset_union,
)

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
    "to_bitset",
]


class RasterMask:
    """Immutable binary occupancy grid of shape (height, width), held as
    the Bitset of its set pixels cut to their tight box; an empty mask
    keeps a 0x0 crop at the origin."""

    __slots__ = ("_width", "_height", "_left", "_top", "_crop")

    def __init__(self, pixels: np.ndarray) -> None:
        arr = np.asarray(pixels, dtype=bool)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-d, got shape {arr.shape}")
        height, width = arr.shape
        if height < 1 or width < 1:
            raise ValueError(f"mask must span at least one pixel, got shape {arr.shape}")
        self._store(_pack(arr.T))  # the rows of the transpose are the columns

    def _store(self, b: Bitset) -> None:
        """Keep the canvas of `b` and its pixels cut to their tight box."""
        self._width, self._height = b.width, b.height
        _, box = bitset_footprint(b)
        if box is None:
            self._left = self._top = 0
            self._crop = Bitset(0, 0, 0, 0, 0)
            return
        # the box's columns of `b` as a Bitset of their own, cut to the box's rows
        columns = _columns(Bitset(box.right - box.left + 1, b.height, b.offset - box.left * b.height, b.bits, b.area))
        self._left, self._top = box.left, box.top
        self._crop = _pack(columns[:, box.top : box.bottom + 1])

    @classmethod
    def from_bitset(cls, b: Bitset) -> "RasterMask":
        """The mask `b` holds."""
        mask = cls.__new__(cls)
        mask._store(b)
        return mask

    @classmethod
    def zeros(cls, width: int, height: int) -> "RasterMask":
        if width < 1 or height < 1:
            raise ValueError(f"mask must span at least one pixel, got shape {(height, width)}")
        return cls.from_bitset(Bitset(width, height, 0, 0, 0))

    @property
    def pixels(self) -> np.ndarray:
        """A new read-only (height, width) array; each call allocates the full canvas."""
        out = _columns(to_bitset(self)).T.copy()
        out.setflags(write=False)
        return out

    @property
    def width(self) -> int:
        return self._width

    @property
    def height(self) -> int:
        return self._height

    def _key(self) -> tuple[int, int, int, int, Bitset]:
        return (self._width, self._height, self._left, self._top, self._crop)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterMask):
            return NotImplemented
        return self._key() == other._key()  # a mask has one box and one crop

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"RasterMask({self.width}x{self.height}, area={area(self)})"


def _columns(b: Bitset) -> np.ndarray:
    """The pixels of `b` as a (width, height) bool array: row x is column x."""
    size = b.width * b.height
    packed = np.frombuffer((b.bits << b.offset).to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").reshape(b.width, b.height).view(bool)


def _pack(columns: np.ndarray) -> Bitset:
    """The Bitset of a (width, height) bool array whose row x is column x."""
    width, height = columns.shape
    bits = int.from_bytes(np.packbits(columns, bitorder="little").tobytes(), "little")
    offset = (bits & -bits).bit_length() - 1 if bits else 0
    return Bitset(width, height, offset, bits >> offset, bits.bit_count())


def rasterize(poly: Polygon, width: int, height: int) -> RasterMask:
    """Fill a polygon onto a width x height canvas.

    Pixel (x, y) is set iff its center (x + 0.5, y + 0.5) lies inside the
    polygon under the even-odd rule; geometry outside the canvas is clipped.
    Fewer than 3 vertices yields the empty mask.
    """
    return RasterMask.from_bitset(bitset((poly,), width, height))


def rle_encode(mask: RasterMask) -> Rle:
    """Encode a mask; decoding the result restores it exactly."""
    return bitset_rle(to_bitset(mask))


def to_bitset(mask: RasterMask) -> Bitset:
    """The `geometry.Bitset` of a mask on its canvas: the columns of its
    crop placed at its box; each call builds it anew."""
    crop, height = mask._crop, mask._height
    if not crop.area:
        return Bitset(mask._width, height, 0, 0, 0)
    columns = np.zeros((crop.width, height), dtype=bool)
    columns[:, mask._top : mask._top + crop.height] = _columns(crop)
    b = _pack(columns)
    return b._replace(width=mask._width, offset=mask._left * height + b.offset)


def rle_decode(rle: Rle) -> RasterMask:
    """Expand a run-length code back into a mask."""
    return RasterMask.from_bitset(bitset(rle, rle.width, rle.height))


def overlap(a: RasterMask, b: RasterMask) -> tuple[int, int]:
    """(intersection, union) pixel counts of two same-canvas masks."""
    return bitset_overlap(to_bitset(a), to_bitset(b))


def mask_iou(a: RasterMask, b: RasterMask) -> float:
    """Intersection over union of two same-canvas masks; 0.0 when both are empty."""
    inter, union = overlap(a, b)
    return inter / union if union else 0.0


def mask_union(masks: Sequence[RasterMask]) -> RasterMask:
    """Pixelwise OR of a non-empty list of same-canvas masks."""
    if not masks:
        raise ValueError("mask_union needs at least one mask")
    return RasterMask.from_bitset(bitset_union([to_bitset(m) for m in masks]))


def area(mask: RasterMask) -> int:
    """Number of set pixels."""
    return mask._crop.area


def bbox_of(mask: RasterMask) -> Optional[BBox]:
    """Tight inclusive bbox of the set pixels, or None for an empty mask."""
    if not mask._crop.area:
        return None
    return BBox(mask._left, mask._top, mask._left + mask._crop.width - 1, mask._top + mask._crop.height - 1)
