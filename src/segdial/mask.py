"""Binary masks: rasterization, run-length codec, set ops.

Masks are immutable boolean grids indexed [y, x] with x growing right and
y growing down. The run-length code is column-major with the first run
counting zeros, so an all-ones mask starts with a zero-length run. The
polygon and run-length values, and their checks, are those of
`segdial.geometry`, which loads no NumPy; they are re-exported here.

A `RasterMask` stores its canvas size, the tight box of its set pixels, the
read-only bits cropped to that box and its area, counted once; its memory
scales with the object, not the canvas. Every operation here works on the
crops: `overlap` returns at once for masks whose boxes are disjoint and
otherwise counts only where the boxes meet, and `overlaps` counts every
pair of two lists into exact integer matrices. This module is the only
reader of that format. `RasterMask.pixels` allocates a new full canvas on
each call, so it is for callers that need the whole grid, not for hot paths.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from segdial.geometry import Polygon, Rle, check_canvas

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
    "overlaps",
    "rasterize",
    "rle_decode",
    "rle_decode_many",
    "rle_encode",
]


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


class RasterMask:
    """Immutable binary occupancy grid of shape (height, width).

    Only the tight box of the set pixels is stored; an empty mask keeps a
    0x0 crop at the origin.
    """

    __slots__ = ("_width", "_height", "_top", "_left", "_bottom", "_right", "_bits", "_area")

    def __init__(self, pixels: np.ndarray) -> None:
        arr = np.asarray(pixels, dtype=bool)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask must span at least one pixel, got shape {arr.shape}")
        self._store(arr.shape[1], arr.shape[0], *_crop(0, 0, arr))

    def _store(
        self, width: int, height: int, top: int, left: int, bits: np.ndarray, area: int
    ) -> None:
        """Keep `bits`, a tight crop at (top, left) that nothing else holds, and its count."""
        bits.setflags(write=False)
        self._width = operator.index(width)
        self._height = operator.index(height)
        self._top, self._left = top, left
        self._bottom, self._right = top + bits.shape[0], left + bits.shape[1]
        self._bits = bits
        self._area = area

    @classmethod
    def _from_crop(
        cls, width: int, height: int, top: int, left: int, bits: np.ndarray, area: int
    ) -> "RasterMask":
        mask = cls.__new__(cls)
        mask._store(width, height, top, left, bits, area)
        return mask

    @classmethod
    def zeros(cls, width: int, height: int) -> "RasterMask":
        if width < 1 or height < 1:
            raise ValueError(f"mask must span at least one pixel, got shape {(height, width)}")
        return cls._from_crop(width, height, 0, 0, np.zeros((0, 0), dtype=bool), 0)

    @property
    def pixels(self) -> np.ndarray:
        """A new read-only (height, width) array; each call allocates the full canvas."""
        out = np.zeros((self._height, self._width), dtype=bool)
        out[self._top : self._bottom, self._left : self._right] = self._bits
        out.setflags(write=False)
        return out

    @property
    def width(self) -> int:
        return self._width

    @property
    def height(self) -> int:
        return self._height

    def _key(self) -> tuple[int, int, int, int]:
        return (self._width, self._height, self._top, self._left)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterMask):
            return NotImplemented
        return self._key() == other._key() and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self._key(), self._bits.shape, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"RasterMask({self.width}x{self.height}, area={area(self)})"


def _crop(top: int, left: int, window: np.ndarray) -> tuple[int, int, np.ndarray, int]:
    """(top, left, bits, area) of the set pixels of `window` placed at (top, left).

    The bits are a copy, so no caller array is kept or shared; an empty
    window gives a 0x0 crop at the origin.
    """
    rows = np.flatnonzero(window.any(axis=1))
    if not rows.size:
        return 0, 0, np.zeros((0, 0), dtype=bool), 0
    cols = np.flatnonzero(window.any(axis=0))
    bits = window[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].copy()
    return top + int(rows[0]), left + int(cols[0]), bits, int(np.count_nonzero(bits))


def rasterize(poly: Polygon, width: int, height: int) -> RasterMask:
    """Fill a polygon onto a width x height canvas.

    Pixel (x, y) is set iff its center (x + 0.5, y + 0.5) lies inside the
    polygon under the even-odd rule; geometry outside the canvas is clipped.
    Fewer than 3 vertices yields the empty mask.
    """
    check_canvas(width, height)
    verts = poly.vertices
    if len(verts) < 3:
        return RasterMask.zeros(width, height)
    # Only rows whose center lies in [min y, max y) cross an edge, and in
    # such a row a center left of every crossing, or at or right of every
    # crossing, is passed an even number of times and stays clear. So only
    # the vertex box, clipped to the canvas, is filled.
    loop = np.array(verts + verts[:1], dtype=np.float64)  # edge k runs from vertex k to k + 1
    x1, y1 = loop[:-1].T
    x2, y2 = loop[1:].T
    top = max(0, math.ceil(float(y1.min()) - 0.5))
    bottom = min(height, math.ceil(float(y1.max()) - 0.5))
    ys = np.arange(top, bottom, dtype=np.float64) + 0.5
    # horizontal edges cross no row, so they never divide by zero below
    edge, row = np.nonzero((y1[:, None] > ys) != (y2[:, None] > ys))
    if not edge.size:
        return RasterMask.zeros(width, height)
    # operand order matters: this must stay the same IEEE expression as
    # the scalar crossing test so edge-touching centers agree exactly
    xint = (x2[edge] - x1[edge]) * (ys[row] - y1[edge]) / (y2[edge] - y1[edge]) + x1[edge]
    left = max(0, math.ceil(float(xint.min()) - 0.5))
    right = min(width, math.ceil(float(xint.max()) - 0.5))
    if left >= right:
        return RasterMask.zeros(width, height)
    xs = np.arange(left, right, dtype=np.float64) + 0.5
    # A crossing flips the centers left of it, the first `passed` of its
    # row, so a center is inside when an odd number of crossings have
    # `passed` beyond it: a running xor from the right end of the row.
    passed = np.searchsorted(xs, xint, side="left")
    n = xs.size + 1
    flips = np.zeros(ys.size * n, dtype=bool)
    np.logical_xor.at(flips, row * n + passed, True)
    flips = flips.reshape(ys.size, n)
    inside = np.logical_xor.accumulate(flips[:, :0:-1], axis=1)[:, ::-1]
    return RasterMask._from_crop(width, height, *_crop(top, left, inside))


def rle_encode(mask: RasterMask) -> Rle:
    """Encode a mask; decoding the result restores it exactly."""
    h = mask.height
    total = mask.width * h
    if not mask._area:
        return Rle(mask.width, h, (total,))
    # the full-height columns of the box, flattened column-major between two
    # clear sentinels, so runs that wrap into the next column stay whole
    bits = mask._bits
    flat = np.zeros(bits.shape[1] * h + 2, dtype=np.int8)
    flat[1:-1].reshape(bits.shape[1], h)[:, mask._top : mask._bottom] = bits.T
    step = np.diff(flat)
    starts = np.flatnonzero(step == 1)
    bounds = np.empty(2 * starts.size, dtype=np.int64)
    bounds[0::2] = starts
    bounds[1::2] = np.flatnonzero(step == -1)
    bounds += mask._left * h
    counts = np.diff(bounds, prepend=0, append=total)
    return Rle(mask.width, h, (counts[:-1] if counts[-1] == 0 else counts).tolist())


# booleans one expansion of `rle_decode_many` may allocate (4 MiB); a code
# whose box columns alone hold more is expanded by itself
_DECODE_PIXELS = 2**22


def rle_decode(rle: Rle) -> RasterMask:
    """Expand a run-length code back into a mask."""
    return rle_decode_many([rle])[0]


def rle_decode_many(rles: Sequence[Rle]) -> list[RasterMask]:
    """Expand run-length codes, on any mix of canvases, into masks.

    One set of NumPy passes over the counts of every code finds each code's
    box and area. Then the columns of the boxes are expanded at full height,
    for as many codes at a time as fit in _DECODE_PIXELS, and each crop is
    cut from its code's columns.
    """
    n = len(rles)
    lens = np.fromiter((len(r.counts) for r in rles), dtype=np.int64, count=n)
    counts = np.fromiter(chain.from_iterable(r.counts for r in rles), dtype=np.int64, count=int(lens.sum()))
    keep = np.ones(counts.size, dtype=bool)
    keep[(np.cumsum(lens) - 1)[lens % 2 == 1]] = False  # a trailing clear run sets nothing
    runs = counts[keep]  # per code: clear, set, ..., clear, set
    sets = lens // 2
    (full,) = np.nonzero(sets)  # the codes with a set pixel
    masks = [RasterMask.zeros(r.width, r.height) if not k else None for r, k in zip(rles, sets.tolist())]
    if not full.size:
        return masks
    sets = sets[full]
    heights = np.fromiter((r.height for r in rles), dtype=np.int64, count=n)[full]
    first = np.cumsum(2 * sets) - 2 * sets  # each code's first count in `runs`
    ends = np.cumsum(runs)
    ends -= np.repeat(ends[first] - runs[first], 2 * sets)  # now offsets on each code's canvas
    starts, stops = ends[0::2], ends[1::2]  # of the set runs
    per_run = np.repeat(heights, sets)
    col0, col1 = starts // per_run, (stops - 1) // per_run
    # a set run within one column covers its own rows; one that crosses a
    # column boundary covers the last row of a column and the first of the next
    within = col0 == col1
    row0 = np.where(within, starts - col0 * per_run, 0)
    row1 = np.where(within, stops - 1 - col1 * per_run, per_run - 1)
    set_first = np.cumsum(sets) - sets
    set_last = set_first + sets - 1
    left, right = col0[set_first], col1[set_last] + 1
    top = np.minimum.reduceat(row0, set_first)
    bottom = np.maximum.reduceat(row1, set_first) + 1
    areas = np.add.reduceat(runs[1::2], set_first)
    lead = starts[set_first] - left * heights  # the clear run before the first set one, from column `left`
    pad = right * heights - stops[set_last]  # clear pixels after the last set run, to the end of its column
    pixels = (right - left) * heights
    done = np.cumsum(pixels)

    rows = zip(
        full.tolist(), heights.tolist(), left.tolist(), (right - left).tolist(),
        top.tolist(), bottom.tolist(), areas.tolist(),
    )
    a = 0
    while a < full.size:
        b = max(a + 1, int(np.searchsorted(done, done[a] - pixels[a] + _DECODE_PIXELS, side="right")))
        # codes a..b-1 as one alternating clear/set sequence: each code's
        # padding merges into the next code's lead, both clear
        lo = int(first[a])
        lengths = np.append(runs[lo : int(first[b]) if b < full.size else runs.size], pad[b - 1])
        heads = first[a:b] - lo
        lengths[heads] = lead[a:b]
        lengths[heads[1:]] += pad[a : b - 1]
        values = np.zeros(lengths.size, dtype=bool)
        values[1::2] = True
        flat = np.repeat(values, lengths)
        offset = 0
        for _ in range(b - a):
            i, h, l, w, t, bt, count = next(rows)
            columns = flat[offset : offset + w * h].reshape(w, h)
            offset += w * h
            masks[i] = RasterMask._from_crop(rles[i].width, h, t, l, columns[:, t:bt].T.copy(), count)
        del flat, columns  # before the next chunk is expanded
        a = b
    return masks


def _check_same_canvas(a: RasterMask, b: RasterMask) -> None:
    if a._width != b._width or a._height != b._height:
        raise ValueError(
            f"mask canvases differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def _shared(a: RasterMask, b: RasterMask) -> int:
    """Pixels set in both masks, counted where their boxes meet (0 if they do not)."""
    top, bottom = max(a._top, b._top), min(a._bottom, b._bottom)
    left, right = max(a._left, b._left), min(a._right, b._right)
    if top >= bottom or left >= right:
        return 0
    return int(
        np.count_nonzero(
            a._bits[top - a._top : bottom - a._top, left - a._left : right - a._left]
            & b._bits[top - b._top : bottom - b._top, left - b._left : right - b._left]
        )
    )


def overlap(a: RasterMask, b: RasterMask) -> tuple[int, int]:
    """(intersection, union) pixel counts of two same-canvas masks.

    Masks whose boxes are disjoint (an empty mask has an empty box) share no
    pixel; otherwise only the intersection of the boxes is counted.
    """
    _check_same_canvas(a, b)
    inter = _shared(a, b)
    return inter, a._area + b._area - inter


# Costs of the ways `overlaps` counts shared pixels, in nanoseconds, measured
# on a 2-vCPU x86-64 host: a call of `_shared` and each pixel it ANDs; the
# setup of a stacked product, each float32 pixel pasted into a stack and each
# multiply-add of the product.
_PAIR_NS, _PAIR_PIXEL_NS = 4000.0, 0.25
_STACK_NS, _PASTE_NS, _PRODUCT_NS = 45000.0, 0.4, 0.05
# float32 pixels of the two stacks of one band (2 MiB); far below 2**24, so
# every count a band's product sums is an exact float32
_STACK_ELEMENTS = 2**19


def _boxes(masks: Sequence[RasterMask]) -> np.ndarray:
    """(n, 4) int64 rows of top, left, bottom, right (exclusive); empty masks get an empty box."""
    rows = [(m._top, m._left, m._bottom, m._right) for m in masks]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def _stack(masks: Sequence[RasterMask], top: int, bottom: int, left: int, width: int) -> np.ndarray:
    """Rows [top, bottom) of the crops, pasted into a window `width` wide at
    column `left`; one float32 row per mask."""
    out = np.zeros((len(masks), bottom - top, width), dtype=np.float32)
    for k, m in enumerate(masks):
        t, b = max(m._top, top), min(m._bottom, bottom)
        out[k, t - top : b - top, m._left - left : m._right - left] = m._bits[t - m._top : b - m._top]
    return out.reshape(len(masks), -1)


def _stack_pays(by_pair: float, rows: int, cols: int, height: int, width: int) -> bool:
    """True when one window row of all `rows + cols` masks fits in
    _STACK_ELEMENTS and the stacked products over the `height` x `width`
    window cost less than `by_pair` nanoseconds."""
    stacked = _STACK_NS + height * width * ((rows + cols) * _PASTE_NS + rows * cols * _PRODUCT_NS)
    return (rows + cols) * width <= _STACK_ELEMENTS and stacked < by_pair


def _stacked_shared(
    masks_a: Sequence[RasterMask],
    masks_b: Sequence[RasterMask],
    box_a: np.ndarray,
    box_b: np.ndarray,
    pixels: np.ndarray,
    by_pair: float,
) -> Optional[np.ndarray]:
    """The shared pixels of every pair from float32 products, or None unless
    `_stack_pays`.

    The masks that meet something are pasted into the box around all of
    them, one band of its rows at a time; each band holds the masks that
    reach into it and stays within _STACK_ELEMENTS, and its product adds
    that band's counts.
    """
    rows, cols = np.flatnonzero(pixels.any(axis=1)), np.flatnonzero(pixels.any(axis=0))
    boxes = np.concatenate([box_a[rows], box_b[cols]])
    top, left = boxes[:, :2].min(axis=0).tolist()
    bottom, right = boxes[:, 2:].max(axis=0).tolist()
    width = right - left
    if not _stack_pays(by_pair, rows.size, cols.size, bottom - top, width):
        return None
    inter = np.zeros(pixels.shape, dtype=np.int64)
    band = _STACK_ELEMENTS // ((rows.size + cols.size) * width)
    for y0 in range(top, bottom, band):
        y1 = min(y0 + band, bottom)
        part_a = rows[(box_a[rows, 0] < y1) & (box_a[rows, 2] > y0)]
        part_b = cols[(box_b[cols, 0] < y1) & (box_b[cols, 2] > y0)]
        if part_a.size and part_b.size:
            stack_a = _stack([masks_a[i] for i in part_a], y0, y1, left, width)
            stack_b = _stack([masks_b[j] for j in part_b], y0, y1, left, width)
            inter[np.ix_(part_a, part_b)] += (stack_a @ stack_b.T).astype(np.int64)
    return inter


def overlaps(
    masks_a: Sequence[RasterMask], masks_b: Sequence[RasterMask]
) -> tuple[np.ndarray, np.ndarray]:
    """(intersection, union) pixel counts of every pair as two int64 matrices.

    Entry (i, j) equals `overlap(masks_a[i], masks_b[j])`, and a canvas
    mismatch raises for the first mismatching pair in row-major order. One
    NumPy test finds the pairs whose boxes meet; the others share nothing.
    The shared pixels of those pairs come from `_stacked_shared` when its
    estimated cost is lower, and otherwise pair by pair.
    """
    _check_canvases(masks_a, masks_b)
    box_a, box_b = _boxes(masks_a), _boxes(masks_b)
    low = np.maximum(box_a[:, None, :2], box_b[None, :, :2])
    extent = np.maximum(np.minimum(box_a[:, None, 2:], box_b[None, :, 2:]) - low, 0)
    pixels = extent[..., 0] * extent[..., 1]  # area of the shared box, 0 when disjoint
    ii, jj = np.nonzero(pixels)
    by_pair = ii.size * _PAIR_NS + int(pixels.sum()) * _PAIR_PIXEL_NS
    inter = None
    if by_pair > _STACK_NS:  # otherwise no stacked product can cost less
        inter = _stacked_shared(masks_a, masks_b, box_a, box_b, pixels, by_pair)
    if inter is None:
        inter = np.zeros(pixels.shape, dtype=np.int64)
        for i, j in zip(ii.tolist(), jj.tolist()):
            inter[i, j] = _shared(masks_a[i], masks_b[j])
    areas_a = np.array([m._area for m in masks_a], dtype=np.int64)
    areas_b = np.array([m._area for m in masks_b], dtype=np.int64)
    return inter, areas_a[:, None] + areas_b[None, :] - inter


def _check_canvases(masks_a: Sequence[RasterMask], masks_b: Sequence[RasterMask]) -> None:
    """Raise as `overlap` would for the first pair, in row-major order, whose canvases differ."""
    sizes_b = {(m._width, m._height) for m in masks_b}
    for a in masks_a:
        if len(sizes_b) > 1 or (a._width, a._height) not in sizes_b:
            for b in masks_b:
                _check_same_canvas(a, b)


def mask_iou(a: RasterMask, b: RasterMask) -> float:
    """Intersection over union of two same-canvas masks; 0.0 when both are empty."""
    inter, union = overlap(a, b)
    return inter / union if union else 0.0


def mask_union(masks: Sequence[RasterMask]) -> RasterMask:
    """Pixelwise OR of a non-empty list of same-canvas masks."""
    if not masks:
        raise ValueError("mask_union needs at least one mask")
    first = masks[0]
    for m in masks[1:]:
        _check_same_canvas(first, m)
    parts = [m for m in masks if m._area]
    if len(parts) <= 1:
        return parts[0] if parts else first  # masks are immutable, so no copy
    top = min(m._top for m in parts)
    left = min(m._left for m in parts)
    out = np.zeros(
        (max(m._bottom for m in parts) - top, max(m._right for m in parts) - left), dtype=bool
    )
    for m in parts:
        out[m._top - top : m._bottom - top, m._left - left : m._right - left] |= m._bits
    # the union of tight boxes is tight
    count = int(np.count_nonzero(out))
    return RasterMask._from_crop(first.width, first.height, top, left, out, count)


def area(mask: RasterMask) -> int:
    """Number of set pixels."""
    return mask._area


def bbox_of(mask: RasterMask) -> Optional[BBox]:
    """Tight inclusive bbox of the set pixels, or None for an empty mask."""
    if not mask._area:
        return None
    return BBox(mask._left, mask._top, mask._right - 1, mask._bottom - 1)
