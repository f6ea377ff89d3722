"""Images, instances and predictions as the scorers read them, and the
one path from any mask to a bitset.

A mask is a `RasterMask`, a `geometry.Bitset` or a run-length code
(`geometry.Rle`); the scorers turn each into a Bitset by `as_bitset`. A
`RasterMask` is only a view of a Bitset cut to its box, so geometry
becomes a mask through `geometry.bitset` alone.

`match`, `evaluate` and `transform` need these types and nothing of prompt
building or AP scoring, so they live apart from `segdial.curation` and
`segdial.metrics`, which re-export them; the package resolves their public
names here. The
pixel layer, `segdial.mask`, loads only where a `RasterMask` is built
(`InstanceAnnotation.from_geometry`), so building prompts from areas and
boxes alone (`curate`), merging instances by their geometry (`transform`)
or scoring bitsets (`evaluate`) loads no NumPy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from segdial.geometry import BBox, Bitset, Geometry, Rle, bitset, bitset_footprint, check_fit

if TYPE_CHECKING:
    from segdial.mask import RasterMask

__all__ = [
    "CurationError",
    "EvalValidationError",
    "ImageRecord",
    "InstanceAnnotation",
    "PredictionInstance",
    "as_bitset",
    "check_score",
]


class CurationError(ValueError):
    pass


class EvalValidationError(ValueError):
    """Raised when predictions reference unknown images/categories or malformed masks."""

    def __init__(self, offenders: Sequence[str]):
        self.offenders = tuple(offenders)
        preview = "; ".join(self.offenders[:5])
        more = f" (+{len(self.offenders) - 5} more)" if len(self.offenders) > 5 else ""
        super().__init__(f"{len(self.offenders)} invalid prediction(s): {preview}{more}")


def as_bitset(mask: Union[Bitset, Rle, RasterMask]) -> Bitset:
    """`mask` as a Bitset: a run-length code is counted from its runs, and a
    RasterMask gives the Bitset it views, rebuilt from its crop
    (`segdial.mask.to_bitset`)."""
    if isinstance(mask, Bitset):
        return mask
    if isinstance(mask, Rle):
        return bitset(mask, mask.width, mask.height)
    from segdial.mask import to_bitset

    return to_bitset(mask)


class InstanceAnnotation(NamedTuple):
    """One object instance; mask, bbox, area, and center are derived from
    geometry. `segdial.dataset_io.load_coco_masks` keeps an rle's mask as
    its Rle and polygons' as their Bitset; the mask is None where only the
    area and box were given."""

    instance_id: int
    category_id: int
    label_name: str
    mask: Optional[Union[RasterMask, Bitset, Rle]]
    bbox: Optional[BBox]
    area: int
    center_point: Optional[tuple[int, int]]

    @classmethod
    def from_geometry(
        cls,
        instance_id: int,
        category_id: int,
        label_name: str,
        geometry: Geometry,
        width: int,
        height: int,
    ) -> "InstanceAnnotation":
        if not isinstance(geometry, Rle):
            geometry = tuple(geometry)
            if not geometry:
                raise CurationError(f"annotation {instance_id}: empty geometry")
        try:
            check_fit(geometry, width, height)
        except ValueError as exc:
            raise CurationError(f"annotation {instance_id}: {exc}") from None
        from segdial.mask import RasterMask

        b = bitset(geometry, width, height)
        return cls.from_footprint(instance_id, category_id, label_name, *bitset_footprint(b), RasterMask.from_bitset(b))

    @classmethod
    def from_footprint(
        cls,
        instance_id: int,
        category_id: int,
        label_name: str,
        area: int,
        bbox: Optional[BBox],
        mask: Optional[Union[RasterMask, Bitset, Rle]] = None,
    ) -> "InstanceAnnotation":
        """An instance of `area` pixels in the tight box `bbox` (None when
        empty); the center is the box's."""
        return cls(instance_id, category_id, label_name, mask, bbox, area, bbox.center if bbox is not None else None)


# ImageRecord and PredictionInstance check in __new__, which `_make` and
# `_replace` skip: rebuild them through the constructor.


class _ImageRecordFields(NamedTuple):
    image_id: int
    width: int
    height: int
    file_name: str
    annotations: tuple[InstanceAnnotation, ...]


class ImageRecord(_ImageRecordFields):
    """One image with its instance annotations."""

    __slots__ = ()

    def __new__(cls, image_id, width, height, file_name, annotations):
        if width < 1 or height < 1:
            raise ValueError(f"image {image_id}: empty canvas")
        seen = set()
        for ann in annotations:
            if ann.instance_id in seen:
                raise ValueError(f"image {image_id}: duplicate instance_id {ann.instance_id}")
            seen.add(ann.instance_id)
            if ann.mask is not None and (ann.mask.width, ann.mask.height) != (width, height):
                raise ValueError(
                    f"image {image_id}: annotation {ann.instance_id} mask is "
                    f"{ann.mask.width}x{ann.mask.height}, image is {width}x{height}"
                )
        return tuple.__new__(cls, (image_id, width, height, file_name, annotations))


class _PredictionInstanceFields(NamedTuple):
    image_id: int
    mask: Union[RasterMask, Bitset, Rle]
    score: float = 1.0
    category_id: Optional[int] = None


class PredictionInstance(_PredictionInstanceFields):
    """One predicted instance mask, a RasterMask, a Bitset or an Rle, with
    an optional confidence."""

    __slots__ = ()

    def __new__(cls, image_id, mask, score=1.0, category_id=None):
        check_score(score)
        return tuple.__new__(cls, (image_id, mask, score, category_id))


def check_score(score: float) -> float:
    """`score`, or ValueError unless it lies in [0, 1]."""
    if not (0.0 <= score <= 1.0):
        raise ValueError(f"score must be in [0, 1], got {score}")
    return score
