"""File formats: COCO-style ground truth, records JSONL, predictions JSONL.

All JSONL writers emit one json.dumps(..., sort_keys=True) object per line
with "\n" endings, so identical inputs produce byte-identical files. The
geometry modules and the record types load inside the functions that use
them: checking a COCO file or reading its labels loads only the NumPy-free
`segdial.geometry`; reading its masks, or those of predictions, as
run-length codes (`Rle`) and bitsets (`load_coco_masks`,
`read_prediction_masks`) adds only `segdial.instances`; reading records
never loads NumPy, checking record lines loads no other module, and
reading masks never loads the parser.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from types import ModuleType

    from segdial.geometry import Geometry, Rle
    from segdial.instances import ImageRecord, InstanceAnnotation, PredictionInstance
    from segdial.parsing import SerializedRecord

__all__ = [
    "CocoDataset",
    "DatasetError",
    "RecordError",
    "load_coco",
    "load_coco_labels",
    "load_coco_masks",
    "read_prediction_masks",
    "read_predictions",
    "read_record_lines",
    "read_records",
    "rle_to_obj",
    "write_jsonl",
    "write_predictions",
    "write_records",
]

SCHEMA_VERSION = 1
TASK_MODES = ("semseg", "instseg", "sid_semseg", "sid_instseg", "pure_text")  # of a record
AREA_TOLERANCE = 0.01  # relative to the computed area
BBOX_TOLERANCE = 1.0  # pixels, per box edge


class DatasetError(ValueError):
    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        preview = "; ".join(self.errors[:5])
        more = f" (+{len(self.errors) - 5} more)" if len(self.errors) > 5 else ""
        super().__init__(f"{len(self.errors)} dataset error(s): {preview}{more}")


class RecordError(ValueError):
    pass


class CocoDataset(NamedTuple):
    images: tuple[ImageRecord, ...]
    categories: dict[int, str]
    warnings: tuple[str, ...]


def _is_int(value) -> bool:
    """Whether a decoded JSON value is an integer: a JSON boolean decodes to a
    Python bool, which is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integers(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints, or ValueError unless every decoded JSON
    value of `values` is an integer or a float without a fractional part:
    `Rle` would take a string, a boolean or 1.7 for the integer it converts
    to."""
    if set(map(type, values)) <= {int}:
        return tuple(values)
    for v in values:
        if not (_is_int(v) or (isinstance(v, float) and v.is_integer())):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return tuple(map(int, values))


def _coerce_geometry(seg, geometry: ModuleType) -> Geometry:
    """COCO segmentation field: list of flat polygons, or {size, counts} rle.
    Any other value raises ValueError saying what is wrong with it. So does a
    number given as anything but a JSON number, a boolean among them, and an
    rle size or count with a fractional part, which `Polygon` and `Rle`
    would convert. `geometry` is the module `segdial.geometry`, which the
    reader of a file imports once."""
    try:
        if isinstance(seg, dict):
            size = seg.get("size")
            counts = seg.get("counts")
            if isinstance(size, (list, tuple)) and len(size) == 2 and isinstance(counts, (list, tuple)):
                height, width = _integers(size, "rle size entries")
                return geometry.Rle._from_ints(width, height, _integers(counts, "rle counts"))
            raise ValueError("malformed rle segmentation")
        if isinstance(seg, list) and seg and all(isinstance(p, (list, tuple)) for p in seg):
            for p in seg:
                if not set(map(type, p)) <= {int, float}:
                    bad = next(v for v in p if type(v) not in (int, float))
                    raise ValueError(f"polygon vertices must be numbers, got {bad!r}")
            return tuple(map(geometry.Polygon.from_flat, seg))
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from exc
    raise ValueError("segmentation must be polygons or rle")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), "a number")


def _objects(raw: dict, section: str, errors: list[str]) -> Iterator[dict]:
    """The entries of one section of a COCO file, each of which must be an
    object; every other entry is noted in `errors` and skipped."""
    for n, entry in enumerate(raw.get(section, [])):
        if isinstance(entry, dict):
            yield entry
        else:
            errors.append(f"{section}[{n}] must be an object, not {_json_type(entry)}")


def _read_coco(path: str | Path) -> tuple[dict[int, str], dict[int, dict], list[tuple[dict, Geometry]]]:
    """(categories, image objects by id, (annotation object, geometry) pairs) of
    a COCO-style file, in file order, after every check `load_coco` makes
    before it draws a pixel; NumPy stays unloaded.

    A file that is not an object, or a section that is not an array, raises
    DatasetError at once. Entries that are not objects, missing image/category
    references, malformed or misfitting geometry and duplicate ids raise
    DatasetError with every such error; an image without a pixel raises
    ValueError.
    """
    from segdial import geometry

    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise DatasetError([f"the file must hold an object, not {_json_type(raw)}"])
    errors = [
        f"{section} must be an array, not {_json_type(raw[section])}"
        for section in ("categories", "images", "annotations")
        if not isinstance(raw.get(section, []), list)
    ]
    if errors:
        raise DatasetError(errors)

    categories: dict[int, str] = {}
    for cat in _objects(raw, "categories", errors):
        cid = cat.get("id")
        if not _is_int(cid):
            errors.append(f"category without integer id: {cat!r}")
            continue
        if cid in categories:
            errors.append(f"duplicate category id {cid}")
            continue
        categories[cid] = str(cat.get("name", cid))

    image_meta: dict[int, dict] = {}
    for img in _objects(raw, "images", errors):
        iid = img.get("id")
        if not _is_int(iid):
            errors.append(f"image without integer id: {img!r}")
            continue
        if iid in image_meta:
            errors.append(f"duplicate image id {iid}")
            continue
        if not _is_int(img.get("width")) or not _is_int(img.get("height")):
            errors.append(f"image {iid}: width/height must be integers")
            continue
        if not isinstance(img.get("file_name"), str):
            errors.append(f"image {iid}: missing file_name")
            continue
        image_meta[iid] = img

    annotations: list[tuple[dict, Geometry]] = []
    seen_ann_ids: set[int] = set()
    for ann in _objects(raw, "annotations", errors):
        aid = ann.get("id")
        if not _is_int(aid):
            errors.append(f"annotation without integer id: keys {sorted(ann)}")
            continue
        if aid in seen_ann_ids:
            errors.append(f"duplicate annotation id {aid}")
            continue
        seen_ann_ids.add(aid)
        # only an integer is an id: a boolean or 1.0 equals an integer id
        # but is none, and an array or object cannot be looked up
        iid = ann.get("image_id")
        if not _is_int(iid) or iid not in image_meta:
            errors.append(f"annotation {aid}: unknown image_id {iid}")
            continue
        cid = ann.get("category_id")
        if not _is_int(cid) or cid not in categories:
            errors.append(f"annotation {aid}: unknown category_id {cid}")
            continue
        img = image_meta[iid]
        try:
            g = _coerce_geometry(ann.get("segmentation"), geometry)
            geometry.check_fit(g, img["width"], img["height"])
        except ValueError as exc:
            errors.append(f"annotation {aid}: {exc}")
            continue
        annotations.append((ann, g))

    if errors:
        raise DatasetError(errors)
    for iid, img in image_meta.items():
        if img["width"] < 1 or img["height"] < 1:
            raise ValueError(f"image {iid}: empty canvas")
    return categories, image_meta, annotations


def load_coco_labels(path: str | Path) -> dict[int, dict[int, str]]:
    """{image id: {annotation id: label name}} of a COCO-style file, in file
    order. The file is checked as `load_coco` checks it, and rejected with
    the same errors, but no geometry is decoded and NumPy stays unloaded."""
    categories, image_meta, annotations = _read_coco(path)
    labels: dict[int, dict[int, str]] = {iid: {} for iid in image_meta}
    for ann, _ in annotations:
        labels[ann["image_id"]][ann["id"]] = categories[ann["category_id"]]
    return labels


def load_coco(path: str | Path) -> CocoDataset:
    """Load and revalidate a COCO-style instance file: `load_coco_masks`
    with each mask a `RasterMask`, the view of its bitset."""
    from segdial.instances import ImageRecord, as_bitset
    from segdial.mask import RasterMask

    dataset = load_coco_masks(path)
    images = tuple(
        ImageRecord(
            img.image_id, img.width, img.height, img.file_name,
            tuple(a._replace(mask=RasterMask.from_bitset(as_bitset(a.mask))) for a in img.annotations),
        )
        for img in dataset.images
    )
    return dataset._replace(images=images)


def load_coco_masks(path: str | Path) -> CocoDataset:
    """Load and revalidate a COCO-style instance file, with each mask in a
    form the scorers read without drawing a pixel: an rle exactly as the
    file codes it, and polygons as their `geometry.bitset`, built once.

    The file is checked as `load_coco_labels` checks it, then area, bbox
    and center are counted by `geometry.footprint` of an rle and
    `geometry.bitset_footprint` of a bitset; a stored area off by more than
    AREA_TOLERANCE of the computed one, or a stored bbox edge off by more
    than BBOX_TOLERANCE pixels, becomes a warning (computed values win).
    NumPy stays unloaded."""
    from segdial.geometry import Rle, bitset, bitset_footprint, footprint
    from segdial.instances import InstanceAnnotation

    categories, image_meta, annotations = _read_coco(path)
    built = []
    for ann, geometry in annotations:
        if type(geometry) is Rle:
            mask, (area, box) = geometry, footprint(geometry, geometry.width, geometry.height)
        else:
            img = image_meta[ann["image_id"]]
            mask = bitset(geometry, img["width"], img["height"])
            area, box = bitset_footprint(mask)
        cid = ann["category_id"]
        built.append(InstanceAnnotation.from_footprint(ann["id"], cid, categories[cid], area, box, mask))
    return _dataset(categories, image_meta, annotations, built)


def _dataset(
    categories: dict[int, str],
    image_meta: dict[int, dict],
    annotations: list[tuple[dict, Geometry]],
    built: list[InstanceAnnotation],
) -> CocoDataset:
    """The dataset of `_read_coco`'s output and the instance built from each
    annotation, with a warning for each stored area or bbox that disagrees
    with the computed one."""
    from segdial.instances import ImageRecord

    warnings: list[str] = []
    per_image: dict[int, list[InstanceAnnotation]] = {iid: [] for iid in image_meta}
    for (ann, _), inst in zip(annotations, built):
        aid, area, box = inst.instance_id, inst.area, inst.bbox
        stored_area = ann.get("area")
        if isinstance(stored_area, (int, float)):
            if abs(stored_area - area) > AREA_TOLERANCE * max(area, 1):
                warnings.append(f"annotation {aid}: stored area {stored_area} vs computed {area}")
        stored_bbox = ann.get("bbox")
        if isinstance(stored_bbox, (list, tuple)) and len(stored_bbox) == 4:
            if box is None:
                warnings.append(f"annotation {aid}: stored bbox but the mask is empty")
            else:
                try:
                    x, y, w, h = map(float, stored_bbox)
                except (TypeError, ValueError, OverflowError):
                    raise DatasetError([f"annotation {aid}: stored bbox {stored_bbox} is not four numbers"]) from None
                left, top, right, bottom = box
                # each pixel index converts to a float exactly
                if (
                    abs(x - left) > BBOX_TOLERANCE
                    or abs(y - top) > BBOX_TOLERANCE
                    or abs(x + w - (right + 1)) > BBOX_TOLERANCE
                    or abs(y + h - (bottom + 1)) > BBOX_TOLERANCE
                ):
                    warnings.append(
                        f"annotation {aid}: stored bbox {stored_bbox} vs computed {[left, top, right, bottom]}"
                    )
        per_image[ann["image_id"]].append(inst)

    images = tuple(
        ImageRecord(iid, meta["width"], meta["height"], meta["file_name"], tuple(per_image[iid]))
        for iid, meta in image_meta.items()
    )
    return CocoDataset(images, categories, tuple(warnings))


# --- records JSONL ------------------------------------------------------------


def _record_to_obj(record: SerializedRecord) -> dict:
    if not isinstance(record.image_id, int):
        raise RecordError("records written to disk must carry an integer image_id")
    prov = None
    if record.provenance is not None:
        prov = {
            "prompt_kind": record.provenance.prompt_kind,
            "response_hash": record.provenance.response_hash,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "image_id": record.image_id,
        "task_mode": record.task_mode,
        "turns": [
            {"role": t.role, "text": t.text, "seg_ids": list(t.seg_ids)} for t in record.turns
        ],
        "provenance": prov,
    }


def write_jsonl(objs: Iterable[dict], path: str | Path) -> None:
    """Write one sorted-keys JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_records(records: Sequence[SerializedRecord], path: str | Path) -> None:
    write_jsonl((_record_to_obj(r) for r in records), path)


def _checked_record(obj, where: str) -> tuple[int, str, list[tuple[str, str, tuple[int, ...]]], Optional[dict]]:
    """(image id, task mode, (role, text, seg ids) per turn, provenance object
    or None) of one record object, after every check `read_records` makes."""
    if not isinstance(obj, dict):
        raise RecordError(f"{where}: record must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise RecordError(f"{where}: schema_version must be {SCHEMA_VERSION}")
    image_id = obj.get("image_id")
    if not _is_int(image_id):
        raise RecordError(f"{where}: image_id must be an integer")
    task_mode = obj.get("task_mode")
    if task_mode not in TASK_MODES:
        raise RecordError(f"{where}: unknown task_mode {task_mode!r}")
    turns_raw = obj.get("turns")
    if not isinstance(turns_raw, list):
        raise RecordError(f"{where}: turns must be a list")
    turns = []
    for n, t in enumerate(turns_raw):
        if not isinstance(t, dict):
            raise RecordError(f"{where}: turn {n} must be an object")
        role = t.get("role")
        if role not in ("person", "robot"):
            raise RecordError(f"{where}: turn {n} has unknown role {role!r}")
        text = t.get("text")
        if not isinstance(text, str):
            raise RecordError(f"{where}: turn {n} text must be a string")
        seg_ids = t.get("seg_ids")
        if not isinstance(seg_ids, list) or not all(map(_is_int, seg_ids)):
            raise RecordError(f"{where}: turn {n} seg_ids must be a list of integers")
        slots = text.count("<SEG>")
        if slots != len(seg_ids):
            raise RecordError(
                f"{where}: turn {n} has {slots} <SEG> slots but {len(seg_ids)} seg_ids"
            )
        turns.append((role, text, tuple(seg_ids)))
    prov = obj.get("provenance")
    if prov is not None and not isinstance(prov, dict):
        raise RecordError(f"{where}: provenance must be an object or null")
    return image_id, task_mode, turns, prov


def _read_jsonl(path: str | Path) -> Iterator[tuple[str, str, object]]:
    """(position, line, decoded object) for each non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {n}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{where}: invalid JSON ({exc.msg})") from exc
            yield where, line, obj


def read_records(path: str | Path) -> list[SerializedRecord]:
    from segdial.parsing import Provenance, SerializedRecord, SerializedTurn

    records = []
    for where, _, obj in _read_jsonl(path):
        image_id, task_mode, turns, prov = _checked_record(obj, where)
        records.append(
            SerializedRecord(
                image_id=image_id,
                task_mode=task_mode,
                turns=tuple(SerializedTurn(role=r, text=t, seg_ids=ids) for r, t, ids in turns),
                provenance=None if prov is None else Provenance(
                    prompt_kind=prov.get("prompt_kind"), response_hash=prov.get("response_hash")
                ),
            )
        )
    return records


def read_record_lines(path: str | Path) -> list[str]:
    """The non-blank lines of a records file, as written. Each line is
    checked as `read_records` checks it, but no record is built, so the
    record types are not loaded."""
    lines = []
    for where, line, obj in _read_jsonl(path):
        _checked_record(obj, where)
        lines.append(line)
    return lines


# --- predictions JSONL ----------------------------------------------------------


def _prediction_rows(path: str | Path) -> list[tuple]:
    """(image id, category id, score as a float, geometry, width, height) of
    each prediction line of `path`, or RecordError at the first bad line;
    the canvas is None for an rle, which carries its own."""
    from segdial import geometry
    from segdial.instances import check_score

    Rle, check_canvas = geometry.Rle, geometry.check_canvas
    rows = []
    for where, _, obj in _read_jsonl(path):
        if not isinstance(obj, dict):
            raise RecordError(f"{where}: prediction must be a JSON object")
        image_id = obj.get("image_id")
        if not _is_int(image_id):
            raise RecordError(f"{where}: image_id must be an integer")
        category_id = obj.get("category_id")
        if category_id is not None and not _is_int(category_id):
            raise RecordError(f"{where}: category_id must be an integer when present")
        score = obj.get("score", 1.0)
        if not (_is_int(score) or isinstance(score, float)):
            raise RecordError(f"{where}: score must be a number")
        if "rle" in obj:
            width = height = None  # an rle carries its own canvas
            seg = obj["rle"]
        elif "polygon" in obj:
            width, height = obj.get("width"), obj.get("height")
            if not _is_int(width) or not _is_int(height):
                raise RecordError(f"{where}: polygon predictions need width and height")
            seg = obj["polygon"]
        else:
            raise RecordError(f"{where}: prediction needs an 'rle' or 'polygon' mask")
        try:
            g = _coerce_geometry(seg, geometry)
            if width is None:
                if type(g) is not Rle:
                    raise ValueError("expected an rle")
            elif type(g) is Rle:
                raise ValueError("expected polygons")
            else:
                check_canvas(width, height)
            score = check_score(float(score))
        except (ValueError, OverflowError) as exc:
            raise RecordError(f"{where}: {exc}") from exc
        rows.append((image_id, category_id, score, g, width, height))
    return rows


def read_prediction_masks(path: str | Path) -> list[PredictionInstance]:
    """Read predicted masks, each in a form the scorers read without
    drawing a pixel: an rle exactly as the line codes it, and polygons as
    their `geometry.bitset`. A missing score defaults to 1.0.

    Each line needs image_id plus either {"rle": {"size": [h, w], "counts":
    [...]}} or {"polygon": [[x0, y0, ...], ...], "width": W, "height": H};
    category_id is optional (instance evaluation requires it, whole-image
    evaluation ignores it). Every line is checked before any bitset is
    built, and a bad one raises its error, position included; NumPy stays
    unloaded."""
    from segdial.geometry import Rle, bitset
    from segdial.instances import PredictionInstance

    return [
        PredictionInstance(image_id, g if type(g) is Rle else bitset(g, w, h), score, category_id)
        for image_id, category_id, score, g, w, h in _prediction_rows(path)
    ]


def read_predictions(path: str | Path) -> list[PredictionInstance]:
    """`read_prediction_masks` with each mask a `RasterMask`, the view of
    its bitset."""
    from segdial.instances import PredictionInstance, as_bitset
    from segdial.mask import RasterMask

    return [
        PredictionInstance(p.image_id, RasterMask.from_bitset(as_bitset(p.mask)), p.score, p.category_id)
        for p in read_prediction_masks(path)
    ]


def rle_to_obj(rle: Rle) -> dict:
    """The JSON form of an rle that load_coco and read_predictions accept."""
    return {"size": [rle.height, rle.width], "counts": list(rle.counts)}


def write_predictions(preds: Sequence[PredictionInstance], path: str | Path) -> None:
    """Write predictions in the rle flavor of the predictions JSONL format:
    each mask is coded by `geometry.bitset_rle` of its bitset."""
    from segdial.geometry import bitset_rle
    from segdial.instances import as_bitset

    rows = (
        {
            "image_id": p.image_id,
            "category_id": p.category_id,
            "score": p.score,
            "rle": rle_to_obj(bitset_rle(as_bitset(p.mask))),
        }
        for p in preds
    )
    write_jsonl(rows, path)
