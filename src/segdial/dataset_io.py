"""File formats: COCO-style ground truth, records JSONL, predictions JSONL.

All JSONL writers emit one json.dumps(..., sort_keys=True) object per line
with "\n" endings, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from segdial.curation import ImageRecord, InstanceAnnotation, decode_geometry
from segdial.mask import Polygon, Rle, rle_encode
from segdial.metrics import PredictionInstance
from segdial.parsing import TASK_MODES, Provenance, SerializedRecord, SerializedTurn

__all__ = [
    "CocoDataset",
    "DatasetError",
    "RecordError",
    "load_coco",
    "read_predictions",
    "read_records",
    "rle_to_obj",
    "write_jsonl",
    "write_predictions",
    "write_records",
]

SCHEMA_VERSION = 1


class DatasetError(ValueError):
    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        preview = "; ".join(self.errors[:5])
        more = f" (+{len(self.errors) - 5} more)" if len(self.errors) > 5 else ""
        super().__init__(f"{len(self.errors)} dataset error(s): {preview}{more}")


class RecordError(ValueError):
    pass


@dataclass(frozen=True)
class CocoDataset:
    images: tuple[ImageRecord, ...]
    categories: dict[int, str]
    warnings: tuple[str, ...]


def _coerce_geometry(seg, ann_id: int, errors: list[str]):
    """COCO segmentation field: list of flat polygons, or {size, counts} rle."""
    if isinstance(seg, dict):
        size = seg.get("size")
        counts = seg.get("counts")
        if (
            not isinstance(size, (list, tuple))
            or len(size) != 2
            or not isinstance(counts, (list, tuple))
        ):
            errors.append(f"annotation {ann_id}: malformed rle segmentation")
            return None
        try:
            return Rle(width=int(size[1]), height=int(size[0]), counts=tuple(counts))
        except (TypeError, ValueError) as exc:
            errors.append(f"annotation {ann_id}: {exc}")
            return None
    if isinstance(seg, list) and seg and all(isinstance(p, (list, tuple)) for p in seg):
        try:
            return tuple(Polygon.from_flat(p) for p in seg)
        except (TypeError, ValueError) as exc:
            errors.append(f"annotation {ann_id}: {exc}")
            return None
    errors.append(f"annotation {ann_id}: segmentation must be polygons or rle")
    return None


def load_coco(
    path: str | Path,
    area_tolerance: float = 0.01,
    bbox_tolerance: float = 1.0,
) -> CocoDataset:
    """Load and revalidate a COCO-style instance file.

    Geometry is rasterized and area/bbox/center are recomputed from the mask;
    stored area and bbox values that disagree beyond the tolerances become
    warnings (recomputed values win). Missing image/category references,
    malformed geometry, and duplicate ids are hard errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    errors: list[str] = []
    warnings: list[str] = []

    categories: dict[int, str] = {}
    for cat in raw.get("categories", []):
        cid = cat.get("id")
        if not isinstance(cid, int):
            errors.append(f"category without integer id: {cat!r}")
            continue
        if cid in categories:
            errors.append(f"duplicate category id {cid}")
            continue
        categories[cid] = str(cat.get("name", cid))

    image_meta: dict[int, dict] = {}
    for img in raw.get("images", []):
        iid = img.get("id")
        if not isinstance(iid, int):
            errors.append(f"image without integer id: {img!r}")
            continue
        if iid in image_meta:
            errors.append(f"duplicate image id {iid}")
            continue
        if not isinstance(img.get("width"), int) or not isinstance(img.get("height"), int):
            errors.append(f"image {iid}: width/height must be integers")
            continue
        if not isinstance(img.get("file_name"), str):
            errors.append(f"image {iid}: missing file_name")
            continue
        image_meta[iid] = img

    per_image: dict[int, list[InstanceAnnotation]] = {iid: [] for iid in image_meta}
    seen_ann_ids: set[int] = set()
    for ann in raw.get("annotations", []):
        aid = ann.get("id")
        if not isinstance(aid, int):
            errors.append(f"annotation without integer id: keys {sorted(ann)}")
            continue
        if aid in seen_ann_ids:
            errors.append(f"duplicate annotation id {aid}")
            continue
        seen_ann_ids.add(aid)
        iid = ann.get("image_id")
        if iid not in image_meta:
            errors.append(f"annotation {aid}: unknown image_id {iid}")
            continue
        cid = ann.get("category_id")
        if cid not in categories:
            errors.append(f"annotation {aid}: unknown category_id {cid}")
            continue
        geometry = _coerce_geometry(ann.get("segmentation"), aid, errors)
        if geometry is None:
            continue
        meta = image_meta[iid]
        try:
            built = InstanceAnnotation.from_geometry(
                instance_id=aid,
                category_id=cid,
                label_name=categories[cid],
                geometry=geometry,
                width=meta["width"],
                height=meta["height"],
            )
        except ValueError as exc:
            errors.append(f"annotation {aid}: {exc}")
            continue
        stored_area = ann.get("area")
        if isinstance(stored_area, (int, float)):
            if abs(stored_area - built.area) > area_tolerance * max(built.area, 1):
                warnings.append(
                    f"annotation {aid}: stored area {stored_area} vs computed {built.area}"
                )
        stored_bbox = ann.get("bbox")
        if isinstance(stored_bbox, (list, tuple)) and len(stored_bbox) == 4:
            if built.bbox is None:
                warnings.append(f"annotation {aid}: stored bbox but the mask is empty")
            else:
                x, y, w, h = (float(v) for v in stored_bbox)
                computed = (
                    float(built.bbox.left),
                    float(built.bbox.top),
                    float(built.bbox.right + 1),
                    float(built.bbox.bottom + 1),
                )
                stored = (x, y, x + w, y + h)
                if any(abs(a - b) > bbox_tolerance for a, b in zip(stored, computed)):
                    warnings.append(
                        f"annotation {aid}: stored bbox {stored_bbox} vs computed "
                        f"{[built.bbox.left, built.bbox.top, built.bbox.right, built.bbox.bottom]}"
                    )
        per_image[iid].append(built)

    if errors:
        raise DatasetError(errors)
    images = tuple(
        ImageRecord(
            image_id=iid,
            width=meta["width"],
            height=meta["height"],
            file_name=meta["file_name"],
            annotations=tuple(per_image[iid]),
        )
        for iid, meta in image_meta.items()
    )
    return CocoDataset(images=images, categories=categories, warnings=tuple(warnings))


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


def _parse_record_obj(obj: dict, where: str) -> SerializedRecord:
    if not isinstance(obj, dict):
        raise RecordError(f"{where}: record must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise RecordError(f"{where}: schema_version must be {SCHEMA_VERSION}")
    image_id = obj.get("image_id")
    if not isinstance(image_id, int):
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
        if not isinstance(seg_ids, list) or not all(isinstance(i, int) for i in seg_ids):
            raise RecordError(f"{where}: turn {n} seg_ids must be a list of integers")
        slots = text.count("<SEG>")
        if slots != len(seg_ids):
            raise RecordError(
                f"{where}: turn {n} has {slots} <SEG> slots but {len(seg_ids)} seg_ids"
            )
        turns.append(SerializedTurn(role=role, text=text, seg_ids=tuple(seg_ids)))
    prov_raw = obj.get("provenance")
    prov = None
    if prov_raw is not None:
        if not isinstance(prov_raw, dict):
            raise RecordError(f"{where}: provenance must be an object or null")
        prov = Provenance(
            prompt_kind=prov_raw.get("prompt_kind"),
            response_hash=prov_raw.get("response_hash"),
        )
    return SerializedRecord(
        image_id=image_id, task_mode=task_mode, turns=tuple(turns), provenance=prov
    )


def _read_jsonl(path: str | Path) -> Iterator[tuple[str, object]]:
    """(position, decoded object) for each non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {n}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{where}: invalid JSON ({exc.msg})") from exc
            yield where, obj


def read_records(path: str | Path) -> list[SerializedRecord]:
    return [_parse_record_obj(obj, where) for where, obj in _read_jsonl(path)]


# --- predictions JSONL ----------------------------------------------------------


def read_predictions(path: str | Path) -> list[PredictionInstance]:
    """Read predicted masks; a missing score defaults to 1.0.

    Each line needs image_id plus either {"rle": {"size": [h, w], "counts":
    [...]}} or {"polygon": [[x0, y0, ...], ...], "width": W, "height": H};
    category_id is optional (instance evaluation requires it, whole-image
    evaluation ignores it).
    """
    preds = []
    for where, obj in _read_jsonl(path):
        if not isinstance(obj, dict):
            raise RecordError(f"{where}: prediction must be a JSON object")
        image_id = obj.get("image_id")
        if not isinstance(image_id, int):
            raise RecordError(f"{where}: image_id must be an integer")
        category_id = obj.get("category_id")
        if category_id is not None and not isinstance(category_id, int):
            raise RecordError(f"{where}: category_id must be an integer when present")
        score = obj.get("score", 1.0)
        if not isinstance(score, (int, float)):
            raise RecordError(f"{where}: score must be a number")
        errors: list[str] = []
        if "rle" in obj:
            width = height = None  # an rle carries its own canvas
            geometry = _coerce_geometry(obj["rle"], -1, errors)
        elif "polygon" in obj:
            width, height = obj.get("width"), obj.get("height")
            if not isinstance(width, int) or not isinstance(height, int):
                raise RecordError(f"{where}: polygon predictions need width and height")
            geometry = _coerce_geometry(obj["polygon"], -1, errors)
            if isinstance(geometry, Rle):
                geometry = None
                errors.append("expected polygons")
        else:
            raise RecordError(f"{where}: prediction needs an 'rle' or 'polygon' mask")
        if geometry is None:
            raise RecordError(f"{where}: {errors[0] if errors else 'bad geometry'}")
        try:
            pred = PredictionInstance(
                image_id=image_id,
                mask=decode_geometry(geometry, width, height),
                score=float(score),
                category_id=category_id,
            )
        except ValueError as exc:
            raise RecordError(f"{where}: {exc}") from exc
        preds.append(pred)
    return preds


def rle_to_obj(rle: Rle) -> dict:
    """The JSON form of an rle that load_coco and read_predictions accept."""
    return {"size": [rle.height, rle.width], "counts": list(rle.counts)}


def write_predictions(preds: Sequence[PredictionInstance], path: str | Path) -> None:
    """Write predictions in the rle flavor of the predictions JSONL format."""
    rows = (
        {
            "image_id": p.image_id,
            "category_id": p.category_id,
            "score": p.score,
            "rle": rle_to_obj(rle_encode(p.mask)),
        }
        for p in preds
    )
    write_jsonl(rows, path)
