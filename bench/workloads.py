"""Seeded synthetic inputs for the benchmark workloads.

Each workload writes the files the `segdial` CLI reads: a COCO-style
ground-truth file, instance predictions, one whole-image prediction per
image, and a directory of annotator responses. The same seed gives the same
bytes. Nothing here imports `segdial`: masks are filled and run-length coded
with the rules the README states (pixel centres under the even-odd rule,
column-major runs starting with a zero run), so the checks in `checks.py`
can compare the program's results with values computed without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("eval_coco", "match_dense", "dialogue_build")


# --- mask geometry ------------------------------------------------------------


def fill_polygon(flat, width: int, height: int) -> np.ndarray:
    """Pixels whose centres lie inside the polygon (even-odd rule)."""
    vx, vy = flat[0::2], flat[1::2]
    out = np.zeros((height, width), dtype=bool)
    n = len(vx)
    if n < 3:
        return out
    # centres outside the vertex box are never inside, so only the box is filled
    y0, y1 = max(0, math.floor(min(vy))), min(height, math.ceil(max(vy)) + 1)
    x0, x1 = max(0, math.floor(min(vx))), min(width, math.ceil(max(vx)) + 1)
    if y0 >= y1 or x0 >= x1:
        return out
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5
    win = out[y0:y1, x0:x1]
    for k in range(n):
        xa, ya, xb, yb = vx[k], vy[k], vx[(k + 1) % n], vy[(k + 1) % n]
        if ya == yb:
            continue
        crosses = (ya > ys) != (yb > ys)
        if not crosses.any():
            continue
        # same IEEE expression as a scalar crossing test, so edge cases agree
        xint = (xb - xa) * (ys[crosses] - ya) / (yb - ya) + xa
        win[crosses] ^= xs[None, :] < xint[:, None]
    return out


def rle_counts(mask: np.ndarray) -> list[int]:
    flat = mask.ravel(order="F")
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    counts = np.diff(np.concatenate(([0], change, [flat.size]))).tolist()
    if flat[0]:
        counts.insert(0, 0)
    return counts


def rle_mask(counts, height: int, width: int) -> np.ndarray:
    values = np.zeros(len(counts), dtype=bool)
    values[1::2] = True
    return np.repeat(values, counts).reshape((height, width), order="F")


def segmentation_mask(seg, width: int, height: int) -> np.ndarray:
    """Mask of a COCO segmentation field: a list of flat polygons or an rle dict."""
    if isinstance(seg, dict):
        return rle_mask(seg["counts"], seg["size"][0], seg["size"][1])
    out = np.zeros((height, width), dtype=bool)
    for poly in seg:
        out |= fill_polygon(poly, width, height)
    return out


def _star(rng, cx: float, cy: float, r: float, width: int, height: int) -> list[float]:
    """Flat vertex list of a polygon star-shaped around (cx, cy), clipped to the canvas."""
    n = int(rng.integers(6, 15))
    # one vertex per equal sector keeps the centre inside, so no mask is empty
    angles = (np.arange(n) + rng.uniform(0.0, 0.8, n)) * (2 * math.pi / n)
    radii = r * rng.uniform(0.6, 1.0, n)
    xs = np.clip(cx + radii * np.cos(angles), 0.0, width)
    ys = np.clip(cy + radii * np.sin(angles), 0.0, height)
    return [round(float(v), 2) for pair in zip(xs, ys) for v in pair]


def _jitter(rng, flat: list[float], r: float, width: int, height: int) -> list[float]:
    """A prediction-like copy: shifted, rescaled, with per-vertex noise."""
    xs = np.asarray(flat[0::2])
    ys = np.asarray(flat[1::2])
    cx, cy = xs.mean(), ys.mean()
    scale = rng.uniform(0.85, 1.15)
    dx, dy = rng.normal(0.0, 0.12 * r, 2)
    noise = rng.normal(0.0, 0.06 * r, (2, xs.size))
    nx = np.clip(cx + dx + (xs - cx) * scale + noise[0], 0.0, width)
    ny = np.clip(cy + dy + (ys - cy) * scale + noise[1], 0.0, height)
    return [round(float(v), 2) for pair in zip(nx, ny) for v in pair]


# --- dataset model --------------------------------------------------------------


@dataclass
class Obj:
    ann_id: int
    category_id: int
    poly: list[float]
    radius: float
    as_rle: bool


@dataclass
class Image:
    image_id: int
    width: int
    height: int
    objects: list[Obj]


def _label(category_id: int) -> str:
    return f"kind{category_id}"


def _radius(rng, band_weights, bands) -> float:
    lo, hi = bands[int(rng.choice(len(bands), p=band_weights))]
    return float(rng.uniform(lo, hi))


def _objects(rng, image_id, width, height, count, categories, bands, band_weights, as_rle):
    objs = []
    for k in range(count):
        r = _radius(rng, band_weights, bands)
        r = max(5.0, min(r, 0.45 * min(width, height)))
        cx = rng.uniform(r, width - r)
        cy = rng.uniform(r, height - r)
        poly = _star(rng, cx, cy, r, width, height)
        cat = int(categories[int(rng.integers(len(categories)))])
        objs.append(Obj(image_id * 1000 + k + 1, cat, poly, r, as_rle))
    return objs


# COCO area bands are < 32^2, <= 96^2 and above; radii chosen to land in each
_COCO_BANDS = ((7.0, 17.0), (20.0, 50.0), (58.0, 110.0))


def _eval_coco_images(rng, size):
    """COCO-val-like: 640x480, 7 mostly small/medium polygon objects, 80 categories."""
    images = []
    for iid in range(1, size["images"] + 1):
        w, h = size["width"], size["height"]
        objs = _objects(rng, iid, w, h, size["objects"], range(1, 81), _COCO_BANDS, (0.4, 0.45, 0.15), False)
        images.append(Image(iid, w, h, objs))
    return images


def _match_dense_images(rng, size):
    """DETR-like: small canvas crowded with large overlapping rle objects, 1-3 categories."""
    images = []
    for iid in range(1, size["images"] + 1):
        w = h = size["width"]
        cats = rng.choice(np.arange(1, 4), size=int(rng.integers(1, 4)), replace=False)
        r_lo, r_hi = 0.11 * w, 0.28 * w
        objs = _objects(rng, iid, w, h, size["objects"], sorted(cats.tolist()), ((r_lo, r_hi),), (1.0,), True)
        images.append(Image(iid, w, h, objs))
    return images


def _dialogue_images(rng, size):
    """Mixed canvas sizes (a tenth under the 512 px side floor), 3-10 polygon objects."""
    n_images = size["images"]
    lo, hi = size["side"]
    bands = tuple((a * lo / 640, b * lo / 640) for a, b in _COCO_BANDS)
    # The seed shuffles a fixed list of (width, height, object count), so
    # every seed asks for the same amount of work and memory.
    widths = np.linspace(lo, hi, n_images).astype(int)
    heights = widths[::-1].copy()
    n_small = n_images // 10
    heights[:n_small] = np.linspace(lo // 2, min(512, hi) - 1, n_small).astype(int)
    counts = np.resize(np.arange(3, 11), n_images)
    images = []
    for k, pos in enumerate(rng.permutation(n_images)):
        w, h = int(widths[pos]), int(heights[pos])
        objs = _objects(rng, k + 1, w, h, int(counts[pos]), range(1, 21), bands, (0.3, 0.5, 0.2), False)
        images.append(Image(k + 1, w, h, objs))
    return images


# --- predictions ------------------------------------------------------------------


def _scored(rng, image: Image, category_id: int, mask: np.ndarray) -> dict:
    return {
        "image_id": image.image_id,
        "category_id": category_id,
        "score": round(float(rng.uniform(0.0, 1.0)), 4),
        "mask": mask,
    }


def _jittered_predictions(rng, image: Image, objects, per_object: int, false_positives: int, categories):
    """Jittered copies of `objects` (a tenth with a wrong category) plus stray masks."""
    out = []
    for obj in objects:
        for _ in range(per_object):
            poly = _jitter(rng, obj.poly, obj.radius, image.width, image.height)
            cat = obj.category_id
            if rng.random() < 0.1:
                cat = int(categories[int(rng.integers(len(categories)))])
            out.append(_scored(rng, image, cat, fill_polygon(poly, image.width, image.height)))
    for _ in range(false_positives):
        r = float(rng.uniform(6.0, 0.15 * min(image.width, image.height)))
        cx, cy = rng.uniform(r, image.width - r), rng.uniform(r, image.height - r)
        poly = _star(rng, cx, cy, r, image.width, image.height)
        cat = int(categories[int(rng.integers(len(categories)))])
        out.append(_scored(rng, image, cat, fill_polygon(poly, image.width, image.height)))
    return out


def _dense_predictions(rng, image: Image, size):
    """One jittered copy per object, extra copies of random objects, exact duplicates, shuffled."""
    n_total, n_dup = size["predictions"], size["duplicates"]
    sources = list(image.objects)
    while len(sources) < n_total - n_dup:
        sources.append(image.objects[int(rng.integers(len(image.objects)))])
    uniq = []
    for o in sources:
        poly = _jitter(rng, o.poly, o.radius, image.width, image.height)
        uniq.append(_scored(rng, image, o.category_id, fill_polygon(poly, image.width, image.height)))
    dups = []
    for _ in range(n_dup):
        src = uniq[int(rng.integers(len(uniq)))]
        dups.append(dict(src, score=round(float(rng.uniform(0.0, 1.0)), 4)))
    preds = uniq + dups
    return [preds[i] for i in rng.permutation(len(preds))]


# --- annotator responses -------------------------------------------------------------

_QUESTIONS = (
    "What stands out in this picture?",
    "Can you point out the main things here?",
    "Where is everything placed?",
    "Which objects are close to each other?",
    "What else is visible?",
)
_LINKS = ("there is", "I can see", "look at", "next to it", "and also")


def _robot_turn(rng, image: Image) -> str:
    by_cat: dict[int, list[int]] = {}
    for o in image.objects:
        by_cat.setdefault(o.category_id, []).append(o.ann_id)
    cats = sorted(by_cat)
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        cat = cats[int(rng.integers(len(cats)))]
        ids = by_cat[cat]
        k = min(len(ids), int(rng.integers(1, 4)))
        chosen = [ids[i] for i in sorted(rng.choice(len(ids), size=k, replace=False))]
        tags = " ".join(f"<{i}; {_label(cat)}>" for i in chosen)
        parts.append(f"{_LINKS[int(rng.integers(len(_LINKS)))]} {_label(cat)} {tags}")
    return ", ".join(parts) + "."


def _response(rng, image: Image) -> tuple[str, str | None]:
    """(kind, text) of a 2-6 turn dialogue; a few are missing, reference unknown ids, or mislabel a tag."""
    roll = rng.random()
    if roll < 0.03:
        return "missing", None
    lines = []
    for t in range(int(rng.integers(2, 7))):
        if t % 2 == 0:
            lines.append(f"<person>: {_QUESTIONS[int(rng.integers(len(_QUESTIONS)))]}")
        else:
            lines.append(f"<robot>: {_robot_turn(rng, image)}")
    kind = "ok"
    if roll < 0.07:  # unknown instance id: the record is rejected with an error
        kind = "unknown_id"
        lines[1] += f" and a ghost <{image.image_id * 1000 + 999}; ghost>"
    elif roll < 0.11:  # label disagrees with the annotation: a warning only
        kind = "mislabel"
        lines[1] += f" and a thing <{image.objects[0].ann_id}; mislabel>"
    elif roll < 0.13:  # tag inside a person turn: rejected
        kind = "person_tag"
        lines[0] += f" the <{image.objects[0].ann_id}; {_label(image.objects[0].category_id)}>?"
    return kind, "\n".join(lines) + "\n"


# --- writing ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    image_count: int
    curate_flags: tuple[str, ...]
    files: dict


def _bbox(mask: np.ndarray) -> list[int]:
    ys, xs = np.nonzero(mask)
    return [int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1)]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _pred_row(p: dict) -> dict:
    m = p["mask"]
    return {
        "image_id": p["image_id"],
        "category_id": p["category_id"],
        "score": p["score"],
        "rle": {"size": [m.shape[0], m.shape[1]], "counts": rle_counts(m)},
    }


SIZES = {
    "eval_coco": {
        "full": {"images": 12, "width": 640, "height": 480, "objects": 7, "per_object": 3, "false_positives": 3},
        "mini": {"images": 2, "width": 160, "height": 120, "objects": 4, "per_object": 2, "false_positives": 2},
    },
    "match_dense": {
        "full": {"images": 8, "width": 128, "objects": 60, "predictions": 100, "duplicates": 10},
        "mini": {"images": 1, "width": 64, "objects": 10, "predictions": 16, "duplicates": 2},
    },
    "dialogue_build": {
        "full": {"images": 16, "side": (512, 800)},
        "mini": {"images": 3, "side": (96, 160)},
    },
}

CURATE_FLAGS = {
    "eval_coco": ("--min-image-side", "480"),
    "match_dense": ("--min-image-side", "128"),
    "dialogue_build": (),
}


def generate(name: str, seed: int, out_dir: Path, scale: str = "full") -> Workload:
    """Write the inputs of workload `name` for `seed` under `out_dir`."""
    size = SIZES[name][scale]
    rng = np.random.default_rng([seed, NAMES.index(name), scale == "mini"])
    if name == "eval_coco":
        images = _eval_coco_images(rng, size)
        n_categories = 80
    elif name == "match_dense":
        images = _match_dense_images(rng, size)
        n_categories = 3
    else:
        images = _dialogue_images(rng, size)
        n_categories = 20
    categories = list(range(1, n_categories + 1))

    out_dir.mkdir(parents=True, exist_ok=True)
    responses = out_dir / "responses"
    responses.mkdir(exist_ok=True)
    for stale in responses.glob("*.txt"):
        stale.unlink()

    coco = {
        "categories": [{"id": c, "name": _label(c)} for c in categories],
        "images": [],
        "annotations": [],
    }
    preds, sem = [], []
    expected = {}  # image id -> kind of response; read by the checks only
    for img in images:
        coco["images"].append(
            {"id": img.image_id, "width": img.width, "height": img.height, "file_name": f"{img.image_id:012d}.jpg"}
        )
        for o in img.objects:
            m = fill_polygon(o.poly, img.width, img.height)
            seg = {"size": [img.height, img.width], "counts": rle_counts(m)} if o.as_rle else [o.poly]
            coco["annotations"].append(
                {
                    "id": o.ann_id,
                    "image_id": img.image_id,
                    "category_id": o.category_id,
                    "segmentation": seg,
                    "area": int(m.sum()),
                    "bbox": _bbox(m),
                    "iscrowd": 0,
                }
            )
        if name == "match_dense":
            img_preds = _dense_predictions(rng, img, size)
        elif name == "eval_coco":
            img_preds = _jittered_predictions(
                rng, img, img.objects, size["per_object"], size["false_positives"], categories
            )
        else:  # one prediction per image: scoring is not what this workload is for
            img_preds = _jittered_predictions(rng, img, img.objects[:1], 1, 0, categories)
        whole = np.zeros((img.height, img.width), dtype=bool)
        for p in img_preds:
            if p["score"] >= 0.5:
                whole |= p["mask"]
        preds.extend(_pred_row(p) for p in img_preds)
        sem.append(_pred_row({"image_id": img.image_id, "category_id": None, "score": 1.0, "mask": whole}))
        kind, text = _response(rng, img)
        expected[img.image_id] = kind
        if text is not None:
            (responses / f"{img.image_id}.txt").write_text(text, encoding="utf-8")

    with open(out_dir / "gt.json", "w", encoding="utf-8") as fh:
        json.dump(coco, fh)
    _write_jsonl(out_dir / "preds.jsonl", preds)
    _write_jsonl(out_dir / "sem_preds.jsonl", sem)
    (out_dir / "expected.json").write_text(json.dumps({"responses": expected}))
    return Workload(
        name=name,
        image_count=len(images),
        curate_flags=CURATE_FLAGS[name],
        files={
            "gt": out_dir / "gt.json",
            "preds": out_dir / "preds.jsonl",
            "sem_preds": out_dir / "sem_preds.jsonl",
            "responses": responses,
            "expected": out_dir / "expected.json",
        },
    )
