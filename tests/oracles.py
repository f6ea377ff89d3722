"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (per-pixel loops, permutation search,
literal PR-curve scans) and shares no code with the package under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# --- polygon rasterization -------------------------------------------------

def point_in_polygon(px: float, py: float, vertices) -> bool:
    """Even-odd crossing test for a single point."""
    inside = False
    n = len(vertices)
    for k in range(n):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % n]
        if ((y1 > py) != (y2 > py)) and px < (x2 - x1) * (py - y1) / (y2 - y1) + x1:
            inside = not inside
    return inside


def rasterize_reference(vertices, width: int, height: int) -> np.ndarray:
    """Per-pixel fill sampling each pixel center."""
    out = np.zeros((height, width), dtype=bool)
    if len(vertices) < 3:
        return out
    for y in range(height):
        for x in range(width):
            out[y, x] = point_in_polygon(x + 0.5, y + 0.5, vertices)
    return out


# --- assignment ------------------------------------------------------------

def brute_force_assignment(costs) -> tuple[float, list[tuple[int, int]]]:
    """Exhaustive minimum-cost assignment.

    Returns (total, pairs) where pairs is the lexicographically smallest
    (row, col) list among all assignments attaining the minimum total,
    totals compared exactly via math.fsum.
    """
    costs = [[float(v) for v in row] for row in costs]
    n_rows = len(costs)
    n_cols = len(costs[0]) if n_rows else 0
    k = min(n_rows, n_cols)
    if k == 0:
        return 0.0, []
    best_total: float | None = None
    best_pairs: list[tuple[int, int]] | None = None
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            pairs = sorted(zip(range(n_rows), cols))
            total = math.fsum(costs[i][j] for i, j in pairs)
            if best_total is None or total < best_total or (
                total == best_total and pairs < best_pairs
            ):
                best_total, best_pairs = total, pairs
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            pairs = sorted(zip(rows, range(n_cols)))
            total = math.fsum(costs[i][j] for i, j in pairs)
            if best_total is None or total < best_total or (
                total == best_total and pairs < best_pairs
            ):
                best_total, best_pairs = total, pairs
    return best_total, best_pairs



def brute_force_assignment_wide(costs) -> tuple[float, list[tuple[int, int]]]:
    """`brute_force_assignment` for totals near and past the float range.

    Each assignment's total is compared as the math.fsum of its costs
    scaled by 2**-64: scaling by a power of two is exact for costs of at
    least 2**-958, and the scaled sum of a few costs cannot overflow.
    Returns (total, pairs) as `brute_force_assignment` does, with total
    inf when the minimum overflows the float range.
    """
    costs = [[float(v) for v in row] for row in costs]
    n_rows = len(costs)
    n_cols = len(costs[0]) if n_rows else 0
    if min(n_rows, n_cols) == 0:
        return 0.0, []
    if n_rows <= n_cols:
        candidates = (sorted(zip(range(n_rows), cols)) for cols in itertools.permutations(range(n_cols), n_rows))
    else:
        candidates = (sorted(zip(rows, range(n_cols))) for rows in itertools.permutations(range(n_rows), n_cols))
    scale = 2.0 ** -64
    scaled, pairs = min((math.fsum(costs[i][j] * scale for i, j in pairs), pairs) for pairs in candidates)
    return scaled / scale, pairs  # inf past the float range


# --- COCO-protocol average precision ----------------------------------------

IOU_THRESHOLDS = tuple((50 + 5 * k) / 100.0 for k in range(10))
RECALL_POINTS = tuple(i / 100.0 for i in range(101))
BANDS = {
    "all": lambda a: True,
    "small": lambda a: a < 32 ** 2,
    "medium": lambda a: 32 ** 2 <= a <= 96 ** 2,
    "large": lambda a: a > 96 ** 2,
}


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    return inter / union if union else 0.0


def _match_image(dts, gts, band, thr):
    """Greedy score-order matching for one (image, category) cell.

    dts: list of (global_index, score, area, pixels) already score-sorted.
    gts: list of (area, pixels) in annotation order.
    Returns per-detection rows (score, global_index, tp, ignored).
    """
    gt_ignore = [not band(a) for a, _ in gts]
    order = sorted(range(len(gts)), key=lambda gi: gt_ignore[gi])
    taken = set()
    rows = []
    for idx, score, d_area, d_pix in dts:
        best = -1
        best_iou = 0.0
        for gi in order:
            if gi in taken:
                continue
            if best >= 0 and not gt_ignore[best] and gt_ignore[gi]:
                break
            v = _iou(d_pix, gts[gi][1])
            if best < 0:
                if v < thr:
                    continue
            elif v <= best_iou:
                continue
            best = gi
            best_iou = v
        if best >= 0:
            taken.add(best)
            rows.append((score, idx, not gt_ignore[best], gt_ignore[best]))
        else:
            rows.append((score, idx, False, not band(d_area)))
    return rows


def _ap_from_rows(rows, n_positive: int) -> float:
    rows = sorted(rows, key=lambda r: (-r[0], r[1]))
    precisions = []
    recalls = []
    tp = fp = 0
    for _, _, is_tp, ignored in rows:
        if ignored:
            continue
        if is_tp:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_positive)
    total = 0.0
    for r in RECALL_POINTS:
        best = 0.0
        for p, rc in zip(precisions, recalls):
            if rc >= r and p > best:
                best = p
        total += best
    return total / len(RECALL_POINTS)


def reference_ap(preds, images, max_dets: int = 100):
    """Naive mask AP over a micro dataset.

    preds: list of dicts {image_id, category_id, score, pixels (bool array)}.
    images: list of dicts {image_id, annotations: [{category_id, pixels}]}.
    Returns {band: {category: mean-over-thresholds AP or None}} plus
    {"ap50": ..., "ap75": ...} style aggregates computed the protocol way.
    """
    cats = sorted({a["category_id"] for im in images for a in im["annotations"]})
    per_cell = {}
    for band_name, band in BANDS.items():
        for cat in cats:
            rows_by_thr = {t: [] for t in IOU_THRESHOLDS}
            n_positive = 0
            for im in images:
                gts = [
                    (int(np.count_nonzero(a["pixels"])), a["pixels"])
                    for a in im["annotations"]
                    if a["category_id"] == cat
                ]
                n_positive += sum(1 for a, _ in gts if band(a))
                dts = [
                    (i, p.get("score", 1.0), int(np.count_nonzero(p["pixels"])), p["pixels"])
                    for i, p in enumerate(preds)
                    if p["image_id"] == im["image_id"] and p["category_id"] == cat
                ]
                dts.sort(key=lambda d: (-d[1], d[0]))
                dts = dts[:max_dets]
                for t in IOU_THRESHOLDS:
                    rows_by_thr[t].extend(_match_image(dts, gts, band, t))
            if n_positive == 0:
                per_cell[(band_name, cat)] = None
            else:
                per_cell[(band_name, cat)] = {
                    t: _ap_from_rows(rows_by_thr[t], n_positive) for t in IOU_THRESHOLDS
                }

    def mean_over(band_name, pick):
        vals = []
        for cat in cats:
            cell = per_cell[(band_name, cat)]
            if cell is not None:
                vals.append(pick(cell))
        return sum(vals) / len(vals) if vals else 0.0

    def thr_mean(cell):
        return sum(cell.values()) / len(cell)

    return {
        "mAP": mean_over("all", thr_mean),
        "AP50": mean_over("all", lambda c: c[IOU_THRESHOLDS[0]]),
        "AP75": mean_over("all", lambda c: c[IOU_THRESHOLDS[5]]),
        "AP_small": mean_over("small", thr_mean),
        "AP_medium": mean_over("medium", thr_mean),
        "AP_large": mean_over("large", thr_mean),
        "per_category": {
            cat: {
                "mAP": thr_mean(per_cell[("all", cat)]) if per_cell[("all", cat)] else 0.0,
                "AP50": per_cell[("all", cat)][IOU_THRESHOLDS[0]] if per_cell[("all", cat)] else 0.0,
                "AP75": per_cell[("all", cat)][IOU_THRESHOLDS[5]] if per_cell[("all", cat)] else 0.0,
                "AP_small": thr_mean(per_cell[("small", cat)]) if per_cell[("small", cat)] else 0.0,
                "AP_medium": thr_mean(per_cell[("medium", cat)]) if per_cell[("medium", cat)] else 0.0,
                "AP_large": thr_mean(per_cell[("large", cat)]) if per_cell[("large", cat)] else 0.0,
            }
            for cat in cats
            if per_cell[("all", cat)] is not None
        },
    }
