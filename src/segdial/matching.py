"""Optimal bipartite assignment between predicted masks and ground-truth targets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from segdial.mask import RasterMask, mask_iou, overlap

__all__ = ["Assignment", "build_cost_matrix", "hungarian", "assign_targets"]


@dataclass(frozen=True)
class Assignment:
    """Matched (prediction, groundtruth) index pairs plus the leftovers."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_groundtruths: tuple[int, ...]
    total_cost: float


def _dice(a: RasterMask, b: RasterMask) -> float:
    inter, union = overlap(a, b)  # |a| + |b| == inter + union
    return 2.0 * inter / (inter + union) if union else 0.0


def build_cost_matrix(
    predictions: Sequence[RasterMask],
    groundtruths: Sequence[RasterMask],
    w_iou: float = 1.0,
    w_dice: float = 0.0,
) -> np.ndarray:
    """Pairwise matching costs, shape (len(predictions), len(groundtruths)).

    Entry (i, j) is w_iou * (1 - IoU) + w_dice * (1 - Dice); with non-negative
    weights every entry is finite and non-negative.
    """
    if w_iou < 0 or w_dice < 0:
        raise ValueError("cost weights must be non-negative")
    costs = np.zeros((len(predictions), len(groundtruths)), dtype=np.float64)
    for i, pred in enumerate(predictions):
        for j, gt in enumerate(groundtruths):
            c = w_iou * (1.0 - mask_iou(pred, gt))
            if w_dice:
                c += w_dice * (1.0 - _dice(pred, gt))
            costs[i, j] = c
    return costs


def linear_sum_assignment(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's solver, imported on first call so that only matching pays for scipy."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(costs)


def _viable_pairs(c: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Mask of the pairs that may belong to an optimal assignment of `c`.

    (rows, cols) is an optimal assignment. The problem is padded with zero
    costs to N x N, N = max(n, m), and the assignment extended through the
    padding. Bellman-Ford over the residual graph (row -> column at +c off
    the matching, column -> row at -c on it, every row reachable at 0) gives
    row distances du and column distances dv; the reduced cost
    rho = c + du - dv is >= 0 off the matching and <= 0 on it, so every
    assignment that uses (i, j) costs at least rho[i, j] more than the
    optimum. A pair is ruled out when rho exceeds a tolerance above the
    rounding error of N-term sums: it can then neither reproduce the optimal
    fsum total nor be the best total of the float fallback. If the distances
    have not settled after N + 1 rounds, no pair is ruled out.
    """
    n, m = c.shape
    size = max(n, m)
    off_matching = np.zeros((size, size))
    off_matching[:n, :m] = c
    free_rows = np.ones(size, dtype=bool)
    free_rows[rows] = False
    free_cols = np.ones(size, dtype=bool)
    free_cols[cols] = False
    match = np.empty(size, dtype=np.intp)  # match[i]: column of row i
    match[rows] = cols
    match[free_rows] = np.flatnonzero(free_cols)
    on_matching = (np.arange(size), match)
    matched_cost = off_matching[on_matching]  # fancy indexing copies
    off_matching[on_matching] = np.inf
    tol = max(1e-9, 64 * size * size * np.finfo(np.float64).eps) * max(1.0, float(c.max()))
    du = np.zeros(size)
    for _ in range(size + 1):
        dv = (du[:, None] + off_matching).min(axis=0)
        new_du = np.minimum(0.0, dv[match] - matched_cost)
        if (new_du == du).all():
            return c + du[:n, None] - dv[None, :m] <= tol
        du = new_du
    return np.ones(c.shape, dtype=bool)


def _subproblem_cost(costs: np.ndarray, rows: list[int], cols: list[int], need: int) -> list[float] | None:
    """Cost terms of an optimal size-`need` completion, or None if infeasible."""
    if need == 0:
        return []
    if len(rows) < need or len(cols) < need:
        return None
    sub = costs[np.ix_(rows, cols)]
    rr, cc = linear_sum_assignment(sub)
    return [float(sub[i, j]) for i, j in zip(rr, cc)]


def hungarian(costs: np.ndarray) -> Assignment:
    """Minimum-total-cost assignment with a deterministic tie-break.

    Among all assignments attaining the optimal total (compared exactly via
    math.fsum of the selected entries), returns the one whose sorted
    (prediction, groundtruth) pair list is lexicographically smallest.
    Candidate pairs whose reduced cost at the first optimum exceeds a
    rounding tolerance cannot be part of any optimal assignment, so they are
    skipped without solving their completion.
    """
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {c.shape}")
    if c.size and not np.isfinite(c).all():
        raise ValueError("cost matrix entries must be finite")
    if c.size and (c < 0).any():
        raise ValueError("cost matrix entries must be non-negative")
    n_pred, n_gt = c.shape
    k = min(n_pred, n_gt)
    if k == 0:
        return Assignment(
            pairs=(),
            unmatched_predictions=tuple(range(n_pred)),
            unmatched_groundtruths=tuple(range(n_gt)),
            total_cost=0.0,
        )

    rows, cols = linear_sum_assignment(c)
    target = math.fsum(float(c[i, j]) for i, j in zip(rows, cols))
    # Only completions (k > 1) cost a solve, so only they are worth ruling out.
    # Columns already fixed are cleared from `viable` as the scan goes.
    viable = _viable_pairs(c, rows, cols) if k > 1 else np.ones(c.shape, dtype=bool)

    # Fix pairs one at a time in lexicographic order, keeping the remaining
    # subproblem completable at the optimal total. Totals are compared with
    # fsum so reordered additions cannot drift.
    pairs: list[tuple[int, int]] = []
    fixed_terms: list[float] = []
    free_cols = list(range(n_gt))
    row_floor = 0
    while len(pairs) < k:
        need = k - len(pairs) - 1
        chosen = None
        fallback_best: tuple[float, tuple[int, int], list[float]] | None = None
        for i in range(row_floor, n_pred):
            if n_pred - i - 1 < need:
                break  # too few rows left to complete, and later i only shrinks that
            for j in np.flatnonzero(viable[i]).tolist():
                rest_rows = list(range(i + 1, n_pred))
                rest_cols = [col for col in free_cols if col != j]
                completion = _subproblem_cost(c, rest_rows, rest_cols, need)
                if completion is None:
                    continue
                total = math.fsum(fixed_terms + [float(c[i, j])] + completion)
                if total == target:
                    chosen = (i, j)
                    break
                if fallback_best is None or total < fallback_best[0]:
                    fallback_best = (total, (i, j), completion)
            if chosen is not None:
                break
        if chosen is None:
            # float pathology: optimal total not reproducible pair-by-pair;
            # re-anchor on the best completion found in scan order
            if fallback_best is None:
                raise RuntimeError("assignment infeasible")
            target = fallback_best[0]
            chosen = fallback_best[1]
        i, j = chosen
        pairs.append((i, j))
        fixed_terms.append(float(c[i, j]))
        free_cols.remove(j)
        viable[:, j] = False
        row_floor = i + 1

    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    return Assignment(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(n_pred) if i not in matched_rows),
        unmatched_groundtruths=tuple(j for j in range(n_gt) if j not in matched_cols),
        total_cost=math.fsum(fixed_terms),
    )


def assign_targets(
    predictions: Sequence[RasterMask],
    groundtruths: Sequence[RasterMask],
    w_iou: float = 1.0,
    w_dice: float = 0.0,
) -> Assignment:
    """Match prediction masks to ground-truth masks at minimum total cost."""
    return hungarian(build_cost_matrix(predictions, groundtruths, w_iou, w_dice))
