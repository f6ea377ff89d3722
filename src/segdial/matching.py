"""Optimal bipartite assignment between predicted masks and ground-truth targets."""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import NamedTuple, Sequence

import numpy as np

from segdial.mask import RasterMask, overlaps
from segdial.mask import mask_iou  # noqa: F401  (bench/tracing.py rebinds it here)

__all__ = ["Assignment", "build_cost_matrix", "hungarian", "assign_targets"]


class Assignment(NamedTuple):
    """Matched (prediction, groundtruth) index pairs plus the leftovers."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_groundtruths: tuple[int, ...]
    total_cost: float


def build_cost_matrix(
    predictions: Sequence[RasterMask],
    groundtruths: Sequence[RasterMask],
    w_iou: float = 1.0,
    w_dice: float = 0.0,
) -> np.ndarray:
    """Pairwise matching costs, shape (len(predictions), len(groundtruths)).

    Entry (i, j) is w_iou * (1 - IoU) + w_dice * (1 - Dice); with non-negative
    weights every entry is finite and non-negative. IoU and Dice are 0 for two
    empty masks.
    """
    if w_iou < 0 or w_dice < 0:
        raise ValueError("cost weights must be non-negative")
    inter, union = overlaps(predictions, groundtruths)
    # a zero union has a zero intersection, and 0 / 1 gives the 0 of two empty masks
    costs = w_iou * (1.0 - inter / np.maximum(union, 1))
    if w_dice:  # |a| + |b| == inter + union
        costs += w_dice * (1.0 - 2.0 * inter / np.maximum(inter + union, 1))
    return costs


def linear_sum_assignment(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A minimum-cost assignment of min(n, m) pairs as (rows, cols), rows
    ascending, and the dual potentials (u, v) it ends with: u per row, v per
    column.

    Shortest augmenting paths with dual potentials (Crouse 2016, "On
    implementing 2D rectangular assignment algorithms", the method behind
    scipy's solver). Each line of the shorter side joins through a Dijkstra
    search over the lines of the longer one; one NumPy pass per step scans
    the lines the search has not reached yet. In exact arithmetic the
    reduced costs c - u[:, None] - v[None, :] are >= 0, and 0 on the pairs;
    the longer side's potentials are <= 0, and 0 on its unmatched lines.
    """
    c = np.asarray(costs, dtype=np.float64)
    transposed = c.shape[0] > c.shape[1]
    if transposed:
        c = c.T
    n, m = c.shape
    u = np.zeros(n)
    v = np.zeros(m)
    col_of = np.full(n, -1, dtype=np.intp)
    row_of = np.full(m, -1, dtype=np.intp)
    via = np.empty(m, dtype=np.intp)  # the row each column is reached from
    for start in range(n):
        pending = np.full(m, np.inf)  # tentative distances of the columns not reached
        shift = v.copy()  # v, but -inf at reached columns so that they stay put
        tree, reached, lows = [], [], []  # tree[k + 1] is the row of column reached[k]
        low = 0.0
        i = start
        while True:
            tree.append(i)
            step = c[i] - shift
            step += low - u[i]
            closer = step < pending
            np.copyto(pending, step, where=closer)
            np.copyto(via, i, where=closer)
            j = int(pending.argmin())
            low = pending[j]
            if row_of[j] >= 0:  # prefer ending the path to extending it
                ties = np.flatnonzero(pending == low)
                free = ties[row_of[ties] < 0]
                j = int(free[0] if free.size else j)
            if row_of[j] < 0:
                break
            reached.append(j)
            lows.append(low)
            pending[j] = np.inf
            shift[j] = -np.inf
            i = row_of[j]
        u[start] += low
        if reached:
            gain = low - np.array(lows)
            u[tree[1:]] += gain
            v[reached] -= gain
        while True:  # flip the path from `start` to the free column j
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    if transposed:
        order = np.argsort(col_of)
        return col_of[order], order, v, u
    return np.arange(n), col_of, u, v


class _Residual:
    """Residual graph of an assignment over the viable pairs, in exact ints.

    Nodes: rows 0..n-1, columns n..n+m-1 and, when n != m, one dummy node
    z = n + m that stands for "prediction unmatched" (n > m) or "ground
    truth unused" (n < m). Edges: row -> column at +w off the assignment,
    column -> row at -w on it; z -> every column and each unused column -> z
    (n < m), or every row -> z and z -> each unmatched row (n > m), at 0.
    A cycle is an exchange, and its cost is the change of the total. Fixed
    rows and columns are switched off and drop out of the graph.

    The potentials p are distances to a virtual sink, so the reduced cost
    cost + p[b] - p[a] of every edge a -> b is >= 0 once `settle` returns.
    """

    def __init__(self, w: list[dict[int, int]], n: int, m: int, rows, cols) -> None:
        self.w = w  # w[i][n + j]: exact cost of the viable pair (i, j)
        self.n, self.z = n, n + m
        self.tall, self.wide = n > m, n < m
        self.rows_of: list[list[tuple[int, int]]] = [[] for _ in range(n + m)]
        for i in range(n):
            for col, x in w[i].items():
                self.rows_of[col].append((i, x))
        self.mate = [-1] * (n + m)  # column node of each row, row of each column
        for i, j in zip(rows, cols):
            self.mate[i], self.mate[n + j] = n + j, i
        self.on = [True] * (n + m) + [n != m]
        self.p = [0] * (n + m + 1)

    def _in_edges(self, y: int):
        """(tail, cost) of every edge into node y."""
        n, z, mate, on = self.n, self.z, self.mate, self.on
        if y < n:
            col = mate[y]
            if col >= 0:
                yield col, -self.w[y][col]
            elif self.tall:
                yield z, 0
        elif y < z:
            for i, x in self.rows_of[y]:
                if on[i] and mate[i] != y:
                    yield i, x
            if self.wide:
                yield z, 0
        elif self.wide:
            for col in range(n, z):
                if on[col] and mate[col] < 0:
                    yield col, 0
        else:
            for i in range(n):
                if on[i]:
                    yield i, 0

    def settle(self) -> None:
        """Make the potentials feasible, first cancelling every negative cycle.

        Label-correcting Bellman-Ford towards the sink, from the current
        potentials. A cycle among the successor links is negative; flipping
        it lowers the total.
        """
        p, size = self.p, len(self.p)
        while True:
            succ = [-1] * size
            lowered = [0] * size
            queue = deque(v for v in range(size) if self.on[v])
            queued = list(self.on)
            cycle = None
            while queue and cycle is None:
                b = queue.popleft()
                queued[b] = False
                for a, x in self._in_edges(b):
                    if x + p[b] < p[a]:
                        p[a], succ[a] = x + p[b], b
                        lowered[a] += 1
                        if lowered[a] % size == 0 and (cycle := self._negative_cycle(succ, a)):
                            break
                        if not queued[a]:
                            queued[a] = True
                            queue.append(a)
            if cycle is None:
                return
            self.flip(cycle)

    def _negative_cycle(self, succ: list[int], node: int) -> list[int] | None:
        n, z, w = self.n, self.z, self.w
        walk: dict[int, int] = {}
        while node >= 0 and node not in walk:
            walk[node] = len(walk)
            node = succ[node]
        if node < 0:
            return None
        cycle = list(walk)[walk[node]:]  # each node -> the next, the last -> the first
        cost = sum(
            w[a][b] if a < n and b != z else -w[b][a] if b < n and a != z else 0
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        )
        return cycle if cost < 0 else None

    def flip(self, cycle: list[int]) -> None:
        """Exchange along a cycle: a row takes the head of its out-edge, a
        column the tail of its in-edge (z meaning none)."""
        n, z, mate = self.n, self.z, self.mate
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if a < n:
                mate[a] = -1 if b == z else b
            if n <= b < z:
                mate[b] = -1 if a == z else a

    def paths_to(self, target: int, budget: int) -> tuple[dict[int, int], dict[int, int]]:
        """Reverse Dijkstra over reduced costs: the distance to `target` of
        every node within `budget`, and each node's next hop towards it."""
        p = self.p
        dist, hop = {target: 0}, {}
        heap = [(0, target)]
        while heap:
            d, y = heapq.heappop(heap)
            if d > dist[y]:
                continue
            for x, cost in self._in_edges(y):
                nd = d + cost + p[y] - p[x]
                if nd <= budget and nd < dist.get(x, budget + 1):
                    dist[x], hop[x] = nd, y
                    heapq.heappush(heap, (nd, x))
        return dist, hop


def _last_total(lo: int, hi: int, scale: int, best: float) -> int:
    """The largest t in [lo, hi] with t / scale == best, given lo / scale == best.

    Rounding is monotone, so the totals that round to `best` form an
    interval. `hi` may be any bound above it: no two totals that round to
    the same float differ by more than its ulp.
    """
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid / scale == best:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _lexmin_pairs(c: np.ndarray, rows: np.ndarray, cols: np.ndarray, viable: np.ndarray) -> list[tuple[int, int]]:
    """The lexicographically smallest pair list whose fsum total is minimal.

    Viable costs become ints over one power-of-two denominator, so totals
    are exact. The fsum total of a pair list is its exact total, correctly
    rounded, so the optimal fsum total is the rounded exact optimum, and the
    pair lists that reach it are those whose exact total is at most
    `ceiling`. After the optimum is settled, rows are fixed in order: row i
    takes its smallest free viable column j for which the cheapest exchange
    cycle through (i, j) keeps the total within `ceiling`. If no column does,
    row i stays unmatched. The current assignment stays the cheapest one
    consistent with the rows fixed so far.
    """
    n = c.shape[0]
    viable[rows, cols] = True  # the solver's pairs anchor the graph
    ii, jj = np.nonzero(viable)
    ratios = [x.as_integer_ratio() for x in c[ii, jj].tolist()]
    scale = max(den for _, den in ratios)
    w: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, (num, den) in zip(ii.tolist(), jj.tolist(), ratios):
        w[i][n + j] = num * (scale // den)  # row-major, so columns ascend
    g = _Residual(w, n, c.shape[1], rows.tolist(), cols.tolist())
    g.settle()
    lowest = exact = sum(w[i][g.mate[i]] for i in range(n) if g.mate[i] >= 0)
    best = lowest / scale  # int division rounds correctly, as fsum does
    num, den = math.ulp(best).as_integer_ratio()
    ceiling = _last_total(lowest, lowest + num * scale // den, scale, best)
    pairs = []
    for i in range(n):
        free = [col for col in w[i] if g.on[col]]
        chosen, delta = g.mate[i], 0
        if free and free[0] != chosen:
            dist, hop = g.paths_to(i, ceiling - exact)
            for col in free:
                if col == g.mate[i]:
                    break
                if col in dist:
                    cycle_cost = w[i][col] + g.p[col] - g.p[i] + dist[col]
                    if exact + cycle_cost <= ceiling:
                        chosen, delta = col, cycle_cost
                        break
            if chosen != g.mate[i]:
                cycle = [i, chosen]
                while hop[cycle[-1]] != i:
                    cycle.append(hop[cycle[-1]])
                g.flip(cycle)
                exact += delta
        g.on[i] = False
        if chosen >= 0:
            g.on[chosen] = False
            pairs.append((i, chosen - n))
        if delta:  # the flipped edges had positive reduced costs
            g.settle()
    return pairs


def hungarian(costs: np.ndarray) -> Assignment:
    """Minimum-total-cost assignment with a deterministic tie-break.

    Among all assignments attaining the optimal total (compared exactly via
    math.fsum of the selected entries), returns the one whose sorted
    (prediction, groundtruth) pair list is lexicographically smallest. One
    float solve finds an optimum and its dual potentials (u, v); pairs whose
    reduced cost c - u - v exceeds a rounding tolerance `tol` are ruled out,
    and the tie-break runs in exact integer arithmetic over the rest.

    No pair of a tying assignment is ruled out. Pad the problem with zero
    costs to N x N, N = max(n, m), with potential 0 on the padding lines.
    One pass checks that (u, v) is then a dual within eps = tol / (2N + 1):
    every reduced cost is >= -eps, and each of the solver's N pairs, padding
    included, has |reduced| <= eps. Any assignment A costs its reduced
    costs plus the sum of all potentials, so for a pair (i, j) of A,
    cost(A) - cost(solver's) >= reduced[i, j] - (2N - 1) eps. If A's fsum
    total ties the optimal one, best, the left side is at most
    ulp(best) <= N * max(c) * 2**-52, well below eps, so
    reduced[i, j] <= 2N eps < tol, and the spare margin covers the rounding
    of the reduced costs themselves. If the check fails, nothing is ruled out.
    """
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {c.shape}")
    if c.size and not np.isfinite(c).all():
        raise ValueError("cost matrix entries must be finite")
    if c.size and (c < 0).any():
        raise ValueError("cost matrix entries must be non-negative")
    n_pred, n_gt = c.shape
    if min(n_pred, n_gt) == 0:
        return Assignment(
            pairs=(),
            unmatched_predictions=tuple(range(n_pred)),
            unmatched_groundtruths=tuple(range(n_gt)),
            total_cost=0.0,
        )

    if min(n_pred, n_gt) == 1:
        # one pair is matched: the first minimum in row-major order
        pairs = [divmod(int(c.argmin()), n_gt)]
    else:
        rows, cols, u, v = linear_sum_assignment(c)
        size = max(n_pred, n_gt)
        tol = max(1e-9, 64 * size * size * np.finfo(np.float64).eps) * max(1.0, float(c.max()))
        eps = tol / (2 * size + 1)
        reduced = c - u[:, None] - v[None, :]
        longer, matched = (u, rows) if n_pred > n_gt else (v, cols)
        dual = (
            reduced.min() >= -eps
            and np.abs(reduced[rows, cols]).max() <= eps
            # padding lines meet the longer side at reduced cost -longer
            and (n_pred == n_gt or (longer.max() <= eps and np.abs(np.delete(longer, matched)).max() <= eps))
        )
        pairs = _lexmin_pairs(c, rows, cols, reduced <= tol if dual else np.ones(c.shape, dtype=bool))
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    return Assignment(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(n_pred) if i not in matched_rows),
        unmatched_groundtruths=tuple(j for j in range(n_gt) if j not in matched_cols),
        total_cost=math.fsum(float(c[i, j]) for i, j in pairs),
    )


def assign_targets(
    predictions: Sequence[RasterMask],
    groundtruths: Sequence[RasterMask],
    w_iou: float = 1.0,
    w_dice: float = 0.0,
) -> Assignment:
    """Match prediction masks to ground-truth masks at minimum total cost."""
    return hungarian(build_cost_matrix(predictions, groundtruths, w_iou, w_dice))
