"""Optimal bipartite assignment between predicted masks and ground-truth targets.

Every mask is matched as a `geometry.Bitset`, so the pixels a prediction
shares with a ground truth take one shift, AND and bit count, and the
solver and its tie-break run on Python lists: this module loads no NumPy.
`build_cost_matrix` and `hungarian` keep their ndarray interface for
library callers and import NumPy when called.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from itertools import compress, repeat
from operator import sub
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from segdial.geometry import Bitset, Rle
from segdial.instances import as_bitset

if TYPE_CHECKING:
    import numpy as np

    from segdial.mask import RasterMask

__all__ = ["Assignment", "build_cost_matrix", "hungarian", "assign_targets"]


class Assignment(NamedTuple):
    """Matched (prediction, groundtruth) index pairs plus the leftovers."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_groundtruths: tuple[int, ...]
    total_cost: float


def mask_iou(a: RasterMask, b: RasterMask) -> float:
    """`segdial.mask.mask_iou`, which loads NumPy on the first call
    (bench/tracing.py rebinds this name)."""
    from segdial.mask import mask_iou as iou

    return iou(a, b)


def check_weights(w_iou: float, w_dice: float) -> None:
    """ValueError unless both cost weights are finite and non-negative."""
    if not (0 <= w_iou < math.inf and 0 <= w_dice < math.inf):  # NaN fails both comparisons
        raise ValueError("cost weights must be finite and non-negative")


def build_cost_matrix(
    predictions: Sequence[Union[RasterMask, Bitset, Rle]],
    groundtruths: Sequence[Union[RasterMask, Bitset, Rle]],
    w_iou: float = 1.0,
    w_dice: float = 0.0,
) -> np.ndarray:
    """Pairwise matching costs, a float64 array of shape (len(predictions),
    len(groundtruths)).

    Entry (i, j) is w_iou * (1 - IoU) + w_dice * (1 - Dice); IoU and Dice
    are 0 for two empty masks. The weights must be finite and non-negative,
    so every entry is non-negative, and finite unless w_iou + w_dice
    overflows. The rows are those `assign_targets` solves.
    """
    import numpy as np

    rows = _cost_rows([as_bitset(p) for p in predictions], [as_bitset(g) for g in groundtruths], w_iou, w_dice)
    return np.array(rows, dtype=np.float64).reshape(len(predictions), len(groundtruths))


def _cost_rows(
    predictions: Sequence[Bitset], groundtruths: Sequence[Bitset], w_iou: float, w_dice: float
) -> list[list[float]]:
    """The rows of `build_cost_matrix`, as lists of floats.

    A canvas mismatch raises for the first mismatching pair in row-major
    order, as `mask.overlaps` does. A pair whose column-major spans are
    disjoint shares no pixel; the others take one shift, AND and bit count.
    Each cost is the float expression of the decoded masks' pixel counts,
    so it is bit-identical to theirs.
    """
    check_weights(w_iou, w_dice)
    sizes = {(g.width, g.height) for g in groundtruths}
    for p in predictions:
        if len(sizes) > 1 or (p.width, p.height) not in sizes:
            for g in groundtruths:
                if (p.width, p.height) != (g.width, g.height):
                    raise ValueError(f"mask canvases differ: {p.width}x{p.height} vs {g.width}x{g.height}")
    truths = [(g.offset, g.offset + g.bits.bit_length(), g.bits, g.area) for g in groundtruths]
    rows = []
    for p in predictions:
        start, bits, area = p.offset, p.bits, p.area
        end = start + bits.bit_length()
        row = []
        for g_start, g_end, g_bits, g_area in truths:
            if g_start >= end or start >= g_end:
                inter = 0
            elif g_start >= start:  # the mask that starts first is shifted onto the other
                inter = ((bits >> (g_start - start)) & g_bits).bit_count()
            else:
                inter = ((g_bits >> (start - g_start)) & bits).bit_count()
            union = area + g_area - inter
            # a zero union has a zero intersection: the 0 of two empty masks
            cost = w_iou * (1.0 - (inter / union if union else 0.0))
            if w_dice:  # |a| + |b| == inter + union
                cost += w_dice * (1.0 - (2.0 * inter / (inter + union) if union else 0.0))
            row.append(cost)
        rows.append(row)
    return rows


def linear_sum_assignment(costs: list[list[float]]) -> tuple[list[int], list[int], list[float], list[float]]:
    """A minimum-cost assignment of min(n, m) pairs of the n x m matrix
    `costs` (n rows of m floats, n, m >= 1) as (rows, cols), rows ascending,
    and the dual potentials (u, v) it ends with: u per row, v per column.

    Shortest augmenting paths with dual potentials (Crouse 2016, "On
    implementing 2D rectangular assignment algorithms", the method behind
    scipy's solver). Each line of the shorter side joins through a Dijkstra
    search over the lines of the longer one; each step scans the lines the
    search has not reached yet and takes the first closest, a free one
    among equals. In exact arithmetic the reduced costs c - u[i] - v[j] are
    >= 0, and 0 on the pairs; the longer side's potentials are <= 0, and 0
    on its unmatched lines.
    """
    c = costs
    transposed = len(c) > len(c[0])
    if transposed:
        c = [list(col) for col in zip(*c)]
    n, m = len(c), len(c[0])
    u, v = [0.0] * n, [0.0] * m
    col_of, row_of = [-1] * n, [-1] * m
    via = [-1] * m  # the row each column is reached from
    for start in range(n):
        pending = [math.inf] * m  # tentative distances of the columns not reached
        todo = list(range(m))  # the columns not reached, ascending
        tree, reached, lows = [], [], []  # tree[k + 1] is the row of column reached[k]
        low = 0.0
        i = start
        while True:
            tree.append(i)
            row, lift = c[i], low - u[i]
            j, low = -1, math.inf
            for k in todo:
                step = row[k] - v[k] + lift
                if step < pending[k]:
                    pending[k], via[k] = step, i
                else:
                    step = pending[k]
                if step < low:
                    j, low = k, step
            if row_of[j] >= 0:  # prefer ending the path to extending it
                j = next((k for k in todo if pending[k] == low and row_of[k] < 0), j)
            if row_of[j] < 0:
                break
            reached.append(j)
            lows.append(low)
            todo.remove(j)
            i = row_of[j]
        u[start] += low
        for r, col, before in zip(tree[1:], reached, lows):
            gain = low - before
            u[r] += gain
            v[col] -= gain
        while True:  # flip the path from `start` to the free column j
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    if transposed:
        order = sorted(range(n), key=col_of.__getitem__)
        return [col_of[k] for k in order], order, v, u
    return list(range(n)), col_of, u, v


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


def _lexmin_pairs(
    c: list[list[float]], rows: list[int], cols: list[int], viable: list[list[int]]
) -> list[tuple[int, int]]:
    """The lexicographically smallest pair list whose fsum total is minimal.

    Viable costs become ints over one power-of-two denominator, so totals
    are exact. The fsum total of a pair list is its exact total, correctly
    rounded, so the optimal fsum total is the rounded exact optimum, and the
    pair lists that reach it are those whose exact total is at most
    `ceiling`. After the optimum is settled, rows are fixed in order: row i
    takes its smallest free viable column j for which the cheapest exchange
    cycle through (i, j) keeps the total within `ceiling`. If no column does,
    row i stays unmatched. The current assignment stays the cheapest one
    consistent with the rows fixed so far. `viable[i]` lists the columns
    row i may take, ascending, the solver's pair among them: those pairs
    anchor the graph.
    """
    n = len(c)
    cells = [(i, j, c[i][j].as_integer_ratio()) for i, keep in enumerate(viable) for j in keep]
    scale = max(den for _, _, (_, den) in cells)
    w: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, (num, den) in cells:
        w[i][n + j] = num * (scale // den)  # row-major, so columns ascend
    g = _Residual(w, n, len(c[0]), rows, cols)
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

    `costs` is checked and converted with NumPy, and solved as Python lists.
    """
    import numpy as np

    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {c.shape}")
    if c.size and not np.isfinite(c).all():
        raise ValueError("cost matrix entries must be finite")
    if c.size and (c < 0).any():
        raise ValueError("cost matrix entries must be non-negative")
    return _assign(c.tolist(), *c.shape)


def _assign(c: list[list[float]], n_pred: int, n_gt: int) -> Assignment:
    """`hungarian` of the n_pred x n_gt matrix of rows `c`, whose entries
    are finite and non-negative."""
    if min(n_pred, n_gt) == 0:
        return Assignment(
            pairs=(),
            unmatched_predictions=tuple(range(n_pred)),
            unmatched_groundtruths=tuple(range(n_gt)),
            total_cost=0.0,
        )

    if min(n_pred, n_gt) == 1:
        # one pair is matched: the first minimum in row-major order
        flat = [x for row in c for x in row]
        pairs = [divmod(flat.index(min(flat)), n_gt)]
    else:
        rows, cols, u, v = linear_sum_assignment(c)
        size = max(n_pred, n_gt)
        tol = max(1e-9, 64 * size * size * sys.float_info.epsilon) * max(1.0, max(map(max, c)))
        eps = tol / (2 * size + 1)
        reduced = [list(map(sub, map(sub, row, repeat(ui)), v)) for row, ui in zip(c, u)]  # (c - u) - v
        longer, matched = (u, rows) if n_pred > n_gt else (v, cols)
        unmatched = set(range(size)).difference(matched)
        dual = (
            min(map(min, reduced)) >= -eps
            and max(abs(reduced[i][j]) for i, j in zip(rows, cols)) <= eps
            # padding lines meet the longer side at reduced cost -longer
            and (n_pred == n_gt or (max(longer) <= eps and max(abs(longer[k]) for k in unmatched) <= eps))
        )
        if dual:  # each row's columns within `tol`
            viable = [list(compress(range(n_gt), map(tol.__ge__, row))) for row in reduced]
        else:
            viable = [list(range(n_gt)) for _ in range(n_pred)]
        pairs = _lexmin_pairs(c, rows, cols, viable)
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    return Assignment(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(n_pred) if i not in matched_rows),
        unmatched_groundtruths=tuple(j for j in range(n_gt) if j not in matched_cols),
        total_cost=math.fsum(c[i][j] for i, j in pairs),
    )


def assign_targets(
    predictions: Sequence[Union[RasterMask, Bitset, Rle]],
    groundtruths: Sequence[Union[RasterMask, Bitset, Rle]],
    w_iou: float = 1.0,
    w_dice: float = 0.0,
) -> Assignment:
    """Match prediction masks to ground-truth masks at minimum total cost:
    `hungarian(build_cost_matrix(...))`, solved on the cost rows."""
    rows = _cost_rows([as_bitset(p) for p in predictions], [as_bitset(g) for g in groundtruths], w_iou, w_dice)
    if not math.isfinite(w_iou + w_dice) and any(math.inf in row for row in rows):
        raise ValueError("cost matrix entries must be finite")
    return _assign(rows, len(predictions), len(groundtruths))
