import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import oracles
from conftest import random_mask, random_star_polygon, rect_mask
from test_mask import mask_lists
from segdial import matching
from segdial.mask import Polygon, RasterMask, overlap, rasterize
from segdial.matching import Assignment, assign_targets, build_cost_matrix, hungarian

# Reaches the float fallback branch of `hungarian` (see test_float_fallback_branch).
FALLBACK_COSTS = np.array([
    [0.1, 0.0, 0.2, 0.3],
    [0.2, 1 / 3, 0.6, 1 / 3],
    [0.7, 1 / 3, 0.3, 0.9],
    [2 / 3, 0.7, 0.6, 0.2],
    [0.7, 0.2, 0.2, 0.1],
])
# More near-tie matrices that reach the fallback branch.
FALLBACK_NEAR_TIES = [
    np.array([
        [0.9, 0.0, 0.7, 0.1, 0.0],
        [0.6, 0.7, 2 / 3, 0.7, 0.6],
        [0.3, 0.2, 2 / 3, 0.6, 0.6],
        [0.3, 0.9, 0.9, 2 / 3, 0.1],
        [0.2, 0.6, 0.1, 0.9, 2 / 3],
        [0.6, 0.1, 0.1, 2 / 3, 0.2],
    ]),
    np.array([
        [0.9, 1 / 3, 0.1, 1 / 3, 0.1, 0.7],
        [0.6, 0.0, 0.3, 0.2, 2 / 3, 0.1],
        [0.6, 0.3, 0.2, 0.9, 2 / 3, 0.9],
        [0.1, 0.2, 0.1, 0.7, 0.6, 0.7],
        [0.0, 0.2, 0.3, 0.6, 0.1, 0.2],
    ]),
]

# On these the tie-break takes exchanges whose exact cost is positive while
# the fsum total stays the same, so the rows after them need fresh
# potentials. On the 4x7 one the first solve's float optimum is not the exact
# optimum either.
POSITIVE_EXCHANGES = [
    np.array([
        [0.3, 1 / 3, 0.2, 0.7, 1 / 3, 0.7, 0.3],
        [0.7, 1 / 3, 0.7, 0.1, 0.3, 0.3, 2 / 3],
        [0.1, 0.3, 0.3, 2 / 3, 0.7, 0.7, 0.2],
        [0.0, 0.2, 0.0, 0.7, 0.1, 1 / 3, 1 / 3],
        [2 / 3, 0.2, 1 / 3, 0.0, 0.7, 2 / 3, 1 / 3],
    ]),
    np.array([
        [0.4, 0.9, 0.3, 0.4, 0.8, 0.5, 0.8],
        [0.8, 0.5, 0.4, 0.8, 0.7, 1.0, 0.7],
        [0.2, 0.6, 0.7, 0.1, 0.7, 1.0, 1.0],
        [0.7, 0.0, 1.0, 0.6, 0.4, 0.0, 0.2],
    ]),
    np.array([
        [0.7, 0.4, 0.8, 0.3, 0.0],
        [0.2, 0.7, 0.8, 0.5, 0.7],
        [0.6, 0.2, 0.3, 0.6, 0.1],
        [0.8, 0.8, 1.0, 0.7, 0.4],
        [1.0, 0.5, 0.3, 0.8, 0.7],
        [0.6, 1.0, 0.1, 1.0, 0.3],
        [0.6, 0.9, 0.4, 0.9, 1.0],
    ]),
]


class TestHungarian:
    def test_identity_optimum(self):
        costs = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = hungarian(costs)
        assert got.pairs == ((0, 0), (1, 1))
        assert got.total_cost == 0.0
        assert got.unmatched_predictions == ()
        assert got.unmatched_groundtruths == ()

    def test_anti_diagonal_optimum(self):
        got = hungarian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert got.pairs == ((0, 1), (1, 0))
        assert got.total_cost == 2.0

    def test_tie_broken_lexicographically(self):
        # both diagonals cost 5; the identity pairing sorts first
        got = hungarian(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert got.pairs == ((0, 0), (1, 1))
        flat = hungarian(np.ones((3, 3)))
        assert flat.pairs == ((0, 0), (1, 1), (2, 2))

    def test_wide_matrix_matches_every_prediction(self):
        got = hungarian(np.array([[5.0, 1.0, 9.0], [5.0, 9.0, 1.0]]))
        assert got.pairs == ((0, 1), (1, 2))
        assert got.unmatched_groundtruths == (0,)
        assert got.unmatched_predictions == ()

    def test_tall_matrix_leaves_predictions_unmatched(self):
        costs = np.array([[1.0, 9.0], [0.0, 0.0], [9.0, 1.0]])
        got = hungarian(costs)
        # (0,0)+(1,1) ties (1,0)+(2,1) at total 1; the first sorts earlier
        assert got.pairs == ((0, 0), (1, 1))
        assert got.unmatched_predictions == (2,)
        assert got.total_cost == 1.0

    def test_empty_dimensions(self):
        got = hungarian(np.zeros((0, 3)))
        assert got.pairs == ()
        assert got.unmatched_groundtruths == (0, 1, 2)
        got = hungarian(np.zeros((2, 0)))
        assert got.pairs == ()
        assert got.unmatched_predictions == (0, 1)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, float("nan")]]))
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, float("inf")]]))
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError):
            hungarian(np.zeros(3))

    def test_an_overflowing_total_is_refused(self):
        overflowing = [[1e308, 1.7e308], [1.7e308, 1e308]]
        assert oracles.brute_force_assignment_wide(overflowing)[0] == math.inf
        with pytest.raises(ValueError, match="^the optimal total cost overflows the float range$"):
            hungarian(np.array(overflowing))
        # a total at the top of the float range is no overflow, and the
        # tie-break runs up to it; every other assignment here overflows or
        # sorts later
        top = sys.float_info.max
        for costs in ([[1e308, top], [top, top - 1e308]], [[top / 2, top / 2, top], [top / 2, top / 2, top]]):
            got = hungarian(np.array(costs))
            assert (got.pairs, got.total_cost) == (((0, 0), (1, 1)), top)
            assert oracles.brute_force_assignment_wide(costs) == (top, [(0, 0), (1, 1)])

    def test_totals_near_the_float_range_match_the_wide_oracle(self):
        # costs of a few units of 2**1020 make many totals overflow: the
        # optimum is refused exactly when the oracle's total is inf
        rng = random.Random(21)
        unit = 2.0 ** 1020
        for trial in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            costs = [[rng.choice([0.5, 1.0, 4.0, 7.0, 15.0, 15.99]) * unit for _ in range(m)] for _ in range(n)]
            want_total, want_pairs = oracles.brute_force_assignment_wide(costs)
            if want_total == math.inf:
                with pytest.raises(ValueError, match="^the optimal total cost overflows the float range$"):
                    hungarian(np.array(costs))
                continue
            got = hungarian(np.array(costs))
            assert (list(got.pairs), got.total_cost) == (want_pairs, want_total), costs

    def test_matches_brute_force_on_random_matrices(self):
        rng = random.Random(7)
        values = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
        for trial in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            costs = [[rng.choice(values) for _ in range(m)] for _ in range(n)]
            want_total, want_pairs = oracles.brute_force_assignment(costs)
            got = hungarian(np.array(costs))
            assert list(got.pairs) == want_pairs, (costs, got.pairs, want_pairs)
            assert got.total_cost == pytest.approx(want_total, abs=1e-12)

    def test_scaling_costs_keeps_the_pair_set(self):
        rng = random.Random(13)
        for trial in range(50):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            costs = np.array([[rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(m)] for _ in range(n)])
            base = hungarian(costs)
            for factor in (0.5, 2.0, 4.0):  # powers of two scale exactly
                scaled = hungarian(costs * factor)
                assert scaled.pairs == base.pairs

    def test_every_index_accounted_once(self):
        rng = random.Random(99)
        for trial in range(50):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            costs = np.array([[rng.random() for _ in range(m)] for _ in range(n)])
            got = hungarian(costs)
            assert len(got.pairs) == min(n, m)
            rows = [i for i, _ in got.pairs] + list(got.unmatched_predictions)
            cols = [j for _, j in got.pairs] + list(got.unmatched_groundtruths)
            assert sorted(rows) == list(range(n))
            assert sorted(cols) == list(range(m))


    def test_float_fallback_branch(self):
        # A first solve can pick pairs whose float sum ties the optimum while
        # their fsum total does not: 0.2 + 0.2 + 0.2 and 0.2 + 0.3 + 0.1 round
        # differently. The exact tie-break still finds the oracle's minimum.
        got = hungarian(FALLBACK_COSTS)
        want_total, want_pairs = oracles.brute_force_assignment(FALLBACK_COSTS)
        assert got.pairs == ((0, 1), (1, 0), (2, 2), (4, 3)) == tuple(want_pairs)
        assert got.unmatched_predictions == (3,)
        assert got.total_cost == 0.6 == want_total


def _reference_subproblem_cost(costs, rows, cols, need):
    """Copy of the full-scan matcher's completion solve, kept as a reference."""
    if need == 0:
        return []
    if len(rows) < need or len(cols) < need:
        return None
    sub = costs[np.ix_(rows, cols)]
    rr, cc = linear_sum_assignment(sub)
    return [float(sub[i, j]) for i, j in zip(rr, cc)]


def _reference_hungarian(costs):
    """Copy of the full-scan matcher: one completion solve per candidate pair."""
    c = np.asarray(costs, dtype=np.float64)
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

    pairs = []
    fixed_terms = []
    free_cols = list(range(n_gt))
    row_floor = 0
    while len(pairs) < k:
        need = k - len(pairs) - 1
        chosen = None
        fallback_best = None
        for i in range(row_floor, n_pred):
            if n_pred - i - 1 < need:
                break
            for j in free_cols:
                rest_rows = list(range(i + 1, n_pred))
                rest_cols = [col for col in free_cols if col != j]
                completion = _reference_subproblem_cost(c, rest_rows, rest_cols, need)
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
            if fallback_best is None:
                raise RuntimeError("assignment infeasible")
            target = fallback_best[0]
            chosen = fallback_best[1]
        i, j = chosen
        pairs.append((i, j))
        fixed_terms.append(float(c[i, j]))
        free_cols.remove(j)
        row_floor = i + 1

    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    return Assignment(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(n_pred) if i not in matched_rows),
        unmatched_groundtruths=tuple(j for j in range(n_gt) if j not in matched_cols),
        total_cost=math.fsum(fixed_terms),
    )


def _iou_like(rng, n, m, duplicates):
    """DETR-shaped costs: mostly 1.0 (no overlap), two-decimal IoU costs, and
    `duplicates` prediction rows copied from others."""
    costs = rng.random((n, m))
    costs[costs < 0.7] = 1.0
    costs = np.round(costs, 2)
    src = rng.choice(n, duplicates, replace=False)
    dst = rng.choice(np.setdiff1d(np.arange(n), src), duplicates, replace=False)
    costs[dst] = costs[src]
    return costs


class TestReducedCostSkip:
    """`hungarian` skips candidates its reduced costs rule out; the result
    must equal the full scan's on every matrix where the full scan reaches
    the oracle's minimum, and the oracle's on FALLBACK_COSTS, where it does not."""

    @staticmethod
    def _small_matrices():
        rng = np.random.default_rng(2024)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
        near_ties = [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1 / 3, 2 / 3]
        for trial in range(1200):
            shape = tuple(int(v) for v in rng.integers(1, 9, size=2))
            family = trial % 4
            if family == 0:
                yield rng.choice(grid, size=shape)
            elif family == 1:
                yield rng.choice(near_ties, size=shape)
            elif family == 2:
                yield np.full(shape, float(rng.choice([0.0, 0.1, 1 / 3, 1.0])))
            else:
                yield rng.random(shape)

    def test_equals_the_full_scan(self):
        matrices = [FALLBACK_COSTS, *FALLBACK_NEAR_TIES, *self._small_matrices()]
        rng = np.random.default_rng(60)
        matrices += [_iou_like(rng, 100, 60, 10) for _ in range(2)]
        matrices += [_iou_like(rng, 30, 45, 5) for _ in range(4)]
        for costs in matrices:
            got = hungarian(costs)
            if costs is FALLBACK_COSTS:
                want_total, want_pairs = oracles.brute_force_assignment(costs)
                assert list(got.pairs) == want_pairs
                assert got.total_cost == want_total
                continue
            want = _reference_hungarian(costs)
            assert got.pairs == want.pairs, costs.tolist()
            assert got.unmatched_predictions == want.unmatched_predictions
            assert got.unmatched_groundtruths == want.unmatched_groundtruths
            assert got.total_cost == want.total_cost, costs.tolist()

    def test_dense_matrices_need_few_solves(self, monkeypatch):
        # The full scan makes up to ~2300 solves on these matrices; the exact
        # tie-break needs none beyond the first.
        calls = []
        solve = matching.linear_sum_assignment

        def counted(costs):
            calls.append((len(costs), len(costs[0])))
            return solve(costs)

        monkeypatch.setattr(matching, "linear_sum_assignment", counted)
        rng = np.random.default_rng(7)
        for _ in range(5):
            costs = _iou_like(rng, 100, 60, 10)
            calls.clear()
            hungarian(costs)
            assert calls == [(100, 60)]

    def test_dense_matrices_need_few_searches(self, monkeypatch):
        # The solver's potentials rule out all but ~9 pairs per row here, so
        # few rows need a search for an exchange; a looser viable set needs more.
        searches = []
        paths_to = matching._Residual.paths_to

        def counted(self, target, budget):
            searches.append(target)
            return paths_to(self, target, budget)

        monkeypatch.setattr(matching._Residual, "paths_to", counted)
        rng = np.random.default_rng(7)
        for _ in range(5):
            hungarian(_iou_like(rng, 100, 60, 10))
        assert len(searches) == 38


class TestExactTieBreak:
    """The one-solve matcher against independent references: the exhaustive
    oracle on small matrices, scipy's solver on large ones."""

    @staticmethod
    def _small_matrices(count, seed=606):
        rng = np.random.default_rng(seed)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
        thirds = [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1 / 3, 2 / 3]
        tenths = [k / 10 for k in range(11)]
        for trial in range(count):
            shape = tuple(int(v) for v in rng.integers(1, 7, size=2))
            family = trial % 5
            if family < 3:
                yield rng.choice((grid, thirds, tenths)[family], size=shape)
            elif family == 3:
                yield np.full(shape, float(rng.choice([0.0, 0.1, 1 / 3, 1.0])))
            else:
                yield rng.random(shape)

    @staticmethod
    def _assert_oracle(costs):
        want_total, want_pairs = oracles.brute_force_assignment(costs.tolist())
        got = hungarian(costs)
        assert list(got.pairs) == want_pairs, costs.tolist()
        assert got.total_cost == want_total, costs.tolist()

    def test_matches_the_oracle_on_small_matrices(self):
        fsum_tie = np.array([[0.5, 1 / 3], [2 / 3, 0.5]])
        fixed = [fsum_tie, FALLBACK_COSTS, *FALLBACK_NEAR_TIES, *POSITIVE_EXCHANGES]
        for costs in [*fixed, *self._small_matrices(3000)]:
            self._assert_oracle(costs)

    def test_ties_are_settled_on_fsum_totals_not_exact_sums(self):
        # Both assignments have fsum total 1.0, so the diagonal sorts first,
        # though the anti-diagonal's exact sum is smaller.
        assert Fraction(1 / 3) + Fraction(2 / 3) == 1 - Fraction(1, 2**54)
        assert math.fsum([1 / 3, 2 / 3]) == math.fsum([0.5, 0.5]) == 1.0
        got = hungarian(np.array([[0.5, 1 / 3], [2 / 3, 0.5]]))
        assert got.pairs == ((0, 0), (1, 1))
        assert got.total_cost == 1.0

    def test_a_non_optimal_first_solve_is_repaired(self, monkeypatch):
        # The diagonal is rarely optimal: its zero potentials fail the dual
        # check, and the exact potentials must cancel the negative cycles it
        # leaves before the tie-break starts.
        def diagonal(c):
            return (list(range(min(len(c), len(c[0])))),) * 2 + ([0.0] * len(c), [0.0] * len(c[0]))

        monkeypatch.setattr(matching, "linear_sum_assignment", diagonal)
        for costs in self._small_matrices(600, seed=607):
            self._assert_oracle(costs)

    @pytest.mark.parametrize("breakage", ["shifted v", "infeasible", "unmatched lines", "raised longer side"])
    def test_broken_potentials_rule_out_nothing(self, monkeypatch, breakage):
        # An optimal assignment with potentials that are not its dual: each
        # breakage fails one condition of the check and, if trusted, would
        # rule out pairs that tying assignments use.
        solve = matching.linear_sum_assignment

        def broken(c):
            rows, cols, u, v = solve(c)
            if breakage == "shifted v":  # |reduced| = 0.5 on the pairs
                v = [x - 0.5 for x in v]
            elif breakage in ("infeasible", "raised longer side"):
                # trade potential within a pair: reduced < 0 down its column,
                # or the longer side's potential above 0 on a matched line
                d = 100.0 if breakage == "infeasible" else 1e-3 * np.sign(len(c[0]) - len(c))
                u, v = list(u), list(v)
                u[rows[0]] -= d
                v[cols[0]] += d
            elif len(c) > len(c[0]):  # the longer side's unmatched lines
                u = [x - (k not in rows) for k, x in enumerate(u)]
            else:
                v = [x - (k not in cols) for k, x in enumerate(v)]
            return rows, cols, u, v

        lexmin = matching._lexmin_pairs
        checked = []

        def all_viable(c, rows, cols, viable):
            checked.append((len(c), len(c[0])))
            assert viable == [list(range(len(c[0])))] * len(c), c
            return lexmin(c, rows, cols, viable)

        monkeypatch.setattr(matching, "linear_sum_assignment", broken)
        monkeypatch.setattr(matching, "_lexmin_pairs", all_viable)
        for costs in self._small_matrices(400, seed=608):
            if breakage in ("unmatched lines", "raised longer side") and costs.shape[0] == costs.shape[1]:
                continue
            self._assert_oracle(costs)
        assert len(checked) > 100

    def test_solver_reaches_scipys_optimum(self):
        rng = np.random.default_rng(61)
        near_ties = np.array([0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1 / 3, 2 / 3])
        for trial in range(60):
            shape = int(rng.integers(1, 101)), int(rng.integers(1, 61))
            shape = shape[::-1] if trial % 2 else shape
            kind = trial % 6
            if kind == 0:
                costs = np.full(shape, 0.5)
            elif kind == 1:
                costs = np.zeros(shape)
            elif kind == 2:
                costs = rng.choice(near_ties, size=shape) * 1e-7
            elif kind == 3:
                costs = rng.choice(near_ties, size=shape) * 1e3
            elif kind == 4:  # duplicated rows
                costs = rng.random(shape)
                costs[rng.integers(0, shape[0], shape[0] // 3)] = costs[0]
            else:
                costs = rng.random(shape)
            rows, cols, u, v = map(np.array, matching.linear_sum_assignment(costs.tolist()))
            reduced = costs - u[:, None] - v[None, :]
            assert reduced.min() >= -1e-9 and np.abs(reduced[rows, cols]).max() <= 1e-9
            assert rows.tolist() == sorted(set(rows.tolist()))
            assert len(set(cols.tolist())) == len(rows) == min(shape)
            want_rows, want_cols = linear_sum_assignment(costs)
            optimum = math.fsum(costs[want_rows, want_cols])
            assert math.fsum(costs[rows, cols]) == pytest.approx(optimum, rel=1e-12, abs=0)
            assert hungarian(costs).total_cost == pytest.approx(optimum, rel=1e-12, abs=0)


# The NumPy solver that `matching.linear_sum_assignment` replaced, copied
# verbatim but for its name: the pure-Python one must give the same rows,
# columns and potentials, bit for bit.
def _numpy_linear_sum_assignment(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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


class TestSolverAgainstNumPyReference:
    @staticmethod
    def _matrices():
        rng = np.random.default_rng(1717)
        thirds = [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1 / 3, 2 / 3]
        tenths = [k / 10 for k in range(11)]
        yield FALLBACK_COSTS
        yield from FALLBACK_NEAR_TIES
        yield from POSITIVE_EXCHANGES
        for trial in range(900):
            n = int(rng.integers(1, 25))
            # square, tall and wide in turn
            m = (n, max(1, n - int(rng.integers(0, n))), n + int(rng.integers(1, 12)))[trial % 3]
            family = trial // 3 % 5
            if family == 0:
                yield rng.random((n, m))
            elif family == 1:
                yield rng.choice(thirds, size=(n, m))
            elif family == 2:
                yield rng.choice(tenths, size=(n, m))
            elif family == 3:
                yield np.full((n, m), float(rng.choice([0.0, 0.1, 1 / 3, 1.0])))
            else:
                yield rng.choice(thirds, size=(n, m)) * 1e-7
        for shape in ((100, 60), (60, 100), (30, 45)):
            yield _iou_like(rng, *shape, 5)

    def test_rows_cols_and_potentials_are_bit_identical(self):
        shapes = set()
        for costs in self._matrices():
            want = _numpy_linear_sum_assignment(costs)
            got = matching.linear_sum_assignment(costs.tolist())
            assert [type(x) for x in got] == [list] * 4
            assert got[0] == want[0].tolist() and got[1] == want[1].tolist(), costs.tolist()
            for mine, theirs in zip(got[2:], want[2:]):
                assert np.array(mine, dtype=np.float64).tobytes() == theirs.tobytes(), costs.tolist()
            shapes.add(np.sign(costs.shape[0] - costs.shape[1]))
        assert shapes == {-1, 0, 1}


def _pair_costs(preds, gts, w_iou, w_dice):
    """The per-pair reference: each cost from `mask.overlap` of its pair, in
    the float operations of one IoU and one Dice, row by row."""
    want = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            inter, union = overlap(p, g)
            c = w_iou * (1.0 - (inter / union if union else 0.0))
            if w_dice:
                c += w_dice * (1.0 - (2.0 * inter / (inter + union) if union else 0.0))
            want[i, j] = c
    return want


class TestCostMatrix:
    def test_iou_only_costs(self):
        a = rect_mask(8, 8, 0, 0, 4, 2)  # 8 px
        b = rect_mask(8, 8, 0, 0, 2, 4)  # 8 px, overlap 4
        costs = build_cost_matrix([a], [a, b])
        assert costs.shape == (1, 2)
        assert costs[0, 0] == 0.0
        assert costs[0, 1] == pytest.approx(1 - 4 / 12)

    def test_dice_term(self):
        a = rect_mask(8, 8, 0, 0, 4, 2)
        b = rect_mask(8, 8, 0, 0, 2, 4)
        costs = build_cost_matrix([a], [b], w_iou=0.0, w_dice=1.0)
        assert costs[0, 0] == pytest.approx(1 - 2 * 4 / 16)
        both = build_cost_matrix([a], [b], w_iou=1.0, w_dice=1.0)
        assert both[0, 0] == pytest.approx((1 - 4 / 12) + (1 - 0.5))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            build_cost_matrix([], [], w_iou=-1.0)

    def test_entries_stay_in_range(self, rng):
        from conftest import random_mask

        preds = [random_mask(rng, 6, 6) for _ in range(3)]
        gts = [random_mask(rng, 6, 6) for _ in range(4)]
        costs = build_cost_matrix(preds, gts, w_iou=1.0, w_dice=1.0)
        assert np.isfinite(costs).all()
        assert (costs >= 0).all() and (costs <= 2.0).all()


    def test_costs_equal_the_pair_formula_bit_for_bit(self):
        # the per-pair costs of one IoU and one Dice per pair, in the same
        # float operations, against the matrix built from bitsets
        rng = random.Random(31)
        for trial in range(40):
            side = rng.choice((8, 40, 128))
            pool = [rasterize(Polygon(random_star_polygon(rng, side, side)), side, side) for _ in range(12)]
            pool += [random_mask(rng, side, side, density=0.3), RasterMask.zeros(side, side)]
            preds = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
            gts = [rng.choice(pool) for _ in range(rng.randint(0, 20))]
            w_iou = rng.choice((0.0, 1.0, 0.7, 2.5))
            w_dice = rng.choice((0.0, 1.0, 0.3, 1 / 3))
            want = _pair_costs(preds, gts, w_iou, w_dice)
            got = build_cost_matrix(preds, gts, w_iou, w_dice)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), trial

    @settings(max_examples=200, deadline=None)
    @given(mask_lists(), st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.7, 1 / 3)]))
    def test_every_entry_equals_the_pair_overlap_cost(self, lists, weights):
        # empty, one-pixel, nested, touching and line-sharing masks
        masks_a, masks_b = lists
        got = build_cost_matrix(masks_a, masks_b, *weights)
        want = _pair_costs(masks_a, masks_b, *weights)
        assert got.dtype == np.float64 and got.shape == want.shape == (len(masks_a), len(masks_b))
        assert got.tobytes() == want.tobytes()

    def test_empty_sides(self):
        m = rect_mask(5, 5, 0, 0, 2, 2)
        for a, b in (([], []), ([m], []), ([], [m, m])):
            assert build_cost_matrix(a, b).shape == (len(a), len(b))


class TestOneRowOrColumn:
    """With one prediction or one ground truth exactly one pair is matched:
    the first minimum in row-major order."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(12)
        thirds = [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1 / 3, 2 / 3]
        tenths = [k / 10 for k in range(11)]
        for k in range(1, 9):
            yield np.full(k, 0.5)  # all equal
            yield rng.choice([0.2, 0.2, 0.9], size=k)  # repeated minima
            yield rng.choice(thirds, size=k)
            yield rng.choice(tenths, size=k)
            yield rng.random(k)

    def test_matches_the_oracle(self):
        for row in self._matrices():
            for costs in (row[None, :], row[:, None]):
                want_total, want_pairs = oracles.brute_force_assignment(costs.tolist())
                got = hungarian(costs)
                assert list(got.pairs) == want_pairs, costs.tolist()
                assert got.total_cost == want_total
                (i, j), = want_pairs
                assert got.unmatched_predictions == tuple(k for k in range(costs.shape[0]) if k != i)
                assert got.unmatched_groundtruths == tuple(k for k in range(costs.shape[1]) if k != j)


class TestAssignTargets:
    @pytest.mark.parametrize("n", [2, 9])
    def test_canvas_mismatch_names_the_first_pair_in_row_major_order(self, n):
        masks_a = [rect_mask(8, 8, 0, 0, 3, 3) for _ in range(n)]
        masks_a[1] = rect_mask(9, 8, 0, 0, 3, 3)
        masks_b = [rect_mask(8, 8, 1, 1, 4, 4) for _ in range(n)]
        masks_b[-1] = RasterMask.zeros(8, 7)
        with pytest.raises(ValueError, match="^mask canvases differ: 8x8 vs 8x7$"):
            assign_targets(masks_a, masks_b)
        with pytest.raises(ValueError, match="^mask canvases differ: 9x8 vs 8x8$"):
            assign_targets(masks_a, masks_b[:-1])

    def test_an_overflowing_total_is_refused(self):
        # every cost is 1e308: no prediction meets a ground truth
        preds = [rect_mask(10, 10, 0, 0, 2, 2), rect_mask(10, 10, 0, 5, 2, 7)]
        gts = [rect_mask(10, 10, 5, 0, 7, 2), rect_mask(10, 10, 5, 5, 7, 7)]
        with pytest.raises(ValueError, match="^the optimal total cost overflows the float range$"):
            assign_targets(preds, gts, w_iou=1e308)
        assert assign_targets(preds[:1], gts, w_iou=1e308).total_cost == 1e308

    def test_perfect_predictions_pair_with_their_twins(self):
        gts = [rect_mask(10, 10, 0, 0, 3, 3), rect_mask(10, 10, 5, 5, 9, 9), rect_mask(10, 10, 0, 7, 2, 10)]
        preds = [gts[2], gts[0], gts[1]]
        got = assign_targets(preds, gts)
        assert got.total_cost == 0.0
        assert got.pairs == ((0, 2), (1, 0), (2, 1))

    def test_reordering_predictions_permutes_the_same_mask_pairs(self, rng):
        # The mask-pair set is permutation invariant whenever the optimum is
        # unique; under exact cost ties the index tie-break may legitimately
        # pick a different equal-cost pairing, so only the total is compared.
        from conftest import random_mask

        def optimal_pair_sets(preds, gts):
            costs = build_cost_matrix(preds, gts)
            n, m = costs.shape
            k = min(n, m)
            best, found = None, set()
            for rows in itertools.combinations(range(n), k):
                for cols in itertools.permutations(range(m), k):
                    total = math.fsum(costs[i, j] for i, j in zip(rows, cols))
                    pairset = frozenset(
                        (preds[i], gts[j]) for i, j in zip(rows, cols)
                    )
                    if best is None or total < best:
                        best, found = total, {pairset}
                    elif total == best:
                        found.add(pairset)
            return found

        def as_masks(assignment, pred_list, gts):
            return frozenset((pred_list[i], gts[j]) for i, j in assignment.pairs)

        unique_trials = 0
        for trial in range(30):
            gts = [random_mask(rng, 8, 8) for _ in range(rng.randint(1, 4))]
            preds = [random_mask(rng, 8, 8) for _ in range(rng.randint(1, 4))]
            base = assign_targets(preds, gts)
            perm = list(range(len(preds)))
            rng.shuffle(perm)
            permuted = [preds[i] for i in perm]
            shuffled = assign_targets(permuted, gts)
            assert shuffled.total_cost == base.total_cost
            assert len(shuffled.pairs) == len(base.pairs)
            optima = optimal_pair_sets(preds, gts)
            if len(optima) == 1:
                unique_trials += 1
                expected = next(iter(optima))
                assert as_masks(base, preds, gts) == expected
                assert as_masks(shuffled, permuted, gts) == expected
        # the generator must exercise the invariant on plenty of tie-free cases
        assert unique_trials >= 5
