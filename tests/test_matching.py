import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import oracles
from conftest import random_mask, random_star_polygon, rect_mask
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
            calls.append(costs.shape)
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
            return (np.arange(min(c.shape)),) * 2 + (np.zeros(c.shape[0]), np.zeros(c.shape[1]))

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
                v = v - 0.5
            elif breakage in ("infeasible", "raised longer side"):
                # trade potential within a pair: reduced < 0 down its column,
                # or the longer side's potential above 0 on a matched line
                d = 100.0 if breakage == "infeasible" else 1e-3 * np.sign(c.shape[1] - c.shape[0])
                u, v = u.copy(), v.copy()
                u[rows[0]] -= d
                v[cols[0]] += d
            elif c.shape[0] > c.shape[1]:  # the longer side's unmatched lines
                u = u - np.isin(np.arange(c.shape[0]), rows, invert=True)
            else:
                v = v - np.isin(np.arange(c.shape[1]), cols, invert=True)
            return rows, cols, u, v

        lexmin = matching._lexmin_pairs
        checked = []

        def all_viable(c, rows, cols, viable):
            checked.append(c.shape)
            assert viable.all(), c.tolist()
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
            rows, cols, u, v = matching.linear_sum_assignment(costs)
            reduced = costs - u[:, None] - v[None, :]
            assert reduced.min() >= -1e-9 and np.abs(reduced[rows, cols]).max() <= 1e-9
            assert rows.tolist() == sorted(set(rows.tolist()))
            assert len(set(cols.tolist())) == len(rows) == min(shape)
            want_rows, want_cols = linear_sum_assignment(costs)
            optimum = math.fsum(costs[want_rows, want_cols])
            assert math.fsum(costs[rows, cols]) == pytest.approx(optimum, rel=1e-12, abs=0)
            assert hungarian(costs).total_cost == pytest.approx(optimum, rel=1e-12, abs=0)


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
        # float operations, against the matrix built from `overlaps`
        rng = random.Random(31)
        for trial in range(40):
            side = rng.choice((8, 40, 128))
            pool = [rasterize(Polygon(random_star_polygon(rng, side, side)), side, side) for _ in range(12)]
            pool += [random_mask(rng, side, side, density=0.3), RasterMask.zeros(side, side)]
            preds = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
            gts = [rng.choice(pool) for _ in range(rng.randint(0, 20))]
            w_iou = rng.choice((0.0, 1.0, 0.7, 2.5))
            w_dice = rng.choice((0.0, 1.0, 0.3, 1 / 3))
            want = np.zeros((len(preds), len(gts)))
            for i, p in enumerate(preds):
                for j, g in enumerate(gts):
                    inter, union = overlap(p, g)
                    c = w_iou * (1.0 - (inter / union if union else 0.0))
                    if w_dice:
                        c += w_dice * (1.0 - (2.0 * inter / (inter + union) if union else 0.0))
                    want[i, j] = c
            got = build_cost_matrix(preds, gts, w_iou, w_dice)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), trial


class TestOneRowOrColumn:
    """With one prediction or one ground truth exactly one pair is matched:
    the first minimum in row-major order, without the solver."""

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

    def test_matches_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-pair assignment needs no solve")

        for name in ("linear_sum_assignment", "_lexmin_pairs"):
            monkeypatch.setattr(matching, name, refuse)
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
