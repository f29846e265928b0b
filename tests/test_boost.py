"""Forward-stagewise and gradient boosting: hand-traced oracles, loss
monotonicity, the split search, CV selection, and model persistence."""

import gc
import weakref

import numpy as np
import pytest

from batts import (
    BoostConfig,
    DecisionTree,
    EnsembleModel,
    TwoSampleDataset,
    build_cut_grid,
    fit,
    generate,
    make_scenario,
    predict_log_ratio,
)
from batts.boost import _boost, _cells, _fit_boost, _fold, _Grower, cv_loss_curve
from batts.data import CutGrid
from batts.loss import finite_sample_loss, optimal_leaf_value, rebalance, row_masses
from oracles import hellinger_split_score, leaf_memberships


class TestConfig:
    def test_defaults(self):
        c = BoostConfig()
        assert (c.algorithm, c.max_trees, c.max_depth) == ("gb", 1000, 4)
        assert (c.learning_rate, c.cv_folds, c.min_leaf_total) == (0.01, 5, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "xgb"},
            {"max_trees": 0},
            {"max_trees": -2},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"max_depth": 0},
            {"cv_folds": 1},
            {"min_leaf_total": 0},
            {"max_trees": 10.0},
            {"max_depth": 2.5},
            {"cv_folds": 2.5},
            {"min_leaf_total": 5.5},
            {"seed": 2.5},
            {"seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BoostConfig(**kwargs)


class TestSingleStepOracle:
    def test_four_point_hand_trace(self):
        """One boosting step on 2 points per group separable by one cut:
        the fitted leaf contributions equal nu * optimal leaf values."""
        data = TwoSampleDataset(
            np.array([[0.0], [1.0]]),
            np.array([[3.0], [4.0]]),
        )
        # A single interior cut at x0 = 2 separates the groups, but a
        # one-group child is refused, so the root stays a leaf with beta 0
        # and only the rebalance offset remains (which is 0 by symmetry).
        grid = build_cut_grid(data, 1)
        config = BoostConfig(algorithm="fs", max_trees=1, min_leaf_total=1,
                             learning_rate=0.1)
        model = _fit_boost(data, grid, config, 1)
        assert model.trees[0].n_leaves() == 1
        assert model.offset == pytest.approx(0.0)

    def test_mixed_leaves_get_nu_scaled_optimum(self):
        data = TwoSampleDataset(
            np.array([[0.0], [1.0], [3.0], [3.5]]),
            np.array([[0.5], [0.8], [4.0], [4.5]]),
        )
        grid = build_cut_grid(data, 3)
        nu = 0.1
        config = BoostConfig(algorithm="fs", max_trees=1, max_depth=1,
                             min_leaf_total=1, learning_rate=nu)
        model = _fit_boost(data, grid, config, 1)
        tree = model.trees[0]
        assert tree.n_leaves() == 2
        # left of the chosen cut: 2 group-0 and 2 group-1 points on each side
        left0 = data.sample0.ravel() <= tree.root.threshold
        left1 = data.sample1.ravel() <= tree.root.threshold
        for leaf, m0, m1 in (
            (tree.root.left, left0.sum() / 4, left1.sum() / 4),
            (tree.root.right, (~left0).sum() / 4, (~left1).sum() / 4),
        ):
            assert leaf.beta == pytest.approx(optimal_leaf_value(m0, m1))
        # the model applies the learning rate at prediction time
        x = np.array([[0.0]])
        expected = 2 * (model.offset + nu * tree.root.left.beta)
        assert predict_log_ratio(model, x)[0] == pytest.approx(expected)


def _row_grower(b0, b1, cuts, min_leaf, algorithm, max_depth=4):
    """A _Grower of one member whose cells each hold one row."""
    return _Grower([(b0, np.ones(b0.shape[0]), b1, np.ones(b1.shape[0]))], cuts,
                   max_depth, min_leaf, algorithm)


def _level_search(grower, m0, m1, live0, slot0, live1, slot1, nodes, root=False):
    """grower.search on one depth's live cells of each group, put on the
    grower's one stack: each node's (dim, cut), or None where the node has no
    valid split. With root, the search takes the root's row counts that the
    grower keeps."""
    live = np.concatenate([live0, live1 + m0.size])
    slot = np.concatenate([slot0, slot1])
    w = np.concatenate([m0, m1])[live]
    dim, cut = grower.search(live, slot, w, np.bincount(slot0, m0[live0], nodes),
                             np.bincount(slot1, m1[live1], nodes), nodes, root)
    return [None if d < 0 else (d, c) for d, c in zip(dim.tolist(), cut.tolist())]


def _one_node_search(grower, m0, m1, idx0, idx1, root=False):
    """The level search with one live node, holding cells idx0 and idx1."""
    zero0, zero1 = np.zeros(idx0.size, np.intp), np.zeros(idx1.size, np.intp)
    return _level_search(grower, m0, m1, idx0, zero0, idx1, zero1, 1, root)[0]


class TestSplitSearch:
    @staticmethod
    def _brute_force(b0, b1, m0, m1, res0, res1, n_cuts, min_leaf):
        best, best_score = None, np.inf
        n0, n1 = b0.shape[0], b1.shape[0]
        for dim in range(b0.shape[1]):
            for j in range(n_cuts):
                l0 = b0[:, dim] <= j
                l1 = b1[:, dim] <= j
                lc0, lc1 = l0.sum(), l1.sum()
                rc0, rc1 = n0 - lc0, n1 - lc1
                if min(lc0, lc1, rc0, rc1) < 1:
                    continue
                if lc0 + lc1 < min_leaf or rc0 + rc1 < min_leaf:
                    continue
                if res0 is not None:
                    r = np.concatenate([res0, res1])
                    lab = np.concatenate([l0, l1])
                    score = -(r[lab].sum() ** 2 / lab.sum()
                              + r[~lab].sum() ** 2 / (~lab).sum())
                else:
                    score = (np.sqrt(m0[l0].sum() * m1[l1].sum())
                             + np.sqrt(m0[~l0].sum() * m1[~l1].sum()))
                if score < best_score - 1e-14:
                    best_score = score
                    best = (dim, j)
        return best

    @pytest.mark.parametrize("gb", [False, True])
    def test_matches_brute_force(self, gb, rng):
        for _ in range(15):
            n0 = int(rng.integers(30, 70))
            n1 = int(rng.integers(30, 70))
            data = TwoSampleDataset(
                rng.standard_normal((n0, 2)),
                rng.standard_normal((n1, 2)) + 0.4,
            )
            grid = build_cut_grid(data, 7)
            b0 = grid.bin_indices(data.sample0)
            b1 = grid.bin_indices(data.sample1)
            m0 = rng.uniform(0.5, 2.0, n0) / n0
            m1 = rng.uniform(0.5, 2.0, n1) / n1
            res0 = m0 if gb else None
            res1 = -m1 if gb else None
            grower = _row_grower(b0, b1, grid.cuts, 5, "gb" if gb else "fs")
            got = _one_node_search(grower, m0, m1, np.arange(n0), np.arange(n1))
            want = self._brute_force(b0, b1, m0, m1, res0, res1, 7, 5)
            assert got == want
            assert _one_node_search(grower, m0, m1, np.arange(n0), np.arange(n1),
                                    root=True) == want

    @staticmethod
    def _oracle(x0, x1, cuts, m0, m1, res0, res1, min_leaf):
        """The first (dim, cut), in dimension then cut order, minimizing the
        split score over all valid candidates, each computed from scratch on
        float routing: hellinger_split_score for fs, and for gb the pooled
        within-child sum of squares of the residuals. None if no candidate
        is valid."""
        scores = {}
        for dim, c in enumerate(cuts):
            for j, t in enumerate(c):
                l0, l1 = x0[:, dim] <= t, x1[:, dim] <= t
                if min(l0.sum(), l1.sum(), (~l0).sum(), (~l1).sum()) < 1:
                    continue
                if l0.sum() + l1.sum() < min_leaf or (~l0).sum() + (~l1).sum() < min_leaf:
                    continue
                if res0 is None:
                    scores[dim, j] = hellinger_split_score(
                        m0[l0].sum(), m1[l1].sum(), m0[~l0].sum(), m1[~l1].sum())
                else:
                    r = np.concatenate([res0, res1])
                    lab = np.concatenate([l0, l1])
                    scores[dim, j] = (((r[lab] - r[lab].mean()) ** 2).sum()
                                      + ((r[~lab] - r[~lab].mean()) ** 2).sum())
        if not scores:
            return None
        low = min(scores.values())
        # distinct partitions score far apart here; equal partitions tie exactly
        return next(k for k, v in scores.items() if v <= low + 1e-12 * abs(low))

    @pytest.mark.parametrize("gb", [False, True])
    def test_oracle_argmin_uneven_cuts_and_tie(self, gb):
        """Three dimensions with 5, 11 and 5 cuts, at an interior node (a
        random subset of rows). Dimension 2 copies dimension 0 and its cuts,
        so each cut of dimension 0 ties exactly with the same cut of
        dimension 2; dimension 0 carries the shift, so the tie is at the
        optimum and the first dimension must win it."""
        gen = np.random.default_rng(17)
        cuts = (np.linspace(-1.5, 1.5, 5), np.linspace(-2.0, 2.0, 11),
                np.linspace(-1.5, 1.5, 5))
        grid = CutGrid(cuts)
        tie_won = 0
        for _ in range(12):
            n0, n1 = int(gen.integers(60, 120)), int(gen.integers(60, 120))
            s0 = gen.standard_normal((n0, 3))
            s1 = gen.standard_normal((n1, 3)) + [0.8, 0.3, 0.0]
            s0[:, 2], s1[:, 2] = s0[:, 0], s1[:, 0]
            m0 = gen.uniform(0.5, 2.0, n0) / n0
            m1 = gen.uniform(0.5, 2.0, n1) / n1
            idx0 = np.sort(gen.choice(n0, size=n0 * 3 // 4, replace=False))
            idx1 = np.sort(gen.choice(n1, size=n1 * 3 // 4, replace=False))
            grower = _row_grower(grid.bin_indices(s0), grid.bin_indices(s1), cuts, 5,
                                 "gb" if gb else "fs")
            got = _one_node_search(grower, m0, m1, idx0, idx1)
            r0, r1 = (m0[idx0], -m1[idx1]) if gb else (None, None)
            want = self._oracle(s0[idx0], s1[idx1], cuts, m0[idx0], m1[idx1], r0, r1, 5)
            assert got == want
            tie_won += want[0] == 0
        assert tie_won >= 6

    @pytest.mark.parametrize("gb", [False, True])
    def test_cells_with_counts_match_rows(self, gb, rng):
        """Split search fed each group's deduplicated cells, with their row
        counts and summed row masses, picks the (dim, cut) that the brute
        force and the float oracle pick on the rows: at the root, and at an
        interior node made of a random subset of cells. A min_leaf_total
        above the cell count makes the refusals count rows. With unit0,
        group 0 keeps one row of each cell it occupies, so its cells each
        hold one row beside group 1's cells of several, and the one count
        histogram weights both groups."""
        for unit0, min_leaf in ((False, 5), (False, 40), (True, 5), (True, 40)):
            for _ in range(8):
                n0 = int(rng.integers(60, 120))
                n1 = int(rng.integers(60, 120))
                data = TwoSampleDataset(rng.standard_normal((n0, 2)),
                                        rng.standard_normal((n1, 2)) + 0.4)
                grid = build_cut_grid(data, 5)
                if unit0:
                    first = grid.cells(grid.bin_indices(data.sample0))[1]
                    data = TwoSampleDataset(data.sample0[first], data.sample1)
                    n0 = data.n0
                b0 = grid.bin_indices(data.sample0)
                b1 = grid.bin_indices(data.sample1)
                m0 = rng.uniform(0.5, 2.0, n0) / n0
                m1 = rng.uniform(0.5, 2.0, n1) / n1
                res0 = m0 if gb else None
                res1 = -m1 if gb else None
                cb0, _, inv0 = grid.cells(b0)
                cb1, _, inv1 = grid.cells(b1)
                assert cb0.shape[0] == n0 if unit0 else cb0.shape[0] < n0 // 2
                assert cb1.shape[0] < n1 // 2
                grower = _Grower([(cb0, np.bincount(inv0).astype(float),
                                   cb1, np.bincount(inv1).astype(float))],
                                 grid.cuts, 4, min_leaf, "gb" if gb else "fs")
                cm0 = np.bincount(inv0, weights=m0)
                cm1 = np.bincount(inv1, weights=m1)
                want = self._brute_force(b0, b1, m0, m1, res0, res1, 5, min_leaf)
                for root in (False, True):
                    assert _one_node_search(grower, cm0, cm1, np.arange(cb0.shape[0]),
                                            np.arange(cb1.shape[0]), root) == want

                cells0 = np.sort(rng.choice(cb0.shape[0], cb0.shape[0] * 3 // 4, replace=False))
                cells1 = np.sort(rng.choice(cb1.shape[0], cb1.shape[0] * 3 // 4, replace=False))
                rows0 = np.isin(inv0, cells0)
                rows1 = np.isin(inv1, cells1)
                r0, r1 = (m0[rows0], -m1[rows1]) if gb else (None, None)
                want = self._oracle(data.sample0[rows0], data.sample1[rows1], grid.cuts,
                                    m0[rows0], m1[rows1], r0, r1, min_leaf)
                assert _one_node_search(grower, cm0, cm1, cells0, cells1) == want

    @pytest.mark.parametrize("gb", [False, True])
    def test_several_live_nodes_match_the_oracle(self, gb):
        """One level search over four live nodes, made of random disjoint
        row subsets with some rows in no node: each node's pick is the
        oracle's on that node's rows alone, and node 3, whose three rows
        cannot fill two children of min_leaf_total, has no valid split."""
        gen = np.random.default_rng(23)
        cuts = (np.linspace(-1.5, 1.5, 5), np.linspace(-2.0, 2.0, 11),
                np.linspace(-1.0, 1.0, 3))
        grid = CutGrid(cuts)
        for _ in range(6):
            n0, n1 = int(gen.integers(200, 300)), int(gen.integers(200, 300))
            s0 = gen.standard_normal((n0, 3))
            s1 = gen.standard_normal((n1, 3)) + [0.6, -0.4, 0.2]
            m0 = gen.uniform(0.5, 2.0, n0) / n0
            m1 = gen.uniform(0.5, 2.0, n1) / n1
            # each row's node; -1 is a row of no live node
            node0 = gen.integers(-1, 3, n0)
            node1 = gen.integers(-1, 3, n1)
            node0[:2] = node1[0] = 3
            live0, live1 = np.flatnonzero(node0 >= 0), np.flatnonzero(node1 >= 0)
            grower = _row_grower(grid.bin_indices(s0), grid.bin_indices(s1), cuts, 5,
                                 "gb" if gb else "fs")
            got = _level_search(grower, m0, m1, live0, node0[live0], live1, node1[live1], 4)
            for node in range(3):
                r0, r1 = node0 == node, node1 == node
                res = (m0[r0], -m1[r1]) if gb else (None, None)
                assert got[node] == self._oracle(s0[r0], s1[r1], cuts, m0[r0], m1[r1],
                                                 *res, 5)
            assert got[3] is None

    def test_every_cut_of_a_long_grid_is_searched(self):
        """On a 1-D grid of 40 cuts, the best root split is past the 31st cut
        (the old CutGrid.count_per_dim default, where the search used to
        stop) and fs must find it."""
        gen = np.random.default_rng(4)
        s0 = gen.uniform(0.0, 1.0, (400, 1))
        s1 = np.concatenate([gen.uniform(0.0, 0.9, (280, 1)),
                             gen.uniform(0.9, 1.0, (120, 1))])
        data = TwoSampleDataset(s0, s1)
        cuts = np.arange(1, 41) / 41
        grid = CutGrid((cuts,))
        model = _fit_boost(data, grid, BoostConfig(algorithm="fs", max_trees=1,
                                                   max_depth=1), 1)
        m0 = np.full(400, 1 / 400)
        best = self._oracle(s0, s1, grid.cuts, m0, m0, None, None, 5)
        assert best[1] >= 31
        assert model.trees[0].root.threshold == cuts[best[1]]

    def test_signal_dimension_chosen_at_root(self):
        """A pure-noise dimension is essentially never selected when the
        other dimension carries all the separation (checked over 20 seeds)."""
        hits = 0
        for seed in range(20):
            gen = np.random.default_rng(seed)
            n = 5000
            s0 = np.column_stack([gen.standard_normal(n) - 1.0,
                                  gen.standard_normal(n)])
            s1 = np.column_stack([gen.standard_normal(n) + 1.0,
                                  gen.standard_normal(n)])
            data = TwoSampleDataset(s0, s1)
            grid = build_cut_grid(data, 15)
            model = _fit_boost(data, grid,
                               BoostConfig(algorithm="gb", max_trees=1), 1)
            if model.trees[0].root.dim == 0:
                hits += 1
        assert hits >= 18

    def test_one_group_children_refused(self, shifted_2d):
        """Every leaf of every fitted tree contains observations from both
        groups."""
        data, grid = shifted_2d
        model = _fit_boost(data, grid, BoostConfig(algorithm="fs",
                                                   max_trees=20), 20)
        for tree in model.trees:
            for idx0, idx1 in zip(leaf_memberships(tree, data.sample0),
                                  leaf_memberships(tree, data.sample1)):
                assert idx0.size >= 1 and idx1.size >= 1
                assert idx0.size + idx1.size >= 5

    def test_max_depth_respected(self, shifted_2d):
        data, grid = shifted_2d
        model = _fit_boost(data, grid,
                           BoostConfig(algorithm="gb", max_trees=10,
                                       max_depth=2), 10)
        assert max(t.max_depth() for t in model.trees) <= 2


class TestTrainingBehaviour:
    @pytest.mark.parametrize("algo", ["fs", "gb"])
    def test_loss_non_increasing(self, algo, shifted_2d):
        data, grid = shifted_2d
        model = _fit_boost(data, grid, BoostConfig(algorithm=algo,
                                                   max_trees=60), 60)
        path = model.train_loss_path
        assert path[0] == 2.0
        assert np.all(np.diff(path) <= 1e-12)

    @pytest.mark.parametrize("algo", ["fs", "gb"])
    def test_one_tree_loss_is_leaf_affinity(self, algo, shifted_2d):
        """With nu = 1, one tree's loss before rebalancing equals
        sum over leaves of 2 sqrt(P_A Q_A); since sum P = sum Q = 1, the
        tree lowers the loss from 2 by sum (sqrt(P_A) - sqrt(Q_A))^2. Leaf
        masses come from float routing of the raw samples while the betas
        were fitted on bin routing, so the identity also pins the two
        routings to the same partition."""
        data, grid = shifted_2d
        model = _fit_boost(data, grid, BoostConfig(algorithm=algo, max_trees=1,
                                                   learning_rate=1.0), 1)
        tree = model.trees[0]
        assert tree.n_leaves() > 1
        P = np.array([i.size for i in leaf_memberships(tree, data.sample0)]) / data.n0
        Q = np.array([i.size for i in leaf_memberships(tree, data.sample1)]) / data.n1
        before = finite_sample_loss(tree.evaluate_many(data.sample0),
                                    tree.evaluate_many(data.sample1))
        assert before == pytest.approx(2 * np.sum(np.sqrt(P * Q)), rel=1e-12)
        # at the leaf optima both loss terms already equal sum sqrt(P Q), so
        # the rebalance step is a no-op
        assert model.offset == pytest.approx(0.0, abs=1e-12)
        assert model.train_loss_path[1] == pytest.approx(before, rel=1e-12)

    def test_null_case_stays_near_zero(self, null_2d):
        data, grid = null_2d
        model = _fit_boost(data, grid, BoostConfig(algorithm="fs",
                                                   max_trees=40), 40)
        est = predict_log_ratio(model, data.pooled())
        assert np.max(np.abs(est)) < 1.0
        assert np.quantile(np.abs(est), 0.95) < 0.4

    def test_uniform_ratio_recovered(self):
        """P uniform on [0,1], Q uniform on [0,2]: w^2 should be about 2 on
        the shared support."""
        gen = np.random.default_rng(12)
        data = TwoSampleDataset(gen.uniform(0, 1, (5000, 1)),
                                gen.uniform(0, 2, (5000, 1)))
        grid = build_cut_grid(data, 15)
        model = _fit_boost(data, grid, BoostConfig(algorithm="fs",
                                                   max_trees=400), 400)
        # stay clear of x = 1: splits isolating Q's exclusive tail make a
        # one-group child and are refused, so the cell straddling the support
        # boundary blends both regimes
        pts = np.linspace(0.1, 0.85, 8).reshape(-1, 1)
        ratio = np.exp(predict_log_ratio(model, pts))
        assert np.all(ratio > 1.5) and np.all(ratio < 2.5)
        # beyond Q's exclusive support the estimate must drop well below 1
        tail = np.exp(predict_log_ratio(model, np.array([[1.7]])))
        assert tail[0] < 0.5

    def test_fs_and_gb_agree(self):
        """The two algorithms produce similar estimates on a global shift."""
        gen = np.random.default_rng(21)
        n = 2000
        data = TwoSampleDataset(gen.standard_normal((n, 2)) - 0.5,
                                gen.standard_normal((n, 2)) + 0.5)
        grid = build_cut_grid(data, 31)
        k = 150
        fs = _fit_boost(data, grid, BoostConfig(algorithm="fs", max_trees=k), k)
        gb = _fit_boost(data, grid, BoostConfig(algorithm="gb", max_trees=k), k)
        X = data.pooled()
        diff = predict_log_ratio(fs, X) - predict_log_ratio(gb, X)
        mse = 0.5 * np.mean(diff[:n] ** 2) + 0.5 * np.mean(diff[n:] ** 2)
        assert mse < 0.05

    def test_determinism(self, shifted_2d):
        data, grid = shifted_2d
        config = BoostConfig(algorithm="gb", max_trees=25, seed=3)
        a = _fit_boost(data, grid, config, 25)
        b = _fit_boost(data, grid, config, 25)
        assert a.offset == b.offset
        X = data.pooled()
        np.testing.assert_array_equal(predict_log_ratio(a, X),
                                      predict_log_ratio(b, X))
        assert [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]


class TestCellFit:
    """_fit_boost grows its trees over each group's occupied grid cells."""

    @staticmethod
    def _row_fit(data, grid, config, n_trees):
        """The boosting loop on rows: one log w per row, and a grower given
        no counts."""
        grower = _row_grower(grid.bin_indices(data.sample0), grid.bin_indices(data.sample1),
                             grid.cuts, config.min_leaf_total, config.algorithm,
                             config.max_depth)
        logw0, logw1 = np.zeros(data.n0), np.zeros(data.n1)
        trees, offset, losses = [], 0.0, [2.0]
        for _ in range(n_trees):
            [(tree, c0, c1)] = grower.grow(np.concatenate(row_masses(logw0, logw1)))
            logw0 += config.learning_rate * c0
            logw1 += config.learning_rate * c1
            log_c, loss = rebalance(logw0, logw1)
            logw0 += log_c
            logw1 += log_c
            trees.append(tree)
            offset += log_c
            losses.append(loss)
        return trees, offset, np.array(losses)

    @staticmethod
    def _assert_same_fit(trees, offset, losses, model):
        assert len(trees) == len(model.trees)
        for want, got in zip(trees, model.trees):
            np.testing.assert_array_equal(got.feature, want.feature)
            np.testing.assert_array_equal(got.right, want.right)
            np.testing.assert_allclose(got.value, want.value, rtol=0, atol=1e-12)
        assert abs(model.offset - offset) <= 1e-12
        np.testing.assert_allclose(model.train_loss_path, losses, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("algo", ["fs", "gb"])
    def test_cells_match_rows(self, algo):
        """On a coarse grid, where cells hold up to dozens of rows, the fit
        on cells equals the boosting loop on rows."""
        gen = np.random.default_rng(9)
        data = TwoSampleDataset(gen.standard_normal((500, 2)) - 0.4,
                                gen.standard_normal((300, 2)) + 0.4)
        grid = build_cut_grid(data, 7)
        counts = np.bincount(grid.cells(grid.bin_indices(data.sample0))[2])
        assert counts.max() >= 20 and counts.min() == 1
        config = BoostConfig(algorithm=algo, max_trees=40, min_leaf_total=20)
        model = _fit_boost(data, grid, config, 40)
        self._assert_same_fit(*self._row_fit(data, grid, config, 40), model)

    @pytest.mark.parametrize("algo", ["fs", "gb"])
    def test_duplicating_every_row_changes_nothing(self, algo, shifted_2d):
        """Two copies of every row of both samples double every cell count,
        which leaves the masses, and so a min_leaf_total=1 fit, unchanged."""
        data, grid = shifted_2d
        twice = TwoSampleDataset(np.repeat(data.sample0, 2, axis=0),
                                 np.repeat(data.sample1, 2, axis=0))
        config = BoostConfig(algorithm=algo, max_trees=30, min_leaf_total=1)
        once = _fit_boost(data, grid, config, 30)
        self._assert_same_fit(once.trees, once.offset, once.train_loss_path,
                              _fit_boost(twice, grid, config, 30))


class TestLevelGrowth:
    """The grower works one depth at a time; it must grow the trees that a
    depth-first grower, splitting one node at a time, grows."""

    @staticmethod
    def _grow_depth_first(keys0, keys1, counts0, counts1, m0, m1, cuts, config):
        """Depth-first reference grower on cells: each node's histograms come
        from its own cells, and its left subtree is grown before its right."""
        d, width = len(cuts), max(len(c) for c in cuts) + 1
        feature, right, value = [], [], []
        contrib0, contrib1 = np.empty(m0.size), np.empty(m1.size)

        def left_totals(keys, w):
            hist = np.bincount(keys.ravel(), weights=np.repeat(w, d), minlength=d * width)
            return np.cumsum(hist.reshape(d, width), axis=1)[:, :-1]

        def best_split(i0, i1):
            lc0, lc1 = left_totals(keys0[i0], counts0[i0]), left_totals(keys1[i1], counts1[i1])
            rc0, rc1 = counts0[i0].sum() - lc0, counts1[i1].sum() - lc1
            valid = ((np.minimum(np.minimum(lc0, lc1), np.minimum(rc0, rc1)) >= 1)
                     & (lc0 + lc1 >= config.min_leaf_total)
                     & (rc0 + rc1 >= config.min_leaf_total))
            if not valid.any():
                return None
            lp, lq = left_totals(keys0[i0], m0[i0]), left_totals(keys1[i1], m1[i1])
            p, q = m0[i0].sum(), m1[i1].sum()
            with np.errstate(divide="ignore", invalid="ignore"):
                if config.algorithm == "gb":
                    score = -((lp - lq) ** 2 / (lc0 + lc1)
                              + (p - q - lp + lq) ** 2 / (rc0 + rc1))
                else:
                    score = (np.sqrt(lp * lq)
                             + np.sqrt(np.maximum(p - lp, 0) * np.maximum(q - lq, 0)))
            return divmod(int(np.argmin(np.where(valid, score, np.inf))), width - 1)

        def grow(i0, i1, depth):
            at = len(feature)
            right.append(-1)
            best = best_split(i0, i1) if depth < config.max_depth else None
            if best is None:
                beta = optimal_leaf_value(m0[i0].sum(), m1[i1].sum())
                contrib0[i0], contrib1[i1] = beta, beta
                feature.append(-1)
                value.append(beta)
                return
            dim, j = best
            feature.append(dim)
            value.append(cuts[dim][j])
            go0, go1 = keys0[i0, dim] <= dim * width + j, keys1[i1, dim] <= dim * width + j
            grow(i0[go0], i1[go1], depth + 1)
            right[at] = len(feature)
            grow(i0[~go0], i1[~go1], depth + 1)

        grow(np.arange(m0.size), np.arange(m1.size), 0)
        return feature, right, value, contrib0, contrib1

    @pytest.mark.parametrize("algo", ["fs", "gb"])
    @pytest.mark.parametrize("min_leaf", [5, 60])
    def test_matches_depth_first_growth(self, algo, min_leaf, shifted_2d):
        """20 trees of _fit_boost against the boosting loop with the
        depth-first grower: equal split structure and thresholds, betas
        within 1e-12. With min_leaf_total 60 some nodes above max_depth
        have no valid split and become leaves."""
        data, grid = shifted_2d
        config = BoostConfig(algorithm=algo, max_trees=20, min_leaf_total=min_leaf)
        model = _fit_boost(data, grid, config, 20)
        cells0, _, inv0 = grid.cells(grid.bin_indices(data.sample0))
        cells1, _, inv1 = grid.cells(grid.bin_indices(data.sample1))
        counts0, counts1 = np.bincount(inv0).astype(float), np.bincount(inv1).astype(float)
        width = max(len(c) for c in grid.cuts) + 1
        offsets = np.arange(grid.dim) * width
        logw0, logw1 = np.zeros(counts0.size), np.zeros(counts1.size)
        early_leaves = 0
        for got in model.trees:
            m0, m1 = row_masses(logw0, logw1, counts0, counts1)
            feature, right, value, c0, c1 = self._grow_depth_first(
                cells0 + offsets, cells1 + offsets, counts0, counts1, m0, m1, grid.cuts, config)
            np.testing.assert_array_equal(got.feature, feature)
            np.testing.assert_array_equal(got.right, right)
            np.testing.assert_allclose(got.value, value, rtol=0, atol=1e-12)
            early_leaves += got.n_leaves() < 2 ** config.max_depth
            logw0 += config.learning_rate * c0
            logw1 += config.learning_rate * c1
            log_c, _ = rebalance(logw0, logw1, counts0, counts1)
            logw0 += log_c
            logw1 += log_c
        assert counts0.max() > 1 and counts1.max() > 1
        if min_leaf == 60:
            assert early_leaves == 20


class TestCrossValidation:
    def test_curve_shape_and_selection(self, shifted_2d):
        data, grid = shifted_2d
        config = BoostConfig(algorithm="gb", max_trees=30, cv_folds=3, seed=1)
        curve = cv_loss_curve(data, grid, config)
        assert curve.shape == (31,)
        assert curve[0] == pytest.approx(2.0)
        k = int(np.argmin(cv_loss_curve(data, grid, config)))
        assert 0 <= k <= 30
        assert curve[k] == curve.min()

    def test_separated_data_selects_positive_k(self, shifted_2d):
        data, grid = shifted_2d
        k = np.argmin(cv_loss_curve(
            data, grid, BoostConfig(algorithm="fs", max_trees=30,
                                    cv_folds=3, seed=2)))
        assert k >= 1

    def test_fit_with_selection(self, shifted_2d):
        data, grid = shifted_2d
        config = BoostConfig(algorithm="gb", max_trees=30, cv_folds=3, seed=1)
        model = fit(data, grid, config, select=True)
        assert len(model.trees) == np.argmin(cv_loss_curve(data, grid, config))

    def test_curve_equals_row_by_row_held_out_curve(self, shifted_2d):
        """Each fold refit on its own rows, with every training and held-out
        row routed through each tree and the rebalance shift taken over the
        training rows: the curve agrees within 1e-12, since the shared cell
        map of cv_loss_curve reorders float sums."""
        data, grid = shifted_2d
        config = BoostConfig(algorithm="gb", max_trees=25, cv_folds=3, seed=4)
        nu = config.learning_rate
        gen = np.random.default_rng(config.seed)
        folds0 = np.array_split(gen.permutation(data.n0), 3)
        folds1 = np.array_split(gen.permutation(data.n1), 3)
        curves = []
        for f in range(3):
            ho0 = np.isin(np.arange(data.n0), folds0[f])
            ho1 = np.isin(np.arange(data.n1), folds1[f])
            X0h, X1h = data.sample0[ho0], data.sample1[ho1]
            held = np.vstack([X0h, X1h])
            assert grid.cells(grid.bin_indices(held))[0].shape[0] < held.shape[0]
            train = TwoSampleDataset(data.sample0[~ho0], data.sample1[~ho1])
            t0, t1 = np.zeros(train.n0), np.zeros(train.n1)
            h0, h1 = np.zeros(X0h.shape[0]), np.zeros(X1h.shape[0])
            curve = [2.0]
            for tree in _fit_boost(train, grid, config, 25).trees:
                t0 += nu * tree.evaluate_many(train.sample0)
                t1 += nu * tree.evaluate_many(train.sample1)
                log_c, _ = rebalance(t0, t1)
                t0 += log_c
                t1 += log_c
                h0 += nu * tree.evaluate_many(X0h) + log_c
                h1 += nu * tree.evaluate_many(X1h) + log_c
                curve.append(finite_sample_loss(h0, h1))
            curves.append(curve)
        np.testing.assert_allclose(cv_loss_curve(data, grid, config),
                                   np.array(curves).mean(axis=0), rtol=0, atol=1e-12)

    def test_bins_each_group_once_and_routes_no_rows(self, shifted_2d, monkeypatch):
        """The folds share one cell map of each group, and the held-out
        loss needs no routing of held-out rows."""
        data, grid = shifted_2d
        calls = []
        for owner, name in ((CutGrid, "bin_indices"), (DecisionTree, "evaluate_many")):
            def counted(*args, _raw=getattr(owner, name), _name=name):
                calls.append(_name)
                return _raw(*args)
            monkeypatch.setattr(owner, name, counted)
        cv_loss_curve(data, grid, BoostConfig(max_trees=5, cv_folds=3))
        assert calls == ["bin_indices", "bin_indices"]

    @staticmethod
    def _folds(data, grid, config):
        """Per fold, as cv_loss_curve builds them: the held-out row masks,
        the fold's member for _boost (its cells of the full sample's cell
        map, with their training counts) and its held-out counts."""
        gen = np.random.default_rng(config.seed)
        folds0 = np.array_split(gen.permutation(data.n0), config.cv_folds)
        folds1 = np.array_split(gen.permutation(data.n1), config.cv_folds)
        bins0, inverse0, counts0 = _cells(grid, data.sample0)
        bins1, inverse1, counts1 = _cells(grid, data.sample1)
        for f in range(config.cv_folds):
            b0, train0, held0 = _fold(bins0, inverse0, counts0, folds0[f])
            b1, train1, held1 = _fold(bins1, inverse1, counts1, folds1[f])
            ho0 = np.isin(np.arange(data.n0), folds0[f])
            ho1 = np.isin(np.arange(data.n1), folds1[f])
            yield ho0, ho1, (b0, train0, b1, train1), (held0, held1)

    @classmethod
    def _fold_runs(cls, data, grid, config):
        """Per fold: the held-out row masks, the fold's member, and the steps
        of _boost on that member alone."""
        for ho0, ho1, member, _ in cls._folds(data, grid, config):
            yield ho0, ho1, member, (step for [step] in _boost(
                [member], grid.cuts, config, config.max_trees))

    def test_20d_folds_equal_fits_on_their_own_rows(self):
        """In 20-D every row is its own cell, so a fold on the shared cell
        map grows, bit for bit, the trees of _fit_boost on the fold's own
        rows."""
        data = generate(make_scenario("LatentLocation20D"), 600, 400, seed=3)
        grid = build_cut_grid(data, 31)
        config = BoostConfig(algorithm="gb", max_trees=20, seed=3)
        for ho0, ho1, _, steps in self._fold_runs(data, grid, config):
            own = _fit_boost(TwoSampleDataset(data.sample0[~ho0], data.sample1[~ho1]),
                             grid, config, config.max_trees)
            offset = 0.0
            for (tree, log_c, *_), want in zip(steps, own.trees, strict=True):
                np.testing.assert_array_equal(tree.feature, want.feature)
                np.testing.assert_array_equal(tree.right, want.right)
                np.testing.assert_array_equal(tree.value, want.value)
                offset += log_c
            assert offset == own.offset

    def test_cells_without_training_rows_get_the_routed_leaf_values(self):
        """Fold 0 of GlobalShift2D 600/400, seed 3, has held-out cells with
        no training rows. Their log w is built from exactly the leaf values
        that evaluate_many gives their first rows."""
        data = generate(make_scenario("GlobalShift2D"), 600, 400, seed=3)
        grid = build_cut_grid(data, 31)
        config = BoostConfig(algorithm="gb", max_trees=20, seed=3)
        ho0, ho1, fold, steps = next(self._fold_runs(data, grid, config))
        lone = 0
        firsts = []
        for X, ho, bins, train in ((data.sample0, ho0, fold[0], fold[1]),
                                   (data.sample1, ho1, fold[2], fold[3])):
            cell_bins, first, inverse = grid.cells(grid.bin_indices(X))
            only_held = np.flatnonzero(np.bincount(inverse[~ho],
                                                   minlength=first.size) == 0)
            n = np.count_nonzero(train)
            np.testing.assert_array_equal(bins[n:], cell_bins[only_held])
            firsts.append((n, X[first[only_held]]))
            lone += only_held.size
        assert lone > 0
        want = [np.zeros(X.shape[0]) for _, X in firsts]
        for tree, log_c, _, *logw in steps:
            for (n, X), w, got in zip(firsts, want, logw):
                w += config.learning_rate * tree.evaluate_many(X)
                w += log_c
                np.testing.assert_array_equal(got[n:], w)

    @staticmethod
    def _duplicated_rows(config):
        """The first 6 dimensions of LatentLocation20D 600/400, seed 3, where
        no two rows share a cell of 31 cuts per dimension, with 100 rows of
        group 0 added again at the end. Each added row repeats a row that
        config's fold 1 holds out, so fold 1's training cells each hold one
        row, while the other folds train on cells of two rows."""
        data = generate(make_scenario("LatentLocation20D"), 600, 400, seed=3)
        s0, s1 = data.sample0[:, :6], data.sample1[:, :6]
        held = np.array_split(np.random.default_rng(config.seed).permutation(700),
                              config.cv_folds)[1]
        return TwoSampleDataset(np.vstack([s0, s0[held[held < 600][:100]]]), s1)

    @pytest.mark.parametrize("case", ["GlobalShift2D", "LatentLocation20D", "duplicated row"])
    def test_batched_folds_equal_lone_runs(self, case):
        """cv_loss_curve boosts its folds as the members of one _boost run.
        Each fold's trees, log_c and log w, step by step, and the curve
        equal, bit for bit, those of _boost on each fold alone: on a 2-D
        sample with cells that only held-out rows occupy, on a 20-D sample
        where every cell holds one row, and on folds with and without cells
        of two rows."""
        config = BoostConfig(algorithm="gb", max_trees=20, seed=3)
        if case == "duplicated row":
            data = self._duplicated_rows(config)
        else:
            data = generate(make_scenario(case), 600, 400, seed=3)
        grid = build_cut_grid(data, 31)
        folds = list(self._folds(data, grid, config))
        if case == "GlobalShift2D":
            assert all((member[1] == 0).any() for _, _, member, _ in folds)
        if case == "duplicated row":
            assert [member[1].max() for _, _, member, _ in folds] == [2, 1, 2, 2, 2]
        batched = [[(tree, log_c, loss, w0.copy(), w1.copy())
                    for tree, log_c, loss, w0, w1 in step]
                   for step in _boost([member for _, _, member, _ in folds], grid.cuts,
                                      config, config.max_trees)]
        curves = []
        for f, (_, _, member, (held0, held1)) in enumerate(folds):
            curve, sums = [2.0], [0.0, 0.0]
            for k, [lone] in enumerate(_boost([member], grid.cuts, config, config.max_trees)):
                tree, log_c, loss, w0, w1 = batched[k][f]
                for name in ("feature", "right", "value"):
                    np.testing.assert_array_equal(getattr(tree, name), getattr(lone[0], name))
                assert (log_c, loss) == lone[1:3]
                np.testing.assert_array_equal(w0, lone[3])
                np.testing.assert_array_equal(w1, lone[4])
                sums[0] += log_c
                sums[1] += lone[1]
                curve.append(finite_sample_loss(lone[3], lone[4], held0, held1))
            assert sums[0] == sums[1]
            curves.append(curve)
        np.testing.assert_array_equal(cv_loss_curve(data, grid, config),
                                      np.array(curves).mean(axis=0))

    def test_too_few_observations_for_folds(self):
        data = TwoSampleDataset(np.array([[0.0], [1.0]]),
                                np.array([[0.5], [2.0], [3.0]]))
        grid = build_cut_grid(data, 3)
        with pytest.raises(ValueError, match="cv_folds"):
            cv_loss_curve(data, grid, BoostConfig(cv_folds=5))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, shifted_2d):
        data, grid = shifted_2d
        model = fit(data, grid, BoostConfig(algorithm="gb", max_trees=12), select=False)
        path = tmp_path / "model.json"
        model.save(path)
        clone = EnsembleModel.load(path)
        assert clone.algorithm == "gb"
        assert clone.learning_rate == model.learning_rate
        assert clone.offset == model.offset
        X = data.pooled()
        np.testing.assert_array_equal(predict_log_ratio(model, X),
                                      predict_log_ratio(clone, X))

    def test_entry_points_fit_exactly_max_trees(self, shifted_2d):
        data, grid = shifted_2d
        fs = fit(data, grid, BoostConfig(algorithm="fs", max_trees=7), select=False)
        gb = fit(data, grid, BoostConfig(algorithm="gb", max_trees=7), select=False)
        assert len(fs.trees) == len(gb.trees) == 7
        assert fs.algorithm == "fs" and gb.algorithm == "gb"

    def test_prediction_holds_no_reference_to_points(self, shifted_2d):
        """With the cycle collector off, the points are freed as soon as the
        caller drops them: routing leaves no reference cycle behind."""
        data, grid = shifted_2d
        model = _fit_boost(data, grid, BoostConfig(max_trees=3), 3)
        gc.disable()
        try:
            points = data.pooled()
            ref = weakref.ref(points)
            predict_log_ratio(model, points)
            del points
            assert ref() is None
        finally:
            gc.enable()

    def test_predict_dimension_check(self, shifted_2d):
        data, grid = shifted_2d
        model = fit(data, grid, BoostConfig(algorithm="gb", max_trees=2), select=False)
        with pytest.raises(ValueError):
            predict_log_ratio(model, np.zeros((3, 5)))
