"""Forward-stagewise and gradient boosting: hand-traced oracles, loss
monotonicity, the split search, CV selection, and model persistence."""

import gc
import weakref

import numpy as np
import pytest

from batts import (
    BoostConfig,
    EnsembleModel,
    TwoSampleDataset,
    build_cut_grid,
    fit,
    predict_log_ratio,
)
from batts.boost import _Grower, _fit_boost, cv_loss_curve
from batts.data import CutGrid
from batts.loss import finite_sample_loss, hellinger_split_score, optimal_leaf_value


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
            grower = _Grower(b0, b1, grid.cuts, 4, 5, "gb" if gb else "fs")
            grower.m0, grower.m1 = m0, m1
            got = grower._best_split(np.arange(n0), np.arange(n1))
            want = self._brute_force(b0, b1, m0, m1, res0, res1, 7, 5)
            assert got == want

    @staticmethod
    def _oracle(x0, x1, cuts, m0, m1, res0, res1, min_leaf):
        """The first (dim, cut), in dimension then cut order, minimizing the
        split score over all valid candidates, each computed from scratch on
        float routing: hellinger_split_score for fs, and for gb the pooled
        within-child sum of squares of the residuals."""
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
            grower = _Grower(grid.bin_indices(s0), grid.bin_indices(s1), cuts, 4, 5,
                             "gb" if gb else "fs")
            grower.m0, grower.m1 = m0, m1
            got = grower._best_split(idx0, idx1)
            r0, r1 = (m0[idx0], -m1[idx1]) if gb else (None, None)
            want = self._oracle(s0[idx0], s1[idx1], cuts, m0[idx0], m1[idx1], r0, r1, 5)
            assert got == want
            tie_won += want[0] == 0
        assert tie_won >= 6

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
            for idx0, idx1 in zip(tree.leaf_memberships(data.sample0),
                                  tree.leaf_memberships(data.sample1)):
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
        P = np.array([i.size for i in tree.leaf_memberships(data.sample0)]) / data.n0
        Q = np.array([i.size for i in tree.leaf_memberships(data.sample1)]) / data.n1
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
