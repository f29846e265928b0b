"""Tree routing, serialization, and the recursive split prior."""

import json

import numpy as np
import pytest

from batts import DecisionTree, TreePrior, split_probability
from batts.data import CutGrid, TwoSampleDataset, build_cut_grid
from batts.tree import sample_tree_from_prior


def _two_level_tree():
    """Split on dim 0 at 0, then the left child on dim 1 at 0.

    Preorder nodes: 0 root, 1 its left child, 2 and 3 that child's leaves,
    4 the root's right leaf.
    """
    return DecisionTree(feature=[0, 1, -1, -1, -1], right=[4, 3, -1, -1, -1],
                        value=[0.0, 0.0, -2.0, -1.0, 1.0], dim=2)


class TestRouting:
    def test_root_only(self):
        t = DecisionTree([-1], [-1], [0.7], 2)
        assert t.evaluate([3.0, -1.0]) == 0.7

    def test_single_split_boundary_goes_left(self):
        t = DecisionTree.from_dict({"dim": 0, "threshold": 2.0,
                                    "left": {"beta": -1.0}, "right": {"beta": 1.0}}, 2)
        assert t.evaluate([1.5, 0.0]) == -1.0
        assert t.evaluate([2.0, 0.0]) == -1.0  # ties route left
        assert t.evaluate([2.1, 0.0]) == 1.0

    def test_depth2_leaf_interiors(self):
        t = _two_level_tree()
        assert t.evaluate([-1.0, -1.0]) == -2.0
        assert t.evaluate([-1.0, 1.0]) == -1.0
        assert t.evaluate([1.0, 5.0]) == 1.0

    def test_evaluate_many_matches_scalar(self, rng):
        t = _two_level_tree()
        X = rng.standard_normal((100, 2))
        many = t.evaluate_many(X)
        one = np.array([t.evaluate(x) for x in X])
        np.testing.assert_array_equal(many, one)

    def test_leaves_left_to_right(self):
        t = _two_level_tree()
        assert [leaf.beta for leaf in t.leaves()] == [-2.0, -1.0, 1.0]
        assert t.n_leaves() == 3
        assert t.max_depth() == 2

    def test_leaf_memberships_partition(self, rng):
        t = _two_level_tree()
        X = rng.standard_normal((50, 2))
        buckets = t.leaf_memberships(X)
        joined = np.sort(np.concatenate(buckets))
        np.testing.assert_array_equal(joined, np.arange(50))

    def test_route_observations(self, rng):
        t = _two_level_tree()
        data = TwoSampleDataset(rng.standard_normal((30, 2)),
                                rng.standard_normal((20, 2)))
        routed = list(zip(t.leaf_memberships(data.sample0),
                          t.leaf_memberships(data.sample1)))
        assert len(routed) == t.n_leaves()
        assert sum(a.size for a, _ in routed) == 30
        assert sum(b.size for _, b in routed) == 20

    def test_dimension_mismatch(self):
        t = _two_level_tree()
        with pytest.raises(ValueError):
            t.evaluate([1.0])
        with pytest.raises(ValueError):
            t.evaluate_many(np.zeros((4, 3)))


class TestSerialization:
    def test_round_trip(self):
        t = _two_level_tree()
        clone = DecisionTree.from_dict(json.loads(json.dumps(t.to_dict())), 2)
        X = np.random.default_rng(5).standard_normal((64, 2))
        np.testing.assert_array_equal(t.evaluate_many(X), clone.evaluate_many(X))
        assert clone.to_dict() == t.to_dict()

    def test_depths_restored(self):
        clone = DecisionTree.from_dict(_two_level_tree().to_dict(), 2)
        assert [leaf.depth for leaf in clone.leaves()] == [2, 2, 1]


class TestPrior:
    def test_split_probability_formula(self):
        prior = TreePrior(0.95, 2.0)
        assert split_probability(prior, 0) == pytest.approx(0.95)
        assert split_probability(prior, 1) == pytest.approx(0.95 / 4)
        assert split_probability(prior, 3) == pytest.approx(0.95 / 16)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TreePrior(a_T=1.5)
        with pytest.raises(ValueError):
            TreePrior(b_T=-1.0)
        with pytest.raises(ValueError):
            split_probability(TreePrior(), -1)

    def test_sampled_trees_match_root_split_rate(self):
        grid = CutGrid((np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 9)))
        gen = np.random.default_rng(11)
        prior = TreePrior()
        split = sum(
            not sample_tree_from_prior(prior, grid, gen).root.is_leaf
            for _ in range(4000)
        )
        # Binomial(4000, 0.95): three sigmas is about 0.0104
        assert split / 4000 == pytest.approx(0.95, abs=0.011)

    def test_sampled_tree_thresholds_come_from_grid(self):
        grid = CutGrid((np.linspace(0.1, 0.9, 9),))
        gen = np.random.default_rng(3)
        for _ in range(50):
            t = sample_tree_from_prior(TreePrior(), grid, gen)
            stack = [t.root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    assert node.threshold in grid.cuts[node.dim]
                    stack.extend([node.left, node.right])

    def test_max_depth_cap(self):
        grid = CutGrid((np.linspace(0.1, 0.9, 9),))
        gen = np.random.default_rng(9)
        for _ in range(50):
            t = sample_tree_from_prior(TreePrior(0.99, 0.0), grid, gen, max_depth=3)
            assert t.max_depth() <= 3
