"""Symmetries of the balancing loss, checked on whole fits.

The loss l_n(w) is the mean of 1/w over group 0 plus the mean of w over
group 1, and the cuts are equally spaced over each pooled range. So swapping
the groups turns w into 1/w, a positive affine map of every coordinate moves
the cuts with the points, and duplicating every row or reordering the rows of
a group leaves every mean as it is. None of these relations needs this
program's output to state, and each holds for the whole fit path at once,
which no oracle re-implements.

CV is left out: its folds draw group 0's permutation first, so a swap or a
reordering changes them.
"""

import functools

import numpy as np
import pytest

from batts import (BoostConfig, GibbsConfig, TwoSampleDataset, build_cut_grid, fit, generate,
                   make_scenario, predict_log_ratio, run_sampler)

SIZES = {"GlobalShift2D": (2000, 2000), "LocalShift2D": (1800, 200),
         "LatentLocation20D": (900, 100)}

# Reordering the rows of a group reorders the sums of the fit, so log r may
# move in its last bits: at most 8.9e-16 was measured over 10 permutations of
# each case. The 20-D gb fit is the exception: 3 of those 10 permutations
# tipped a near-tie split and moved log r by 1.7e-8, since its rows are their
# own cells, whose histogram sums a permutation reorders.
PERMUTATION_TOL = 2e-15
NEAR_TIE_TOL = 1e-7


def _log_ratio(s0, s1, algo, points=None, **config):
    """log r at points (default: the pooled rows) of a 60-tree fit without CV."""
    data = TwoSampleDataset(s0, s1)
    model = fit(data, build_cut_grid(data), BoostConfig(algorithm=algo, max_trees=60, seed=0,
                                                        **config), select=False)
    return predict_log_ratio(model, data.pooled() if points is None else points)


@functools.lru_cache(maxsize=None)
def _case(name, algo):
    """(sample0, sample1, log r at the pooled rows) of a case, fitted once."""
    n0, n1 = SIZES[name]
    data = generate(make_scenario(name), n0, n1, seed=0)
    s0, s1 = np.array(data.sample0), np.array(data.sample1)
    return s0, s1, _log_ratio(s0, s1, algo)


ALL = [(name, algo) for name in SIZES for algo in ("fs", "gb")]


class TestBoosting:
    @pytest.mark.parametrize("name, algo", ALL)
    def test_swapping_the_groups_negates_log_r(self, name, algo):
        s0, s1, log_r = _case(name, algo)
        pooled = np.vstack([s0, s1])
        np.testing.assert_array_equal(_log_ratio(s1, s0, algo, points=pooled), -log_r)

    @pytest.mark.parametrize("name, algo", ALL)
    def test_affine_map_of_every_coordinate_leaves_log_r(self, name, algo):
        s0, s1, log_r = _case(name, algo)
        np.testing.assert_array_equal(_log_ratio(3 * s0 + 1, 3 * s1 + 1, algo), log_r)

    @pytest.mark.parametrize("name, algo", [(name, algo) for name, algo in ALL if "2D" in name])
    def test_duplicating_every_row_leaves_log_r_in_2d(self, name, algo):
        """Duplicates share a cell with their row, so the cells' counts
        double and every mean stays. In 20-D each row is its own cell (the
        bins do not fit one int64 key), so the sums reorder there."""
        s0, s1, _ = _case(name, algo)
        once = _log_ratio(s0, s1, algo, min_leaf_total=1)
        twice = _log_ratio(np.vstack([s0, s0]), np.vstack([s1, s1]), algo,
                           points=np.vstack([s0, s1]), min_leaf_total=1)
        np.testing.assert_array_equal(twice, once)

    @pytest.mark.parametrize("name, algo", ALL)
    def test_permuting_rows_within_a_group_moves_log_r_by_float_reordering(self, name, algo):
        s0, s1, log_r = _case(name, algo)
        tol = NEAR_TIE_TOL if (name, algo) == ("LatentLocation20D", "gb") else PERMUTATION_TOL
        for seed in (1, 2, 3):
            gen = np.random.default_rng(seed)
            p0, p1 = gen.permutation(len(s0)), gen.permutation(len(s1))
            moved = _log_ratio(s0[p0], s1[p1], algo, points=np.vstack([s0, s1]))
            assert np.max(np.abs(moved - log_r)) <= tol


def test_sampler_chain_ignores_evaluation_points():
    """The chain runs on the training cells alone: evaluation points add
    cells that get draws, but no proposal, count or temperature reads them."""
    data = generate(make_scenario("GlobalShift2D"), 1000, 1000, seed=0)
    grid = build_cut_grid(data)
    config = GibbsConfig(n_trees=50, burn_in=110, draws=40, seed=0)
    extra = 2.0 * np.random.default_rng(1).standard_normal((3000, 2))
    alone = run_sampler(data, grid, config)
    joined = run_sampler(data, grid, config, eval_points=np.vstack([data.pooled(), extra]))
    np.testing.assert_array_equal(joined.tau_draws, alone.tau_draws)
    np.testing.assert_array_equal(joined.move_attempts, alone.move_attempts)
    np.testing.assert_array_equal(joined.move_accepts, alone.move_accepts)
    np.testing.assert_array_equal(joined.log_ratio_draws[:, :data.n], alone.log_ratio_draws)
