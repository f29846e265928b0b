"""Sampler oracles: inverse-Gaussian conjugacy, the integrated leaf
likelihood, prior centering, MH bookkeeping, and end-to-end posterior checks."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from batts import (
    GibbsConfig,
    TreePrior,
    TwoSampleDataset,
    build_cut_grid,
    run_sampler,
    summarize,
    update_tau,
)
from batts.data import CutGrid
from batts.gibbs import (
    MoveContext,
    PosteriorDraws,
    SamplerTree,
    _grow_factor,
    _verify_state,
    integrated_leaf_loglik,
    leaf_full_conditional,
    mh_tree_move,
    prior_log_weight_draws,
    sample_inverse_gaussian,
)
from batts.tree import sample_tree_from_prior, split_probability


def _ig_logpdf(x, mu, lam):
    return 0.5 * np.log(lam / (2 * np.pi * x**3)) - lam * (x - mu) ** 2 / (
        2 * mu**2 * x
    )


def _leaf_log_target(x, s0, s1, tau, zeta, lam, even):
    """log of prior(x) * pseudo-likelihood(x), up to the prior normalizer."""
    a = 2 * tau * s0 / zeta
    b = 2 * tau * s1 / (1 - zeta)
    if even:
        a, b = b, a
    return _ig_logpdf(x, 1.0, lam) - a / (2 * x) - b * x / 2


class TestLeafConjugacy:
    def test_posterior_matches_target_density(self, rng):
        """prior x likelihood is proportional to IG(mu', lam'): the log
        difference must be constant in x, for 100 random settings."""
        for _ in range(100):
            s0, s1 = rng.uniform(0.1, 40.0, size=2)
            tau = rng.uniform(0.05, 2.0)
            zeta = rng.uniform(0.2, 0.8)
            lam = rng.uniform(1.0, 2000.0)
            even = bool(rng.integers(2))
            parity = "even" if even else "odd"
            post = leaf_full_conditional(s0, s1, tau, zeta, lam, parity=parity)
            x = rng.uniform(0.3, 3.0, size=8)
            diff = _leaf_log_target(x, s0, s1, tau, zeta, lam, even) - _ig_logpdf(
                x, post.mu_prime, post.lambda_prime
            )
            assert np.ptp(diff) < 1e-8

    def test_posterior_density_by_quadrature(self, rng):
        """Numerically normalized target agrees with the IG(mu', lam') pdf."""
        for _ in range(10):
            s0, s1 = rng.uniform(0.5, 20.0, size=2)
            tau = rng.uniform(0.1, 1.5)
            zeta = rng.uniform(0.3, 0.7)
            lam = rng.uniform(5.0, 500.0)
            post = leaf_full_conditional(s0, s1, tau, zeta, lam)
            # scale by the value at the mode so quad sees an O(1) integrand
            peak = _leaf_log_target(post.mu_prime, s0, s1, tau, zeta, lam, False)
            z, _ = integrate.quad(
                lambda x: np.exp(
                    _leaf_log_target(x, s0, s1, tau, zeta, lam, False) - peak
                ),
                0.0, 30.0, points=[post.mu_prime], limit=200,
                epsabs=1e-14, epsrel=1e-12,
            )
            for x in (0.5, 0.9, 1.0, 1.2, 2.0):
                target = np.exp(
                    _leaf_log_target(x, s0, s1, tau, zeta, lam, False) - peak
                ) / z
                if target < 1e-12:
                    continue
                ig = np.exp(_ig_logpdf(x, post.mu_prime, post.lambda_prime))
                assert ig == pytest.approx(target, rel=1e-6)

    def test_no_data_returns_prior(self):
        post = leaf_full_conditional(0.0, 0.0, 1.0, 0.5, 10.0)
        assert post.mu_prime == pytest.approx(1.0)
        assert post.lambda_prime == pytest.approx(10.0)

    def test_parity_swaps_group_roles(self):
        odd = leaf_full_conditional(3.0, 7.0, 0.8, 0.5, 20.0, parity="odd")
        even = leaf_full_conditional(7.0, 3.0, 0.8, 0.5, 20.0, parity="even")
        assert odd.mu_prime == pytest.approx(even.mu_prime)
        assert odd.lambda_prime == pytest.approx(even.lambda_prime)

    def test_validation(self):
        with pytest.raises(ValueError):
            leaf_full_conditional(-1.0, 1.0, 1.0, 0.5, 10.0)


class TestIntegratedLoglik:
    def test_matches_quadrature(self, rng):
        """The closed-form marginal equals int prior(x) * likelihood(x) dx."""
        for _ in range(10):
            s0, s1 = rng.uniform(0.5, 20.0, size=2)
            tau = rng.uniform(0.1, 1.5)
            zeta = rng.uniform(0.3, 0.7)
            lam = rng.uniform(5.0, 500.0)
            post = leaf_full_conditional(s0, s1, tau, zeta, lam)
            peak = _leaf_log_target(post.mu_prime, s0, s1, tau, zeta, lam, False)
            z, _ = integrate.quad(
                lambda x: np.exp(
                    _leaf_log_target(x, s0, s1, tau, zeta, lam, False) - peak
                ),
                0.0, 30.0, points=[post.mu_prime], limit=200,
                epsabs=1e-14, epsrel=1e-12,
            )
            ll = integrated_leaf_loglik(s0, s1, tau, zeta, lam)
            assert ll == pytest.approx(peak + np.log(z), abs=1e-6)

    def test_no_data_gives_zero(self):
        assert integrated_leaf_loglik(0.0, 0.0, 1.0, 0.5, 10.0) == pytest.approx(0.0)


class TestInverseGaussianSampler:
    def test_moments(self):
        gen = np.random.default_rng(1)
        mu, lam = 1.3, 40.0
        x = sample_inverse_gaussian(np.full(200_000, mu), lam, gen)
        assert np.all(x > 0)
        assert x.mean() == pytest.approx(mu, rel=0.01)
        assert x.var() == pytest.approx(mu**3 / lam, rel=0.05)

    def test_against_scipy_distribution(self):
        gen = np.random.default_rng(2)
        mu, lam = 0.8, 12.0
        x = sample_inverse_gaussian(np.full(40_000, mu), lam, gen)
        # scipy parameterizes IG(mu, lam) as invgauss(mu/lam, scale=lam)
        ks = stats.kstest(x, stats.invgauss(mu / lam, scale=lam).cdf)
        assert ks.pvalue > 0.01

    def test_scalar_and_broadcast(self):
        gen = np.random.default_rng(3)
        assert np.isscalar(sample_inverse_gaussian(1.0, 5.0, gen))
        out = sample_inverse_gaussian(np.ones((4, 3)), np.full(3, 5.0), gen)
        assert out.shape == (4, 3)


class TestPriorCentering:
    def test_log_weight_prior_is_centered(self):
        """K=200, lambda0=5: the prior over log w(x) has mean about 0 and
        variance about 1/lambda0."""
        gen = np.random.default_rng(8)
        draws = prior_log_weight_draws(200, 5.0, 10_000, gen)
        assert abs(draws.mean()) < 0.02
        assert draws.var() == pytest.approx(0.2, rel=0.2)

    def test_odd_tree_count_rejected(self):
        with pytest.raises(ValueError):
            prior_log_weight_draws(3, 5.0, 10, np.random.default_rng(0))


class TestTauUpdate:
    def test_gamma_moments(self):
        logw0, logw1 = np.zeros(30), np.zeros(20)
        n = 50
        a0, b0 = 1.0, 1.0
        shape, rate = a0 + n, b0 + n * 2.0  # unit weights: loss is exactly 2
        gen = np.random.default_rng(4)
        draws = np.array([update_tau(logw0, logw1, a0, b0, gen) for _ in range(40_000)])
        assert draws.mean() == pytest.approx(shape / rate, rel=0.01)
        assert draws.var() == pytest.approx(shape / rate**2, rel=0.05)


class TestGrowFactor:
    def test_matches_split_probability_expression(self):
        prior = TreePrior(0.95, 2.0)
        for d in range(4):
            p_d = split_probability(prior, d)
            p_child = split_probability(prior, d + 1)
            expected = p_d * (1.0 - p_child) ** 2 / (1.0 - p_d)
            assert _grow_factor(prior, d) == pytest.approx(expected)


class TestSamplerTreeBookkeeping:
    def test_grow_then_prune_restores_root(self):
        tree = SamplerTree(6, even=False)
        rows_right = np.array([3, 4, 5])
        tree.apply_grow(0, dim=0, threshold=0.5, rows_right=rows_right)
        assert tree.n_leaves() == 2
        np.testing.assert_array_equal(tree.leaf_idx, [0, 0, 0, 1, 1, 1])
        tree.apply_prune(0)
        assert tree.n_leaves() == 1
        assert tree.feature == [-1]  # the root is a leaf again
        np.testing.assert_array_equal(tree.leaf_idx, np.zeros(6))

    def test_contributions_track_betas(self):
        tree = SamplerTree(4, even=False)
        tree.apply_grow(0, 0, 0.0, np.array([2, 3]))
        tree.betas = np.array([-1.0, 2.0])
        np.testing.assert_array_equal(tree.contributions(), [-1, -1, 2, 2])

    @staticmethod
    def _prior_walk(n_moves, seed):
        """Trees moved by mh_tree_move at tau = 0 (the tree prior alone) over
        the same 30 rows for every seed; yields (tree, X, move, accepted)
        after each move, with distinct betas per slot so that any misrouted
        row shows."""
        rows = np.random.default_rng(0).standard_normal((30, 2))
        data = TwoSampleDataset(rows[:15], rows[15:] + 0.5)
        gen = np.random.default_rng(seed)
        grid = build_cut_grid(data, 7)
        X = data.pooled()
        ctx = MoveContext(grid.bin_indices(X), grid.cuts, np.ones(30), np.ones(30),
                          0.0, data.zeta, 10.0, TreePrior(0.95, 0.5), (0.4, 0.3, 0.3))
        tree = SamplerTree(30, even=False)
        for _ in range(n_moves):
            move, ok = mh_tree_move(tree, ctx, gen)
            tree.betas = gen.permutation(tree.n_leaves()) + 1.0
            yield tree, X, move, ok

    def test_moves_keep_preorder_arrays_consistent(self):
        accepted = np.zeros(3, dtype=int)
        most_leaves = 0
        for tree, X, move, ok in self._prior_walk(3000, seed=5):
            accepted[move] += ok
            most_leaves = max(most_leaves, tree.n_leaves())
            # bin routing inside the sampler equals float routing of the export
            np.testing.assert_array_equal(tree.contributions(),
                                          tree.decision_tree(2).evaluate_many(X))
            n = len(tree.feature)
            assert len(tree.right) == len(tree.value) == len(tree.depth) == len(tree.slot) == n
            leaves = [i for i in range(n) if tree.feature[i] < 0]
            assert sorted(tree.slot[i] for i in leaves) == list(range(tree.n_leaves()))
            assert tree.depth[0] == 0
            for i in range(n):
                if tree.feature[i] >= 0:
                    assert tree.slot[i] == -1
                    assert tree.right[i] > i + 1
                    assert tree.depth[i + 1] == tree.depth[tree.right[i]] == tree.depth[i] + 1
        # every move type changed the tree many times, and trees grew past a stump
        assert accepted.min() >= 100, accepted
        assert most_leaves >= 6

    def test_verify_state_catches_drift(self):
        trees = []
        for seed in range(3):
            for tree, X, _, _ in self._prior_walk(40, seed):
                pass
            trees.append(tree)
        assert all(t.n_leaves() > 1 for t in trees)
        logw = sum(t.contributions() for t in trees)
        _verify_state(trees, X, logw)
        trees[1].betas[-1] += 1e-6  # logw not updated
        with pytest.raises(AssertionError, match="drifted"):
            _verify_state(trees, X, logw)


class TestGibbsConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 3},
        {"n_trees": 0},
        {"lambda0": 0.0},
        {"move_probs": (0.5, 0.5, 0.5)},
        {"burn_in": -1},
        {"a0_tau": -1.0},
        {"b0_tau": 0.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GibbsConfig(**kwargs)

    def test_leaf_precision(self):
        assert GibbsConfig(n_trees=50, lambda0=5.0).leaf_precision == 250.0


def _small_config(**kw):
    base = dict(n_trees=10, burn_in=150, draws=100, seed=0)
    base.update(kw)
    return GibbsConfig(**base)


class TestRunSampler:
    def test_output_shapes_and_eval_points(self, shifted_2d):
        data, grid = shifted_2d
        pts = np.zeros((5, 2))
        draws = run_sampler(data, grid, _small_config(), eval_points=pts)
        assert draws.log_ratio_draws.shape == (100, 5)
        assert draws.tau_draws.shape == (100,)
        assert draws.move_attempts.shape == (250, 3)
        assert np.all(draws.move_attempts.sum(axis=1) == 10)
        assert np.all(draws.move_accepts <= draws.move_attempts)

    def test_eval_dimension_mismatch(self, shifted_2d):
        data, grid = shifted_2d
        with pytest.raises(ValueError):
            run_sampler(data, grid, _small_config(), eval_points=np.zeros((2, 3)))

    def test_determinism(self, shifted_2d):
        data, grid = shifted_2d
        a = run_sampler(data, grid, _small_config(draws=50))
        b = run_sampler(data, grid, _small_config(draws=50))
        np.testing.assert_array_equal(a.log_ratio_draws, b.log_ratio_draws)
        np.testing.assert_array_equal(a.tau_draws, b.tau_draws)

    def test_shift_recovered_in_sign(self, shifted_2d):
        """log r = log(p/q): the posterior mean is positive where group 0
        dominates and negative where group 1 does."""
        data, grid = shifted_2d
        pts = np.array([[-1.5, -1.5], [1.5, 1.5]])
        config = _small_config(n_trees=50, burn_in=400, draws=200)
        draws = run_sampler(data, grid, config, eval_points=pts)
        means, _ = summarize(draws)
        assert means[0] > 0.3
        assert means[1] < -0.3

    def test_null_posterior_concentrates_near_zero(self):
        """p = q: for most points the posterior mean log-ratio is small."""
        hits = []
        for seed in range(5):
            gen = np.random.default_rng(100 + seed)
            pooled = gen.standard_normal((500, 2))
            data = TwoSampleDataset(pooled[:250], pooled[250:])
            grid = build_cut_grid(data, 15)
            config = _small_config(n_trees=50, burn_in=300, draws=150, seed=seed)
            draws = run_sampler(data, grid, config)
            means, _ = summarize(draws)
            hits.append(np.mean(np.abs(means) < 0.4))
        assert np.mean(hits) >= 0.95

    def test_prior_only_tree_sizes(self):
        """With prior_only the chain targets the tree prior; average leaf
        counts should settle near the prior mean."""
        gen = np.random.default_rng(5)
        data = TwoSampleDataset(gen.standard_normal((20, 1)),
                                gen.standard_normal((20, 1)))
        grid = build_cut_grid(data, 7)
        config = _small_config(n_trees=2, burn_in=2000, draws=2000, seed=1)
        draws = run_sampler(data, grid, config, prior_only=True)
        ref = np.mean([
            sample_tree_from_prior(TreePrior(), grid, gen).n_leaves()
            for _ in range(4000)
        ])
        assert draws.mean_leaves.mean() == pytest.approx(ref, abs=0.35)

    def test_prior_only_log_ratio_centered(self):
        gen = np.random.default_rng(6)
        data = TwoSampleDataset(gen.standard_normal((20, 1)),
                                gen.standard_normal((20, 1)))
        grid = build_cut_grid(data, 7)
        config = _small_config(n_trees=20, burn_in=500, draws=1000, seed=2)
        draws = run_sampler(data, grid, config, prior_only=True)
        assert abs(draws.log_ratio_draws.mean()) < 0.2


class TestSummarize:
    def test_mean_and_quantiles(self):
        lr = np.linspace(0.0, 1.0, 101).reshape(-1, 1)
        d = PosteriorDraws(lr, np.zeros(101), np.zeros(101), np.zeros(101),
                           np.zeros((101, 3), dtype=np.int64),
                           np.zeros((101, 3), dtype=np.int64))
        means, qs = summarize(d, quantiles=(0.25, 0.75))
        assert means[0] == pytest.approx(0.5)
        assert qs[0, 0] == pytest.approx(0.25)
        assert qs[0, 1] == pytest.approx(0.75)

    def test_validation(self):
        empty = PosteriorDraws(np.empty((0, 2)), np.empty(0), np.empty(0),
                               np.empty(0), np.zeros((0, 3), dtype=np.int64),
                               np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            summarize(empty)
        full = PosteriorDraws(np.zeros((3, 2)), np.zeros(3), np.zeros(3),
                              np.zeros(3), np.zeros((3, 3), dtype=np.int64),
                              np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            summarize(full, quantiles=(0.0, 0.5))
