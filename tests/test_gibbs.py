"""Sampler oracles: inverse-Gaussian conjugacy, the integrated leaf
likelihood, prior centering, MH bookkeeping, and end-to-end posterior checks."""

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
    CHANGE,
    GROW,
    PRUNE,
    MoveContext,
    PosteriorDraws,
    SamplerTree,
    _grow_factor,
    _posterior_params,
    _resample_betas,
    _verify_state,
    column_quantiles,
    draw_move,
    integrated_leaf_loglik,
    mh_tree_move,
    sample_inverse_gaussian,
)
from oracles import prior_log_weight_draws, sample_tree_from_prior, split_probability


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
            mu_p, lam_p = _posterior_params(s0, s1, tau, zeta, lam, even)
            x = rng.uniform(0.3, 3.0, size=8)
            diff = _leaf_log_target(x, s0, s1, tau, zeta, lam, even) - _ig_logpdf(
                x, mu_p, lam_p
            )
            assert np.ptp(diff) < 1e-8

    def test_posterior_density_by_quadrature(self, rng):
        """Numerically normalized target agrees with the IG(mu', lam') pdf."""
        for _ in range(10):
            s0, s1 = rng.uniform(0.5, 20.0, size=2)
            tau = rng.uniform(0.1, 1.5)
            zeta = rng.uniform(0.3, 0.7)
            lam = rng.uniform(5.0, 500.0)
            mu_p, lam_p = _posterior_params(s0, s1, tau, zeta, lam, False)
            # scale by the value at the mode so quad sees an O(1) integrand
            peak = _leaf_log_target(mu_p, s0, s1, tau, zeta, lam, False)
            z, _ = integrate.quad(
                lambda x: np.exp(
                    _leaf_log_target(x, s0, s1, tau, zeta, lam, False) - peak
                ),
                0.0, 30.0, points=[mu_p], limit=200,
                epsabs=1e-14, epsrel=1e-12,
            )
            for x in (0.5, 0.9, 1.0, 1.2, 2.0):
                target = np.exp(
                    _leaf_log_target(x, s0, s1, tau, zeta, lam, False) - peak
                ) / z
                if target < 1e-12:
                    continue
                ig = np.exp(_ig_logpdf(x, mu_p, lam_p))
                assert ig == pytest.approx(target, rel=1e-6)

    def test_no_data_returns_prior(self):
        mu_p, lam_p = _posterior_params(0.0, 0.0, 1.0, 0.5, 10.0, False)
        assert mu_p == pytest.approx(1.0)
        assert lam_p == pytest.approx(10.0)

    def test_parity_swaps_group_roles(self):
        odd = _posterior_params(3.0, 7.0, 0.8, 0.5, 20.0, False)
        even = _posterior_params(7.0, 3.0, 0.8, 0.5, 20.0, True)
        assert odd == pytest.approx(even)


class TestIntegratedLoglik:
    def test_matches_quadrature(self, rng):
        """The closed-form marginal equals int prior(x) * likelihood(x) dx."""
        for _ in range(10):
            s0, s1 = rng.uniform(0.5, 20.0, size=2)
            tau = rng.uniform(0.1, 1.5)
            zeta = rng.uniform(0.3, 0.7)
            lam = rng.uniform(5.0, 500.0)
            mu_p, _ = _posterior_params(s0, s1, tau, zeta, lam, False)
            peak = _leaf_log_target(mu_p, s0, s1, tau, zeta, lam, False)
            z, _ = integrate.quad(
                lambda x: np.exp(
                    _leaf_log_target(x, s0, s1, tau, zeta, lam, False) - peak
                ),
                0.0, 30.0, points=[mu_p], limit=200,
                epsabs=1e-14, epsrel=1e-12,
            )
            ll = integrated_leaf_loglik(s0, s1, tau, zeta, lam)
            assert ll == pytest.approx(peak + np.log(z), abs=1e-6)

    def test_no_data_gives_zero(self):
        assert integrated_leaf_loglik(0.0, 0.0, 1.0, 0.5, 10.0) == pytest.approx(0.0)


class TestHotPathOracles:
    """The sampler's per-tree update against the numpy code it replaced."""

    def test_move_pick_equals_generator_choice(self):
        mine, ref = np.random.default_rng(17), np.random.default_rng(17)
        picks = [draw_move(mine) for _ in range(10_000)]
        expected = [int(ref.choice(3, p=(1 / 3, 1 / 3, 1 / 3))) for _ in range(10_000)]
        assert picks == expected
        assert mine.bit_generator.state == ref.bit_generator.state
        assert set(picks) == {GROW, PRUNE, CHANGE}

    @pytest.mark.parametrize("even", [False, True])
    def test_beta_redraw_equals_vectorized_sampler(self, even):
        """Leaf by leaf in floats, bit-equal to log(sample_inverse_gaussian)
        on the numpy full conditional, with zero-weight evaluation cells;
        on rows (0/1 group counts) and on cells with counts up to 3."""
        gen = np.random.default_rng(21)
        n0, C, N = 40, 70, 90  # cells past C are evaluation-only
        bins = gen.integers(0, 8, size=(N, 2))
        group0 = (np.arange(C) < n0).astype(float)
        counts = [(group0, 1.0 - group0), tuple(gen.integers(0, 4, size=(2, C)).astype(float))]
        tree = SamplerTree(N, even=even)
        tree.apply_grow(0, 0, 3.0, np.nonzero(bins[:, 0] > 3)[0])
        rows = np.nonzero(bins[:, 0] <= 3)[0]
        tree.apply_grow(1, 1, 2.0, rows[bins[rows, 1] > 2])
        tree.leaf_idx[C:] = 1  # evaluation-only cells all in one leaf
        for seed in range(400):
            counts0, counts1 = counts[seed % 2]
            # small lam and tau make every term of the transform matter
            ctx = MoveContext(bins, [np.arange(7.0), np.arange(7.0)], counts0, counts1,
                              n0 / C, gen.uniform(0.5, 50.0), TreePrior())
            ctx.tau = gen.uniform(0.0, 2.0)
            logw = gen.normal(0.0, 0.5, size=N)
            ctx.set_residual(logw)
            np.testing.assert_array_equal(ctx.w0[:C], counts0 * np.exp(-logw[:C]))
            np.testing.assert_array_equal(ctx.w1[:C], counts1 * np.exp(logw[:C]))
            assert np.all(ctx.w0[C:] == 0) and np.all(ctx.w1[C:] == 0)
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _resample_betas(tree, ctx, mine, *ctx.leaf_sums(tree))
            # the replaced code: bincounts over all cells, numpy full conditional
            s0 = np.bincount(tree.leaf_idx, weights=ctx.w0, minlength=3)
            s1 = np.bincount(tree.leaf_idx, weights=ctx.w1, minlength=3)
            a = 2.0 * ctx.tau * s0 / ctx.zeta
            b = 2.0 * ctx.tau * s1 / (1.0 - ctx.zeta)
            if even:
                a, b = b, a
            lam_p = ctx.lam + a
            mu_p = np.sqrt(lam_p / (ctx.lam / 1.0**2 + b))
            z = np.log(sample_inverse_gaussian(mu_p, lam_p, ref))
            np.testing.assert_array_equal(tree.betas, -z if even else z)
            assert mine.bit_generator.state == ref.bit_generator.state
        assert tree.n_leaves() == 3

    def test_integrated_loglik_matches_numpy_closed_form(self, rng):
        s0, s1 = rng.uniform(0.1, 40.0, size=(2, 500))
        tau = rng.uniform(0.05, 2.0, size=500)
        zeta = rng.uniform(0.2, 0.8, size=500)
        lam = rng.uniform(1.0, 2000.0, size=500)
        even = rng.integers(2, size=500).astype(bool)
        a = 2.0 * tau * np.where(even, s1, s0) / np.where(even, 1.0 - zeta, zeta)
        b = 2.0 * tau * np.where(even, s0, s1) / np.where(even, zeta, 1.0 - zeta)
        lam_p = lam + a
        mu_p = np.sqrt(lam_p / (lam + b))
        ref = 0.5 * (np.log(lam) - np.log(lam_p)) + lam - lam_p / mu_p
        got = [integrated_leaf_loglik(*args) for args in zip(
            s0.tolist(), s1.tolist(), tau.tolist(), zeta.tolist(), lam.tolist(),
            even.tolist())]
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


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

    def test_counts_equal_the_expanded_rows(self, rng):
        """With counts, the draw is the one the expanded rows give, from the
        same generator state."""
        for seed in range(20):
            logw0, logw1 = rng.normal(0.0, 1.5, size=(2, 25))
            c0, c1 = rng.integers(0, 6, size=(2, 25)).astype(float)
            rows0, rows1 = np.repeat(logw0, c0.astype(int)), np.repeat(logw1, c1.astype(int))
            got = update_tau(logw0, logw1, 1.0, 2.0, np.random.default_rng(seed), c0, c1)
            want = update_tau(rows0, rows1, 1.0, 2.0, np.random.default_rng(seed))
            assert got == pytest.approx(want, rel=1e-12)


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
        group0 = (np.arange(30) < 15).astype(float)
        ctx = MoveContext(grid.bin_indices(X), grid.cuts, group0, 1.0 - group0, data.zeta,
                          10.0, TreePrior(0.95, 0.5))
        tree = SamplerTree(30, even=False)
        for _ in range(n_moves):
            move, ok, _, _ = mh_tree_move(tree, ctx, gen)
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
        rows = np.arange(30)  # each row its own cell
        _verify_state(trees, X, logw, rows)
        trees[1].betas[-1] += 1e-6  # logw not updated
        with pytest.raises(AssertionError, match="drifted"):
            _verify_state(trees, X, logw, rows)


class TestGibbsConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 3},
        {"n_trees": 0},
        {"lambda0": 0.0},
        {"burn_in": -1},
        {"lambda0": float("nan")},
        {"lambda0": float("inf")},
        {"burn_in": 2.5},
        {"draws": 1.5},
        {"n_trees": 4.0},
        {"seed": 2.5},
        {"seed": -3},
        {"lambda0": True},
        {"lambda0": np.True_},
        {"lambda0": -1.0},
        {"draws": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GibbsConfig(**kwargs)

    @pytest.mark.parametrize("name", ["n_trees", "burn_in", "draws", "seed"])
    def test_bool_is_not_an_integer(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            GibbsConfig(**{name: True})

    @pytest.mark.parametrize("value", [True, np.True_, "1", None],
                             ids=["bool", "numpy-bool", "string", "None"])
    @pytest.mark.parametrize("name, message", [
        *[(name, f"{name} must be an integer") for name in ("n_trees", "burn_in", "draws", "seed")],
        ("lambda0", "lambda0 must be positive and finite"),
    ])
    def test_non_number_is_a_one_line_error(self, name, message, value):
        with pytest.raises(ValueError) as e:
            GibbsConfig(**{name: value})
        assert str(e.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_trees": 0}, "n_trees must be >= 2"),
        ({"n_trees": 3}, "n_trees must be even (prior alternation needs pairs)"),
        ({"burn_in": -1}, "burn_in must be >= 0"),
        ({"draws": 0}, "draws must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_bound_messages_name_the_field(self, kwargs, message):
        with pytest.raises(ValueError) as e:
            GibbsConfig(**kwargs)
        assert str(e.value) == message

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        c = GibbsConfig(n_trees=np.int64(10), lambda0=np.float32(2.5), burn_in=np.int32(0),
                        draws=np.uint16(1), seed=np.int64(7))
        assert [type(v) for v in (c.n_trees, c.burn_in, c.draws, c.seed)] == [int] * 4
        assert (c.n_trees, c.burn_in, c.draws, c.seed) == (10, 0, 1, 7)
        assert type(c.lambda0) is float and c.lambda0 == 2.5

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
        d = PosteriorDraws(lr, np.zeros(1, dtype=np.int32), np.zeros(101), np.zeros(101),
                           np.zeros((101, 3), dtype=np.int64),
                           np.zeros((101, 3), dtype=np.int64))
        means, qs = summarize(d, quantiles=(0.25, 0.75))
        assert means[0] == pytest.approx(0.5)
        assert qs[0, 0] == pytest.approx(0.25)
        assert qs[0, 1] == pytest.approx(0.75)

    def test_validation(self):
        both = np.arange(2, dtype=np.int32)
        empty = PosteriorDraws(np.empty((0, 2)), both, np.empty(0), np.empty(0),
                               np.zeros((0, 3), dtype=np.int64),
                               np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            summarize(empty)
        full = PosteriorDraws(np.zeros((3, 2)), both, np.zeros(3), np.zeros(3),
                              np.zeros((3, 3), dtype=np.int64),
                              np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            summarize(full, quantiles=(0.0, 0.5))


class TestColumnQuantiles:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (9, 1), (2, 3), (37, 13), (1000, 40)])
    def test_bit_equal_to_np_quantile(self, shape):
        """Against np.quantile(x, q, axis=0) on one draw, one cell and wider
        matrices, at q = 0 and 1, next to them and in between; with mixed
        magnitudes, and with ties that mix 0.0 and -0.0, which only the same
        partition places alike. Compared as bits, so the sign of zero counts."""
        gen = np.random.default_rng(41)
        levels = [np.array([0.0, 1.0]), np.array([0.025, 0.975]), np.array([0.5]),
                  gen.uniform(0.0, 1.0, 7), np.array([1.0 - 2.0**-53, 2.0**-60])]
        for trial in range(12):
            if trial % 2:
                x = np.round(gen.standard_normal(shape), 1)
            else:
                x = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 8, shape)
            for q in levels:
                got = column_quantiles(x, q)
                want = np.quantile(x, q, axis=0)
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _cell_sample(gen, n0=150, n1=90, bins_per_dim=4):
    """Binned rows that share cells, with their cell map and group counts."""
    grid = CutGrid((np.arange(bins_per_dim - 1.0), np.arange(bins_per_dim - 1.0)))
    rows = gen.integers(0, bins_per_dim, size=(n0 + n1, 2))
    cell_bins, _, inverse = grid.cells(rows)
    C = cell_bins.shape[0]
    counts0 = np.bincount(inverse[:n0], minlength=C).astype(float)
    counts1 = np.bincount(inverse[n0:], minlength=C).astype(float)
    return grid, rows, cell_bins, inverse, counts0, counts1


def _routed_slots(tree, bins, cuts):
    """Each cell's leaf slot, found by walking the tree's rules from the root:
    a cell goes left of cut j of a dimension when its bin there is <= j."""
    out = np.empty(bins.shape[0], dtype=np.int64)
    for r, row in enumerate(bins.tolist()):
        i = 0
        while tree.feature[i] >= 0:
            d = tree.feature[i]
            j = cuts[d].tolist().index(tree.value[i])
            i = i + 1 if row[d] <= j else tree.right[i]
        out[r] = tree.slot[i]
    return out


class TestSharedLeafSums:
    """mh_tree_move hands the beta redraw the leaf sums of the tree after
    the move, taken from the bincounts of its MH ratio."""

    def test_sums_and_leaf_index_after_every_move(self):
        gen = np.random.default_rng(51)
        outcomes = np.zeros((3, 2), dtype=int)  # move x (rejected, accepted)
        drops = {"last": 0, "not last": 0}
        for trial in range(40):
            grid, rows, cell_bins, inverse, counts0, counts1 = _cell_sample(gen)
            C = cell_bins.shape[0]
            # evaluation-only cells after the training prefix, as run_sampler lays them out
            bins = np.vstack([cell_bins, [[9, 9], [9, 0], [0, 9], [3, 0]]])
            ctx = MoveContext(bins, grid.cuts, counts0, counts1, 150 / 240, 10.0,
                              TreePrior(0.95, 0.5))
            tree = SamplerTree(bins.shape[0], even=bool(trial % 2))
            prune = tree.apply_prune

            def spy(i, tree=tree, prune=prune):
                drops["last" if tree.slot[i + 2] == tree.n_leaves() - 1 else "not last"] += 1
                prune(i)

            tree.apply_prune = spy
            for _ in range(60):
                ctx.tau = float(gen.choice([0.0, 1.0, 20.0]))
                ctx.set_residual(gen.normal(0.0, 0.5, size=bins.shape[0]))
                stump = tree.n_leaves() == 1  # PRUNE and CHANGE are no-ops there
                move, ok, s0, s1 = mh_tree_move(tree, ctx, gen)
                outcomes[move, int(ok)] += move == GROW or not stump
                assert len(s0) == len(s1) == tree.n_leaves()
                want0, want1 = ctx.leaf_sums(tree)
                np.testing.assert_allclose(s0, want0, rtol=1e-12, atol=0)
                np.testing.assert_allclose(s1, want1, rtol=1e-12, atol=0)
                np.testing.assert_array_equal(tree.leaf_idx,
                                              _routed_slots(tree, bins, grid.cuts))
                assert np.all(tree.leaf_idx[C:] < tree.n_leaves())
        assert outcomes.min() >= 50, outcomes
        assert min(drops.values()) >= 20, drops


class TestCells:
    """The sampler's state per occupied grid cell against the same state per row."""

    def test_cell_leaf_sums_equal_row_leaf_sums(self):
        gen = np.random.default_rng(31)
        n0, n1 = 150, 90
        for trial in range(20):
            grid, rows, cell_bins, inverse, counts0, counts1 = _cell_sample(gen, n0, n1)
            assert cell_bins.shape[0] < rows.shape[0] // 4
            group0 = (np.arange(n0 + n1) < n0).astype(float)
            rest = (n0 / (n0 + n1), 10.0, TreePrior(0.95, 0.5))
            cells = MoveContext(cell_bins, grid.cuts, counts0, counts1, *rest)
            by_row = MoveContext(rows, grid.cuts, group0, 1.0 - group0, *rest)
            # a random tree state: prior moves on cells, the same tree on rows
            tree = SamplerTree(cell_bins.shape[0], even=bool(trial % 2))
            while tree.n_leaves() < 4:
                mh_tree_move(tree, cells, gen)
            row_tree = SamplerTree(rows.shape[0], even=tree.even)
            row_tree.leaf_idx = tree.leaf_idx[inverse]
            row_tree.betas = tree.betas
            logw = gen.normal(0.0, 1.0, size=cell_bins.shape[0])
            cells.set_residual(logw)
            by_row.set_residual(logw[inverse])
            for got, want in zip(cells.leaf_sums(tree), by_row.leaf_sums(row_tree)):
                np.testing.assert_allclose(got, want, rtol=1e-12)
            # each slot's sums against its rows' masses, selected and summed directly
            got = np.array(cells.leaf_sums(tree))
            for slot in range(tree.n_leaves()):
                rows_in = row_tree.leaf_idx == slot
                want = (by_row.w0[rows_in].sum(), by_row.w1[rows_in].sum())
                np.testing.assert_allclose(got[:, slot], want, rtol=1e-12)

    def test_evaluation_only_cells_carry_zero_weight(self):
        gen = np.random.default_rng(32)
        grid, rows, cell_bins, inverse, counts0, counts1 = _cell_sample(gen)
        C = cell_bins.shape[0]
        # evaluation-only cells after the training prefix, as run_sampler lays them out
        extra = np.array([[9, 9], [9, 0], [0, 9]])
        bins = np.vstack([cell_bins, extra])
        ctx = MoveContext(bins, grid.cuts, counts0, counts1, 0.5, 10.0, TreePrior())
        tree = SamplerTree(bins.shape[0], even=False)
        tree.apply_grow(0, 0, 1.0, np.nonzero(bins[:, 0] > 1)[0])
        ctx.set_residual(gen.normal(0.0, 1.0, size=bins.shape[0]))
        assert np.all(ctx.w0[C:] == 0) and np.all(ctx.w1[C:] == 0)
        assert np.all(ctx.w0[:C][counts0 > 0] > 0) and np.all(ctx.w1[:C][counts1 > 0] > 0)
        before = ctx.leaf_sums(tree)
        tree.leaf_idx[C:] = 1 - tree.leaf_idx[C:]  # move them to the other leaf
        for got, want in zip(ctx.leaf_sums(tree), before):
            np.testing.assert_array_equal(got, want)

    def test_evaluation_only_cells_leave_the_chain_alone(self, shifted_2d):
        """Far evaluation points add cells of zero weight: the training
        points' draws and tau match the run without them."""
        data, grid = shifted_2d
        config = _small_config(burn_in=60, draws=40)
        plain = run_sampler(data, grid, config)
        far = np.array([[40.0, 40.0], [-40.0, 40.0], [40.0, -40.0]])
        both = run_sampler(data, grid, config, eval_points=np.vstack([data.pooled(), far]))
        assert both.log_ratio_draws.shape == (40, data.n + 3)
        np.testing.assert_allclose(both.log_ratio_draws[:, :data.n], plain.log_ratio_draws,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(both.tau_draws, plain.tau_draws, rtol=1e-9)
        np.testing.assert_array_equal(both.move_accepts, plain.move_accepts)

    def test_evaluation_point_in_a_training_cell_gets_its_draws(self, shifted_2d):
        data, grid = shifted_2d
        config = _small_config(burn_in=60, draws=40)
        plain = run_sampler(data, grid, config)
        X = data.pooled()
        idx = np.random.default_rng(33).choice(data.n, size=25, replace=False)
        nudged = X[idx] + 1e-9
        assert np.array_equal(grid.bin_indices(nudged), grid.bin_indices(X[idx]))
        draws = run_sampler(data, grid, config, eval_points=nudged)
        # no evaluation-only cells, so the chain is the plain one
        np.testing.assert_array_equal(draws.tau_draws, plain.tau_draws)
        np.testing.assert_array_equal(draws.log_ratio_draws, plain.log_ratio_draws[:, idx])
        assert draws.cell_draws.shape[1] == len(set(map(tuple, grid.bin_indices(nudged))))

    def test_training_draws_are_stored_once_per_cell(self, shifted_2d):
        data, grid = shifted_2d
        draws = run_sampler(data, grid, _small_config(burn_in=20, draws=10))
        bins = grid.bin_indices(data.pooled())
        n_cells = len(set(map(tuple, bins)))
        assert n_cells < data.n
        assert draws.cell_draws.shape == (10, n_cells)
        assert draws.point_cell.dtype == np.int32
        # points share a column exactly when they share a cell
        for c in range(n_cells):
            members = bins[draws.point_cell == c]
            assert (members == members[0]).all()

    @pytest.mark.parametrize("n_draws, n_cells, n_points", [
        (37, 13, 60), (200, 2, 9), (1000, 40, 41), (64, 1, 5), (64, 1, 1), (1, 3, 7)])
    def test_summarize_per_cell_is_bit_equal_to_expanded(self, n_draws, n_cells, n_points):
        """Against the draws x points matrix the sampler kept before: one
        row per draw, filled in place."""
        gen = np.random.default_rng(34)
        for _ in range(10):
            # mixed magnitudes, so that any change in summation order shows
            cell_draws = gen.normal(0.0, 1.0, (n_draws, n_cells)) * 10.0 ** gen.integers(
                -8, 8, (n_draws, n_cells))
            point_cell = np.concatenate([np.arange(n_cells), gen.integers(
                0, n_cells, n_points - n_cells)]).astype(np.int32)
            gen.shuffle(point_cell)
            expanded = np.empty((n_draws, n_points))
            for d in range(n_draws):
                expanded[d] = cell_draws[d, point_cell]
            rest = (np.zeros(n_draws), np.zeros(n_draws),
                    np.zeros((n_draws, 3), dtype=np.int64), np.zeros((n_draws, 3), dtype=np.int64))
            per_cell = PosteriorDraws(cell_draws, point_cell, *rest)
            per_point = PosteriorDraws(expanded, np.arange(n_points, dtype=np.int32), *rest)
            np.testing.assert_array_equal(per_cell.log_ratio_draws, expanded)
            q = (0.025, 0.3, 0.5, 0.975)
            for got, want in zip(summarize(per_cell, q), summarize(per_point, q)):
                np.testing.assert_array_equal(got, want)
            means, qs = summarize(per_cell, q)
            np.testing.assert_array_equal(means, expanded.mean(axis=0))
            np.testing.assert_array_equal(qs, np.quantile(expanded, q, axis=0).T)

    def test_corrupted_cell_map_trips_verify_state(self, shifted_2d):
        data, grid = shifted_2d
        X = data.pooled()
        cell_bins, _, inverse = grid.cells(grid.bin_indices(X))
        C = cell_bins.shape[0]
        group0 = np.bincount(inverse[:data.n0], minlength=C).astype(float)
        group1 = np.bincount(inverse[data.n0:], minlength=C).astype(float)
        ctx = MoveContext(cell_bins, grid.cuts, group0, group1, data.zeta, 10.0,
                          TreePrior(0.95, 0.5))
        gen = np.random.default_rng(35)
        trees = [SamplerTree(C, even=bool(k % 2)) for k in range(4)]
        for tree in trees:
            for _ in range(40):
                mh_tree_move(tree, ctx, gen)
            tree.betas = gen.normal(0.0, 1.0, tree.n_leaves())
        logw = sum(t.contributions() for t in trees)
        _verify_state(trees, X, logw, inverse)
        # point one row at another cell with a different log w
        row = int(np.argmax(np.abs(logw[inverse] - logw[inverse[0]])))
        bad = inverse.copy()
        bad[row] = inverse[0]
        with pytest.raises(AssertionError, match="drifted"):
            _verify_state(trees, X, logw, bad)
