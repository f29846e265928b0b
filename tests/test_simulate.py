"""Scenario construction, density oracles, and the symmetrized error metric."""

import numpy as np
import pytest
from scipy import stats

from batts import Scenario, generate, make_scenario, symmetrized_mse, true_log_ratio
from batts.simulate import (
    AMBIENT_DIM,
    LATENT_DIM,
    LOCAL_SHIFT_DELTA,
    SCENARIO_NAMES,
    GaussianMixture,
    random_orthonormal,
)


class TestGaussianMixture:
    def test_logpdf_matches_scipy_single_component(self, rng):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        mix = GaussianMixture([1.0], [mean], [cov])
        X = rng.standard_normal((20, 2))
        expected = stats.multivariate_normal(mean, cov).logpdf(X)
        np.testing.assert_allclose(mix.logpdf(X), expected, rtol=1e-12)

    def test_logpdf_matches_scipy_mixture(self, rng):
        w = [0.3, 0.7]
        means = [np.zeros(2), np.array([3.0, 1.0])]
        covs = [np.eye(2), np.array([[1.5, -0.4], [-0.4, 1.0]])]
        mix = GaussianMixture(w, means, covs)
        X = rng.standard_normal((20, 2))
        expected = np.log(
            w[0] * stats.multivariate_normal(means[0], covs[0]).pdf(X)
            + w[1] * stats.multivariate_normal(means[1], covs[1]).pdf(X)
        )
        np.testing.assert_allclose(mix.logpdf(X), expected, rtol=1e-12)

    def test_sample_moments(self):
        mean = np.array([2.0, -1.0])
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        mix = GaussianMixture([1.0], [mean], [cov])
        x = mix.sample(100_000, np.random.default_rng(0))
        np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), cov, atol=0.03)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.4], [np.zeros(1), np.ones(1)],
                            [np.eye(1), np.eye(1)])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMixture([1.0], [np.zeros(2)],
                            [np.array([[1.0, 0.5], [0.0, 1.0]])])
        with pytest.raises(np.linalg.LinAlgError):
            GaussianMixture([1.0], [np.zeros(2)], [-np.eye(2)])


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_all_scenarios_build(self, name):
        sc = make_scenario(name)
        assert sc.name == name
        assert sc.dim == (20 if name.endswith("20D") else 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("Nope")

    def test_global_shift_log_ratio_is_linear(self, rng):
        """Equal-covariance Gaussians: log r(x) = (mu_p - mu_q)' x + const,
        here -(x1 + x2) exactly."""
        sc = make_scenario("GlobalShift2D")
        X = rng.standard_normal((50, 2))
        expected = -(X[:, 0] + X[:, 1])
        np.testing.assert_allclose(true_log_ratio(sc, X), expected, atol=1e-12)

    def test_local_shift_moves_one_component(self):
        sc = make_scenario("LocalShift2D")
        np.testing.assert_allclose(
            sc.q.means[0] - sc.p.means[0], LOCAL_SHIFT_DELTA
        )
        np.testing.assert_array_equal(sc.q.means[1:], sc.p.means[1:])
        np.testing.assert_array_equal(sc.q.covs, sc.p.covs)

    def test_local_dispersion_scales_one_component(self):
        sc = make_scenario("LocalDispersion2D")
        np.testing.assert_array_equal(sc.q.means, sc.p.means)
        np.testing.assert_array_equal(sc.q.covs[1:], sc.p.covs[1:])
        c_p, c_q = sc.p.covs[0], sc.q.covs[0]
        assert c_q[0, 0] == pytest.approx(0.36 * c_p[0, 0])
        assert c_q[1, 1] == pytest.approx(c_p[1, 1])
        assert c_q[0, 1] == pytest.approx(0.6 * c_p[0, 1])

    def test_null_scenario_has_zero_log_ratio(self, rng):
        """delta = 0 shift: p and q coincide, so log r is identically 0."""
        sc = make_scenario("LocalShift2D")
        null = Scenario("null", sc.p, sc.p)
        X = rng.standard_normal((30, 2)) * 5
        np.testing.assert_allclose(true_log_ratio(null, X), 0.0, atol=1e-12)

    def test_swapped_negates_log_ratio(self, rng):
        sc = make_scenario("LocalDispersion2D")
        X = rng.standard_normal((30, 2)) * 3
        np.testing.assert_allclose(
            true_log_ratio(Scenario(sc.name, sc.q, sc.p), X), -true_log_ratio(sc, X), atol=1e-12
        )

    def test_loading_is_orthonormal(self):
        lam = random_orthonormal(AMBIENT_DIM, LATENT_DIM, np.random.default_rng(3))
        assert lam.shape == (AMBIENT_DIM, LATENT_DIM)
        assert np.max(np.abs(lam.T @ lam - np.eye(LATENT_DIM))) < 1e-10

    def test_latent_scenarios_differ_by_seed(self):
        a = make_scenario("LatentLocation20D", seed=0)
        b = make_scenario("LatentLocation20D", seed=1)
        assert not np.allclose(a.loading, b.loading)

    def test_importance_identity(self):
        """E_q[r(X)] = 1 for every scenario, checked by Monte Carlo."""
        for name in SCENARIO_NAMES:
            sc = make_scenario(name)
            gen = np.random.default_rng(17)
            if sc.loading is None:
                x = sc.q.sample(40_000, gen)
            else:
                z = sc.latent_q.sample(40_000, gen)
                x = z @ sc.loading.T + sc.noise_scale * gen.standard_normal(
                    (40_000, AMBIENT_DIM)
                )
            r = np.exp(true_log_ratio(sc, x))
            assert r.mean() == pytest.approx(1.0, abs=0.05), name


class TestGenerate:
    def test_shapes_and_determinism(self):
        sc = make_scenario("GlobalShift2D")
        d1 = generate(sc, 30, 40, seed=5)
        d2 = generate(sc, 30, 40, seed=5)
        assert (d1.n0, d1.n1, d1.dim) == (30, 40, 2)
        np.testing.assert_array_equal(d1.sample0, d2.sample0)
        assert not np.array_equal(d1.sample0, generate(sc, 30, 40, seed=6).sample0)

    def test_global_shift_sample_means(self):
        sc = make_scenario("GlobalShift2D")
        d = generate(sc, 20_000, 20_000, seed=0)
        np.testing.assert_allclose(d.sample0.mean(axis=0), [-0.5, -0.5], atol=0.03)
        np.testing.assert_allclose(d.sample1.mean(axis=0), [0.5, 0.5], atol=0.03)

    def test_latent_sample_covariance_matches_model(self):
        """Observed 20D covariance equals the pushforward model covariance."""
        sc = make_scenario("LatentDispersion20D")
        d = generate(sc, 20_000, 100, seed=1)
        mix = sc.p
        model_cov = sum(
            w * (c + np.outer(m, m)) for w, m, c in
            zip(mix.weights, mix.means, mix.covs)
        )
        mean = sum(w * m for w, m in zip(mix.weights, mix.means))
        model_cov = model_cov - np.outer(mean, mean)
        assert np.max(np.abs(np.cov(d.sample0.T) - model_cov)) < 0.15


class TestSymmetrizedMse:
    def test_arithmetic_oracle(self):
        # group 0 errors {1, 2}, group 1 errors {3}: 5/4 + 9/2 = 5.75
        truth = np.array([0.0, 0.0, 0.0])
        est = np.array([1.0, 2.0, 3.0])
        assert symmetrized_mse(truth, est, 2, 1) == pytest.approx(5.75)

    def test_zero_on_exact_match(self, rng):
        v = rng.standard_normal(10)
        assert symmetrized_mse(v, v, 6, 4) == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError, match="differ in length"):
            symmetrized_mse(np.zeros(3), np.zeros(4), 2, 1)
        with pytest.raises(ValueError, match="expected 5"):
            symmetrized_mse(np.zeros(4), np.zeros(4), 2, 3)

    @pytest.mark.parametrize("n0, n1", [(0, 3), (3, 0), (-1, 4), (4, -1)])
    def test_group_sizes_below_one_rejected(self, n0, n1):
        with pytest.raises(ValueError, match=f"n0 and n1 must be >= 1, got {n0} and {n1}"):
            symmetrized_mse(np.zeros(3), np.ones(3), n0, n1)
