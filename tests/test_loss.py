"""Balancing-loss oracles: loss value, gradients, optimal leaf weights,
rebalancing, and the affinity split score, all on log-weights."""

import numpy as np
import pytest

from batts import (
    DataError,
    DivergedModelError,
    TwoSampleDataset,
    finite_sample_loss,
    hellinger_split_score,
    optimal_leaf_value,
    rebalance,
    row_masses,
)
from batts.loss import LOG_WEIGHT_LIMIT, DegenerateLeafError, check_log_weights


def _random_log_weights(gen, n0=50, n1=40, scale=1.0):
    return scale * gen.standard_normal(n0), scale * gen.standard_normal(n1)


class TestFiniteSampleLoss:
    def test_direct_arithmetic_oracle(self):
        # n0=2 with w^{-1}={0.5, 0.25}; n1=1 with w={0.5} -> 0.875
        logw0 = -np.log([0.5, 0.25])
        logw1 = np.log([0.5])
        assert finite_sample_loss(logw0, logw1) == pytest.approx(0.875)

    def test_unit_weights_give_two(self):
        assert finite_sample_loss(np.zeros(9), np.zeros(4)) == pytest.approx(2.0)

    def test_loss_is_at_least_two_after_rebalance(self, rng):
        # 2*sqrt(mean(w^{-1}) mean(w)) >= 2 by AM-GM against Jensen
        logw0, logw1 = _random_log_weights(rng)
        log_c, _ = rebalance(logw0, logw1)
        assert finite_sample_loss(logw0 + log_c, logw1 + log_c) >= 2.0 - 1e-12

    def test_validation(self):
        # A zero weight is an infinite log-weight, which the guard refuses;
        # an empty group is refused when the dataset is built.
        with pytest.raises(DivergedModelError):
            check_log_weights(np.array([np.inf]), np.array([0.0]))
        with pytest.raises(DivergedModelError):
            check_log_weights(np.array([0.0]), np.array([-np.inf]))
        with pytest.raises(DataError):
            TwoSampleDataset(np.empty((0, 1)), np.ones((1, 1)))


class TestOptimalLeafValue:
    def test_symmetry_gives_zero(self):
        assert optimal_leaf_value(0.3, 0.3) == 0.0

    def test_closed_form(self):
        assert optimal_leaf_value(4.0, 1.0) == pytest.approx(np.log(2.0))

    def test_matches_golden_section_search(self, rng):
        for _ in range(20):
            p, q = rng.uniform(0.01, 5.0, size=2)
            lo, hi = -20.0, 20.0
            phi = (np.sqrt(5.0) - 1.0) / 2.0
            f = lambda b: p * np.exp(-b) + q * np.exp(b)
            while hi - lo > 1e-10:
                m1 = hi - phi * (hi - lo)
                m2 = lo + phi * (hi - lo)
                if f(m1) < f(m2):
                    hi = m2
                else:
                    lo = m1
            assert optimal_leaf_value(p, q) == pytest.approx((lo + hi) / 2, abs=1e-7)

    def test_degenerate_masses(self):
        with pytest.raises(DegenerateLeafError, match="degenerate leaf"):
            optimal_leaf_value(0.0, 1.0)
        with pytest.raises(DegenerateLeafError):
            optimal_leaf_value(1.0, -0.5)


class TestRebalanceConstant:
    def test_closed_form(self):
        # w^{-1} = 4 on group 0 and w = 1 on group 1: c = sqrt(4 / 1) = 2,
        # and the loss after is 2*sqrt(4 * 1) = 4
        log_c, loss = rebalance(np.array([-np.log(4.0)]), np.array([0.0]))
        assert log_c == pytest.approx(np.log(2.0))
        assert loss == pytest.approx(4.0)

    def test_equalizes_the_two_terms(self, rng):
        logw0, logw1 = _random_log_weights(rng)
        log_c, loss = rebalance(logw0, logw1)
        term0 = np.mean(np.exp(-(logw0 + log_c)))
        term1 = np.mean(np.exp(logw1 + log_c))
        assert term0 == pytest.approx(term1)
        assert loss == pytest.approx(term0 + term1)

    def test_never_increases_loss(self, rng):
        for _ in range(25):
            logw0, logw1 = _random_log_weights(rng, scale=2.0)
            log_c, loss = rebalance(logw0, logw1)
            after = finite_sample_loss(logw0 + log_c, logw1 + log_c)
            assert after == pytest.approx(loss, rel=1e-12)
            assert after <= finite_sample_loss(logw0, logw1) + 1e-12


class TestPseudoResiduals:
    def test_signs_and_scale(self):
        # w^{-1} = {2, 4} over n0 = 2 and w = {3} over n1 = 1
        m0, m1 = row_masses(-np.log([2.0, 4.0]), np.log([3.0]))
        np.testing.assert_allclose(m0, [1.0, 2.0])
        np.testing.assert_allclose(-m1, [-3.0])

    def test_finite_difference_oracle(self, rng):
        """Criterion: residuals match central differences of l_n (h=1e-6)
        to relative error < 1e-6 at random states."""
        h = 1e-6
        for _ in range(100):
            n0, n1 = rng.integers(3, 12, size=2)
            f0 = rng.standard_normal(n0)
            f1 = rng.standard_normal(n1)
            m0, m1 = row_masses(f0, f1)
            r0, r1 = m0, -m1
            loss = finite_sample_loss
            i = int(rng.integers(n0))
            e = np.zeros(n0)
            e[i] = h
            fd = -(loss(f0 + e, f1) - loss(f0 - e, f1)) / (2 * h)
            assert fd == pytest.approx(r0[i], rel=1e-6)
            j = int(rng.integers(n1))
            e = np.zeros(n1)
            e[j] = h
            fd = -(loss(f0, f1 + e) - loss(f0, f1 - e)) / (2 * h)
            assert fd == pytest.approx(r1[j], rel=1e-6)


class TestHellingerSplitScore:
    def test_perfect_separation_scores_zero(self):
        assert hellinger_split_score(1.0, 0.0, 0.0, 1.0) == 0.0

    def test_no_separation_scores_one(self):
        assert hellinger_split_score(0.3, 0.3, 0.7, 0.7) == pytest.approx(1.0)

    def test_bounds(self, rng):
        for _ in range(50):
            pl, ql, pr, qr = rng.uniform(0.0, 2.0, size=4)
            if (pl + pr) <= 0 or (ql + qr) <= 0:
                continue
            s = hellinger_split_score(pl, ql, pr, qr)
            assert 0.0 <= s <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            hellinger_split_score(-0.1, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            hellinger_split_score(0.0, 0.5, 0.0, 0.5)


class TestDivergenceGuard:
    def test_triggers_beyond_limit(self):
        with pytest.raises(DivergedModelError):
            check_log_weights(np.array([701.0]))
        with pytest.raises(DivergedModelError):
            check_log_weights(np.array([0.0]), np.array([-800.0]))

    def test_passes_within_limit(self):
        check_log_weights(np.array([699.0]), np.array([-699.0]))
        check_log_weights(np.array([LOG_WEIGHT_LIMIT]), np.array([-LOG_WEIGHT_LIMIT]))
        check_log_weights(np.array([]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_non_finite(self, bad, position):
        """NaN and infinities fail |a| <= LOG_WEIGHT_LIMIT in either array,
        also among finite entries."""
        arrays = [np.zeros(5), np.zeros(3)]
        arrays[position][1] = bad
        with pytest.raises(DivergedModelError):
            check_log_weights(*arrays)
