"""The balancing loss on log-weights: finite-sample value, per-row masses
(the negative gradients), optimal leaf weights, rebalancing, and the affinity
split score.

Every function takes the log-weights log w over group 0 and group 1 as the two
arrays (logw0, logw1) that boosting and the sampler already hold.
"""

from __future__ import annotations

import numpy as np

# e^x overflows double precision near 709; beyond this the model has diverged.
LOG_WEIGHT_LIMIT = 700.0


class DivergedModelError(RuntimeError):
    """Raised when a log-weight is not a number or |log w| exceeds the
    overflow guard."""


class DegenerateLeafError(ValueError):
    """Raised when a leaf has zero mass from one of the groups."""


def check_log_weights(*log_arrays) -> None:
    """Reject any entry that does not satisfy |a| <= LOG_WEIGHT_LIMIT,
    NaN and infinities included."""
    for a in log_arrays:
        # the max propagates NaN, and a comparison with NaN is false
        if a.size and not np.max(np.abs(a)) <= LOG_WEIGHT_LIMIT:
            raise DivergedModelError(
                f"|log w| exceeded {LOG_WEIGHT_LIMIT} or is not a number; "
                "the model has diverged"
            )


def finite_sample_loss(logw0: np.ndarray, logw1: np.ndarray) -> float:
    """l_n(w) = mean of w^{-1} over group 0 plus mean of w over group 1."""
    return float(np.exp(-logw0).mean() + np.exp(logw1).mean())


def row_masses(logw0: np.ndarray, logw1: np.ndarray):
    """Per-row masses w^{-1}/n0 on group 0 and w/n1 on group 1.

    Summed over a leaf's rows they are the masses optimal_leaf_value takes,
    and (m0, -m1) are the negative gradients of l_n with respect to the
    additive value F(x), the pseudo-residuals of gradient boosting.
    """
    return np.exp(-logw0) / logw0.size, np.exp(logw1) / logw1.size


def optimal_leaf_value(p_mass: float, q_mass: float) -> float:
    """The beta minimizing p_mass*e^{-beta} + q_mass*e^{beta}.

    Closed form: beta = (log p_mass - log q_mass) / 2.
    """
    if p_mass <= 0 or q_mass <= 0:
        raise DegenerateLeafError(
            f"degenerate leaf: masses must be positive, got ({p_mass}, {q_mass})"
        )
    return 0.5 * (np.log(p_mass) - np.log(q_mass))


def rebalance(logw0: np.ndarray, logw1: np.ndarray):
    """The shift log_c of every log-weight that equalizes the two terms of
    l_n, and the loss after the shift, 2*sqrt(mean(w^{-1}) * mean(w)).

    Shifting by log_c never increases the loss.
    """
    e0 = np.exp(-logw0).mean()
    e1 = np.exp(logw1).mean()
    return 0.5 * (np.log(e0) - np.log(e1)), 2.0 * np.sqrt(e0 * e1)


def hellinger_split_score(pl: float, ql: float, pr: float, qr: float) -> float:
    """Affinity of a candidate split, with each group normalized over the
    two children. Ranges over [0, 1]; lower means a sharper separation.

    This is the test oracle for the fs score of boosting's split search,
    sqrt(pl*ql) + sqrt(pr*qr), which drops the constant normalization
    sqrt((pl + pr) * (ql + qr)) of the node.
    """
    if min(pl, ql, pr, qr) < 0:
        raise ValueError("leaf masses must be nonnegative")
    p_tot = pl + pr
    q_tot = ql + qr
    if p_tot <= 0 or q_tot <= 0:
        raise ValueError("each group must carry positive total mass across the split")
    return float(np.sqrt(pl / p_tot * ql / q_tot) + np.sqrt(pr / p_tot * qr / q_tot))
