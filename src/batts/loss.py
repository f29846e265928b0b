"""The balancing loss on log-weights: finite-sample value, per-row masses
(the negative gradients), optimal leaf weights and rebalancing.

Every function takes the log-weights log w over group 0 and group 1 as the two
arrays (logw0, logw1) that boosting and the sampler already hold.
finite_sample_loss, row_masses and rebalance also take per-entry row counts,
for the grid cells that boosting and the sampler run on.
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
        # the max propagates NaN, and a comparison with NaN is false; the
        # ndarray method skips np.max's dispatch
        if a.size and not np.abs(a).max() <= LOG_WEIGHT_LIMIT:
            raise DivergedModelError(
                f"|log w| exceeded {LOG_WEIGHT_LIMIT} or is not a number; "
                "the model has diverged"
            )


def finite_sample_loss(logw0: np.ndarray, logw1: np.ndarray, counts0=None,
                       counts1=None) -> float:
    """l_n(w) = mean of w^{-1} over group 0 plus mean of w over group 1.
    Counts weight the entries as in row_masses."""
    return float(_row_mean(np.exp(-logw0), counts0) + _row_mean(np.exp(logw1), counts1))


def row_masses(logw0: np.ndarray, logw1: np.ndarray, counts0=None, counts1=None):
    """Per-row masses w^{-1}/n0 on group 0 and w/n1 on group 1.

    Summed over a leaf's rows they are the masses optimal_leaf_value takes,
    and (m0, -m1) are the negative gradients of l_n with respect to the
    additive value F(x), the pseudo-residuals of gradient boosting.

    With counts, entry i stands for counts[i] rows that share its log w (a
    grid cell), n is the sum of the counts, and the mass is the rows' sum,
    counts[i] times the per-row mass.
    """
    return _masses(np.exp(-logw0), counts0), _masses(np.exp(logw1), counts1)


def _masses(e: np.ndarray, counts) -> np.ndarray:
    if counts is None:
        return e / e.size
    return counts * e / counts.sum()


def _row_mean(e: np.ndarray, counts) -> float:
    """The mean of e over rows, where entry i stands for counts[i] rows."""
    if counts is None:
        return e.mean()
    # np.dot would call BLAS, whose sum over many entries depends on its
    # thread count; numpy's own pairwise sum does not
    return np.add.reduce(counts * e) / counts.sum()


def optimal_leaf_value(p_mass, q_mass):
    """The beta minimizing p_mass*e^{-beta} + q_mass*e^{beta}, elementwise
    over arrays of leaf masses.

    Closed form: beta = (log p_mass - log q_mass) / 2.
    """
    p_mass = np.asarray(p_mass, dtype=np.float64)
    q_mass = np.asarray(q_mass, dtype=np.float64)
    bad = (p_mass <= 0) | (q_mass <= 0)
    if bad.any():
        raise DegenerateLeafError(
            f"degenerate leaf: masses must be positive, got ({p_mass[bad][0]}, "
            f"{q_mass[bad][0]})"
        )
    return 0.5 * (np.log(p_mass) - np.log(q_mass))


def optimal_leaf_loss(p_mass, q_mass):
    """The minimum over beta of p_mass*e^{-beta} + q_mass*e^{beta}, attained
    at optimal_leaf_value: 2*sqrt(p_mass*q_mass)."""
    return 2.0 * np.sqrt(p_mass * q_mass)


def rebalance(logw0: np.ndarray, logw1: np.ndarray, counts0=None, counts1=None):
    """The shift log_c of every log-weight that equalizes the two terms of
    l_n, and the loss after the shift, 2*sqrt(mean(w^{-1}) * mean(w)).
    Counts weight the entries as in row_masses.

    Shifting by log_c never increases the loss.
    """
    e0 = _row_mean(np.exp(-logw0), counts0)
    e1 = _row_mean(np.exp(logw1), counts1)
    return 0.5 * (np.log(e0) - np.log(e1)), optimal_leaf_loss(e0, e1)

