"""The balancing loss on log-weights: finite-sample value, per-row masses
(the negative gradients), optimal leaf weights and rebalancing.

finite_sample_loss, row_masses and rebalance take the log-weights log w over
group 0 and group 1 as the two arrays (logw0, logw1) that boosting and the
sampler hold, and optionally per-entry row counts, for the grid cells they
run on. A Stack holds the arrays of several independent members end to end in
one flat array and computes every member's masses and rebalance at once; the
two-array functions are its one-member case.
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


class Stack:
    """The layout of several members' log-weight arrays held end to end in
    one flat array: group 0's array of every member, member by member, then
    group 1's. Entry i stands for counts[i] rows that share its log w (a grid
    cell), and an array's rows are the sum of its counts.

    The loss terms of a member are the row means of w^{-1} over its group-0
    array and of w over its group-1 array. Each is one numpy pairwise sum
    over that array alone, so a member's terms are bit for bit those of a
    stack of that member only.
    """

    def __init__(self, counts0, counts1):
        """counts0[m] and counts1[m] are member m's row counts per entry in
        group 0 and in group 1."""
        arrays = [np.asarray(c, dtype=np.float64) for c in (*counts0, *counts1)]
        self.members = len(counts0)
        self.sizes = np.array([a.size for a in arrays])
        self.counts = np.concatenate(arrays)
        self.bounds = [0, *np.cumsum(self.sizes).tolist()]
        # whole numbers, which any order sums exactly
        self.rows = np.array([np.add.reduce(a) for a in arrays])

    def _row_sums(self, logw):
        """counts * w^{-1} on group 0's entries and counts * w on group 1's."""
        e = np.array(logw, dtype=np.float64)
        group0 = e[:self.bounds[self.members]]
        np.negative(group0, out=group0)
        np.exp(e, out=e)
        e *= self.counts
        return e

    def masses(self, logw):
        """Every entry's row mass (see row_masses), in one flat array."""
        e = self._row_sums(logw)
        e /= np.repeat(self.rows, self.sizes)
        return e

    def means(self, logw):
        """(mean of w^{-1} over group 0's rows, mean of w over group 1's
        rows), each an array with one value per member."""
        e = self._row_sums(logw)
        b = self.bounds
        # np.dot would call BLAS, whose sum over many entries depends on its
        # thread count; numpy's own pairwise sum does not
        means = np.array([np.add.reduce(e[i:j]) for i, j in zip(b[:-1], b[1:])]) / self.rows
        return means[:self.members], means[self.members:]

    def rebalance(self, logw):
        """Each member's rebalance shift and loss after it (see rebalance),
        as two arrays."""
        e0, e1 = self.means(logw)
        return 0.5 * (np.log(e0) - np.log(e1)), optimal_leaf_loss(e0, e1)


def _one_member(logw0, logw1, counts0, counts1):
    """The Stack of one member, where missing counts are one row per entry,
    and its flat log w."""
    counts = [np.ones(np.size(w)) if c is None else c
              for w, c in ((logw0, counts0), (logw1, counts1))]
    return Stack(counts[:1], counts[1:]), np.concatenate([logw0, logw1])


def finite_sample_loss(logw0: np.ndarray, logw1: np.ndarray, counts0=None,
                       counts1=None) -> float:
    """l_n(w) = mean of w^{-1} over group 0 plus mean of w over group 1.
    Counts weight the entries as in row_masses."""
    stack, logw = _one_member(logw0, logw1, counts0, counts1)
    e0, e1 = stack.means(logw)
    return float(e0[0] + e1[0])


def row_masses(logw0: np.ndarray, logw1: np.ndarray, counts0=None, counts1=None):
    """Per-row masses w^{-1}/n0 on group 0 and w/n1 on group 1.

    Summed over a leaf's rows they are the masses optimal_leaf_value takes,
    and (m0, -m1) are the negative gradients of l_n with respect to the
    additive value F(x), the pseudo-residuals of gradient boosting.

    With counts, entry i stands for counts[i] rows that share its log w (a
    grid cell), n is the sum of the counts, and the mass is the rows' sum,
    counts[i] times the per-row mass.
    """
    stack, logw = _one_member(logw0, logw1, counts0, counts1)
    return tuple(np.split(stack.masses(logw), [np.size(logw0)]))


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
    stack, logw = _one_member(logw0, logw1, counts0, counts1)
    log_c, loss = stack.rebalance(logw)
    return log_c[0], loss[0]
