"""Generalized-Bayesian inference: inverse-Gaussian conjugate leaf updates,
Bayesian-CART Metropolis-Hastings tree moves, the Gamma full conditional for
the temperature, and posterior summarization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CutGrid, TwoSampleDataset
from .loss import check_log_weights, finite_sample_loss
from .tree import DecisionTree, TreePrior, split_probability

GROW, PRUNE, CHANGE = 0, 1, 2


@dataclass
class GibbsConfig:
    n_trees: int = 200
    lambda0: float = 5.0
    a_T: float = 0.95
    b_T: float = 2.0
    a0_tau: float = 1.0
    b0_tau: float = 1.0
    burn_in: int = 2000
    draws: int = 1000
    move_probs: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 2 or self.n_trees % 2 != 0:
            raise ValueError("n_trees must be even (prior alternation needs pairs)")
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        if not (self.a0_tau > 0 and self.b0_tau > 0):
            raise ValueError("a0_tau and b0_tau must be positive")
        p = np.asarray(self.move_probs, dtype=np.float64)
        if p.shape != (3,) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
            raise ValueError("move_probs must be three nonnegative values summing to 1")
        if self.burn_in < 0 or self.draws < 0:
            raise ValueError("burn_in and draws must be >= 0")

    @property
    def leaf_precision(self) -> float:
        # Prior precision scales with the ensemble size.
        return self.lambda0 * self.n_trees

    def tree_prior(self) -> TreePrior:
        return TreePrior(self.a_T, self.b_T)


@dataclass(frozen=True)
class LeafPosteriorParams:
    mu_prime: float
    lambda_prime: float


def _posterior_params(s0, s1, tau, zeta, lam, even, mu=1.0):
    """Inverse-Gaussian full-conditional parameters for a leaf.

    For odd-indexed trees these parameterize gamma = e^beta; for
    even-indexed trees the group roles swap and they parameterize 1/gamma.
    """
    a = 2.0 * tau * np.asarray(s0) / zeta
    b = 2.0 * tau * np.asarray(s1) / (1.0 - zeta)
    if even:
        a, b = b, a
    lam_p = lam + a
    mu_p = np.sqrt(lam_p / (lam / mu**2 + b))
    return mu_p, lam_p


def leaf_full_conditional(s0: float, s1: float, tau: float, zeta: float,
                          lam: float, parity: str = "odd") -> LeafPosteriorParams:
    if s0 < 0 or s1 < 0 or tau < 0:
        raise ValueError("leaf sums and tau must be nonnegative")
    mu_p, lam_p = _posterior_params(s0, s1, tau, zeta, lam, even=(parity == "even"))
    return LeafPosteriorParams(float(mu_p), float(lam_p))


def integrated_leaf_loglik(s0, s1, tau, zeta, lam, even=False):
    """log of the leaf likelihood with the leaf parameter integrated out:
    0.5*(log lam - log lam') + lam - lam'/mu' (prior mean 1)."""
    mu_p, lam_p = _posterior_params(s0, s1, tau, zeta, lam, even)
    return 0.5 * (np.log(lam) - np.log(lam_p)) + lam - lam_p / mu_p


def sample_inverse_gaussian(mu, lam, rng: np.random.Generator):
    """Inverse-Gaussian draws via the squared-normal transformation with
    the Michael-Schucany-Haas rejection step. Vectorized over mu/lam."""
    mu = np.asarray(mu, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    shape = np.broadcast_shapes(mu.shape, lam.shape)
    y = rng.standard_normal(shape) ** 2
    x = mu + mu**2 * y / (2.0 * lam) - mu / (2.0 * lam) * np.sqrt(
        4.0 * mu * lam * y + mu**2 * y**2
    )
    x = np.maximum(x, np.finfo(np.float64).tiny)
    u = rng.random(shape)
    out = np.where(u <= mu / (mu + x), x, mu**2 / x)
    return float(out) if out.ndim == 0 else out


def update_tau(logw0: np.ndarray, logw1: np.ndarray, a0: float, b0: float,
               rng: np.random.Generator) -> float:
    """Draw from the Gamma full conditional: shape a0 + n, rate b0 + n*l_n."""
    check_log_weights(logw0, logw1)
    n = logw0.size + logw1.size
    rate = b0 + n * finite_sample_loss(logw0, logw1)
    return float(rng.gamma(a0 + n, 1.0 / rate))


def prior_log_weight_draws(n_trees: int, lambda0: float, n_draws: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Direct draws of log w(x) at a fixed point under the alternating
    inverse-Gaussian prior (no data)."""
    if n_trees % 2 != 0:
        raise ValueError("n_trees must be even")
    half = n_trees // 2
    lam = lambda0 * n_trees
    z_odd = sample_inverse_gaussian(np.ones((n_draws, half)), lam, rng)
    z_even = sample_inverse_gaussian(np.ones((n_draws, half)), lam, rng)
    return np.log(z_odd).sum(axis=1) - np.log(z_even).sum(axis=1)


class SamplerTree:
    """Mutable tree state inside the sampler, kept consistent across moves.

    The structure uses DecisionTree's preorder layout, held in lists:
    feature (-1 at a leaf), right (the right child's index, -1 at a leaf)
    and value (the threshold at an internal node), plus each node's depth
    and slot. A leaf's slot is its index into betas, -1 at internal nodes;
    leaf_idx holds each row's leaf slot.
    """

    def __init__(self, n_rows: int, even: bool):
        self.feature = [-1]
        self.right = [-1]
        self.value = [0.0]
        self.depth = [0]
        self.slot = [0]
        self.betas = np.zeros(1)
        self.leaf_idx = np.zeros(n_rows, dtype=np.int64)
        self.even = even

    def contributions(self) -> np.ndarray:
        return self.betas[self.leaf_idx]

    def rows_of(self, slot: int) -> np.ndarray:
        return np.nonzero(self.leaf_idx == slot)[0]

    def apply_grow(self, i: int, dim: int, threshold: float,
                   rows_right: np.ndarray) -> None:
        """Split leaf i: its left child keeps its slot, the right child
        takes the next free one."""
        kept, new = self.slot[i], self.n_leaves()
        self.right = [r + 2 if r > i else r for r in self.right]
        self.feature[i], self.right[i], self.value[i], self.slot[i] = dim, i + 2, threshold, -1
        child = self.depth[i] + 1
        self.feature[i + 1:i + 1] = [-1, -1]
        self.right[i + 1:i + 1] = [-1, -1]
        self.value[i + 1:i + 1] = [0.0, 0.0]
        self.depth[i + 1:i + 1] = [child, child]
        self.slot[i + 1:i + 1] = [kept, new]
        self.betas = np.append(self.betas, self.betas[kept])
        self.leaf_idx[rows_right] = new

    def apply_prune(self, i: int) -> None:
        """Merge the two leaves under node i into it. Node i takes the left
        leaf's slot, and the last slot moves into the freed right one."""
        keep, drop = self.slot[i + 1], self.slot[i + 2]
        self.leaf_idx[self.leaf_idx == drop] = keep
        for column in (self.feature, self.right, self.value, self.depth, self.slot):
            del column[i + 1:i + 3]
        self.feature[i], self.right[i], self.value[i], self.slot[i] = -1, -1, 0.0, keep
        self.right = [r - 2 if r > i else r for r in self.right]
        last = self.n_leaves() - 1
        if drop != last:
            self.slot[self.slot.index(last)] = drop
            self.betas[drop] = self.betas[last]
            self.leaf_idx[self.leaf_idx == last] = drop
        self.betas = self.betas[:-1]

    def apply_change(self, i: int, dim: int, threshold: float,
                     rows_left: np.ndarray, rows_right: np.ndarray) -> None:
        self.feature[i] = dim
        self.value[i] = threshold
        self.leaf_idx[rows_left] = self.slot[i + 1]
        self.leaf_idx[rows_right] = self.slot[i + 2]

    def n_leaves(self) -> int:
        return self.betas.size

    def max_depth(self) -> int:
        return max(self.depth)

    def decision_tree(self, dim: int) -> DecisionTree:
        """The tree with its current leaf betas, in DecisionTree form."""
        value = np.array(self.value)
        slot = np.array(self.slot)
        leaf = slot >= 0
        value[leaf] = self.betas[slot[leaf]]
        return DecisionTree(self.feature, self.right, value, dim)


class MoveContext:
    """Everything a tree move needs about the residual state w_{-k}."""

    def __init__(self, bins, cuts, w0row, w1row, tau, zeta, lam,
                 prior: TreePrior, move_probs):
        self.bins = bins
        self.cuts = cuts
        self.w0row = w0row
        self.w1row = w1row
        self.tau = tau
        self.zeta = zeta
        self.lam = lam
        self.prior = prior
        self.move_probs = np.asarray(move_probs)

    def leaf_stats(self, rows: np.ndarray):
        return self.w0row[rows].sum(), self.w1row[rows].sum()

    def loglik(self, s0, s1, even):
        return integrated_leaf_loglik(s0, s1, self.tau, self.zeta, self.lam, even)


def _grow_factor(prior: TreePrior, depth: int) -> float:
    a, b = prior.a_T, prior.b_T
    return a * (1.0 - a * (2.0 + depth) ** (-b)) ** 2 / ((1.0 + depth) ** b - a)


def mh_tree_move(tree: SamplerTree, ctx: MoveContext,
                 rng: np.random.Generator):
    """One GROW/PRUNE/CHANGE proposal; mutates the tree when accepted.

    Returns (move, accepted). PRUNE/CHANGE on a root-only tree are no-ops
    counted as rejections.
    """
    move = int(rng.choice(3, p=ctx.move_probs))
    feature = tree.feature
    # Leaves and second-generation internal nodes (internal nodes whose two
    # children are leaves), in preorder. An internal node whose left child
    # is a leaf has its right child next.
    leaves = [i for i, f in enumerate(feature) if f < 0]
    two_gi = [i for i in range(len(feature) - 2)
              if feature[i] >= 0 and feature[i + 1] < 0 and feature[i + 2] < 0]
    even = tree.even
    if move == GROW:
        leaf = leaves[int(rng.integers(len(leaves)))]
        dim = int(rng.integers(ctx.bins.shape[1]))
        j = int(rng.integers(len(ctx.cuts[dim])))
        rows = tree.rows_of(tree.slot[leaf])
        go_left = ctx.bins[rows, dim] <= j
        rows_l, rows_r = rows[go_left], rows[~go_left]
        s0l, s1l = ctx.leaf_stats(rows_l)
        s0r, s1r = ctx.leaf_stats(rows_r)
        # the leaf's parent is the node before it when that node is internal
        # (the leaf is its left child), else the node whose right child it is
        par = -1 if leaf == 0 else (
            leaf - 1 if feature[leaf - 1] >= 0 else tree.right.index(leaf))
        par_was_2gi = par in two_gi
        n2gi_new = len(two_gi) + 1 - (1 if par_was_2gi else 0)
        log_alpha = (
            math.log(_grow_factor(ctx.prior, tree.depth[leaf]))
            + math.log(len(leaves)) - math.log(n2gi_new)
            + ctx.loglik(s0l, s1l, even) + ctx.loglik(s0r, s1r, even)
            - ctx.loglik(s0l + s0r, s1l + s1r, even)
        )
        if math.log(rng.random()) < log_alpha:
            tree.apply_grow(leaf, dim, float(ctx.cuts[dim][j]), rows_r)
            return move, True
        return move, False
    if not two_gi:
        return move, False
    node = two_gi[int(rng.integers(len(two_gi)))]
    rows_l, rows_r = tree.rows_of(tree.slot[node + 1]), tree.rows_of(tree.slot[node + 2])
    s0l, s1l = ctx.leaf_stats(rows_l)
    s0r, s1r = ctx.leaf_stats(rows_r)
    old_ll = ctx.loglik(s0l, s1l, even) + ctx.loglik(s0r, s1r, even)
    if move == PRUNE:
        log_alpha = (
            -math.log(_grow_factor(ctx.prior, tree.depth[node]))
            + math.log(len(two_gi)) - math.log(len(leaves) - 1)
            + ctx.loglik(s0l + s0r, s1l + s1r, even) - old_ll
        )
        if math.log(rng.random()) < log_alpha:
            tree.apply_prune(node)
            return move, True
        return move, False
    # CHANGE: resample the rule from the prior; prior x transition ratio is 1.
    dim = int(rng.integers(ctx.bins.shape[1]))
    j = int(rng.integers(len(ctx.cuts[dim])))
    rows = np.concatenate([rows_l, rows_r])
    go_left = ctx.bins[rows, dim] <= j
    new_l, new_r = rows[go_left], rows[~go_left]
    s0nl, s1nl = ctx.leaf_stats(new_l)
    s0nr, s1nr = ctx.leaf_stats(new_r)
    log_alpha = ctx.loglik(s0nl, s1nl, even) + ctx.loglik(s0nr, s1nr, even) - old_ll
    if math.log(rng.random()) < log_alpha:
        tree.apply_change(node, dim, float(ctx.cuts[dim][j]), new_l, new_r)
        return move, True
    return move, False


def _resample_betas(tree: SamplerTree, ctx: MoveContext,
                    rng: np.random.Generator) -> None:
    nl = tree.n_leaves()
    s0 = np.bincount(tree.leaf_idx, weights=ctx.w0row, minlength=nl)[:nl]
    s1 = np.bincount(tree.leaf_idx, weights=ctx.w1row, minlength=nl)[:nl]
    mu_p, lam_p = _posterior_params(s0, s1, ctx.tau, ctx.zeta, ctx.lam, tree.even)
    z = sample_inverse_gaussian(mu_p, lam_p, rng)
    tree.betas = -np.log(z) if tree.even else np.log(z)


@dataclass
class PosteriorDraws:
    """Recorded MCMC output: pointwise log-ratio draws, temperatures, and
    per-draw ensemble summaries."""

    log_ratio_draws: np.ndarray  # draws x eval points
    tau_draws: np.ndarray
    mean_leaves: np.ndarray
    mean_depth: np.ndarray
    move_attempts: np.ndarray  # sweeps x 3 (grow, prune, change)
    move_accepts: np.ndarray

    @property
    def n_draws(self) -> int:
        return self.log_ratio_draws.shape[0]


def run_sampler(data: TwoSampleDataset, grid: CutGrid, config: GibbsConfig,
                eval_points: np.ndarray | None = None,
                prior_only: bool = False) -> PosteriorDraws:
    """Metropolis-within-Gibbs over trees, betas, and the temperature.

    Per sweep: for every tree, compute the residual weights w_{-k}, attempt
    one structural move, and redraw its leaf parameters; then update tau.
    Evaluation points default to the union of the two training samples.
    """
    rng = np.random.default_rng(config.seed)
    n0, n1, n = data.n0, data.n1, data.n
    train = data.pooled()
    if eval_points is None:
        X = train
        eval_lo = 0
    else:
        eval_points = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
        if eval_points.shape[1] != data.dim:
            raise ValueError("evaluation points must match the data dimension")
        X = np.vstack([train, eval_points])
        eval_lo = n
    N = X.shape[0]
    bins = grid.bin_indices(X)
    prior = config.tree_prior()
    lam = config.leaf_precision
    zeta = data.zeta
    trees = [SamplerTree(N, even=(k % 2 == 1)) for k in range(config.n_trees)]
    logw = np.zeros(N)
    tau = 0.0 if prior_only else config.a0_tau / config.b0_tau
    total = config.burn_in + config.draws
    n_eval = N - eval_lo
    lr_draws = np.empty((config.draws, n_eval))
    tau_draws = np.empty(config.draws)
    mean_leaves = np.empty(config.draws)
    mean_depth = np.empty(config.draws)
    attempts = np.zeros((total, 3), dtype=np.int64)
    accepts = np.zeros((total, 3), dtype=np.int64)
    w0row = np.zeros(N)
    w1row = np.zeros(N)
    for sweep in range(total):
        for tree in trees:
            logw -= tree.contributions()
            check_log_weights(logw[:n])
            w0row[:n0] = np.exp(-logw[:n0])
            w1row[n0:n] = np.exp(logw[n0:n])
            ctx = MoveContext(bins, grid.cuts, w0row, w1row, tau, zeta, lam,
                              prior, config.move_probs)
            move, ok = mh_tree_move(tree, ctx, rng)
            attempts[sweep, move] += 1
            if ok:
                accepts[sweep, move] += 1
            _resample_betas(tree, ctx, rng)
            logw += tree.contributions()
        if not prior_only:
            tau = update_tau(logw[:n0], logw[n0:n], config.a0_tau, config.b0_tau, rng)
        if (sweep + 1) % 100 == 0:
            _verify_state(trees, X, logw)
        if sweep >= config.burn_in:
            d = sweep - config.burn_in
            lr_draws[d] = 2.0 * logw[eval_lo:]
            tau_draws[d] = tau
            mean_leaves[d] = np.mean([t.n_leaves() for t in trees])
            mean_depth[d] = np.mean([t.max_depth() for t in trees])
    return PosteriorDraws(lr_draws, tau_draws, mean_leaves, mean_depth,
                          attempts, accepts)


def _verify_state(trees, X, logw, tol=1e-8) -> None:
    """Recompute log w by routing every point through each tree's float
    thresholds; guards the incrementally maintained state."""
    fresh = np.zeros(X.shape[0])
    for tree in trees:
        fresh += tree.decision_tree(X.shape[1]).evaluate_many(X)
    err = np.max(np.abs(fresh - logw)) if logw.size else 0.0
    if err > tol:
        raise AssertionError(f"incremental log-weight state drifted by {err}")


def summarize(draws: PosteriorDraws, quantiles=(0.025, 0.975)):
    """Per-point posterior mean and linear-interpolation quantiles of log r.

    Returns (means, quantile matrix of shape n_points x len(quantiles)).
    """
    if draws.n_draws == 0:
        raise ValueError("no posterior draws to summarize")
    q = np.asarray(quantiles, dtype=np.float64)
    if np.any((q <= 0) | (q >= 1)):
        raise ValueError("quantiles must lie strictly inside (0, 1)")
    means = draws.log_ratio_draws.mean(axis=0)
    qs = np.quantile(draws.log_ratio_draws, q, axis=0).T
    return means, qs
