"""Generalized-Bayesian inference: inverse-Gaussian conjugate leaf updates,
Bayesian-CART Metropolis-Hastings tree moves, the Gamma full conditional for
the temperature, and posterior summarization."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import CutGrid, TwoSampleDataset
from .loss import check_log_weights, finite_sample_loss
from .tree import DecisionTree, TreePrior, setting_int, setting_number

GROW, PRUNE, CHANGE = 0, 1, 2
# each move is proposed w.p. 1/3: the cdf that Generator.choice(3) searches
# for p = (1/3, 1/3, 1/3)
_MOVE_CDF = (1.0 / 3.0, 2.0 / 3.0, 1.0)
# BART's tree prior (Chipman, George & McCulloch 2010) and tau ~ Gamma(1, 1)
TREE_PRIOR = TreePrior(0.95, 2.0)
TAU_SHAPE, TAU_RATE = 1.0, 1.0
QUANTILES = (0.025, 0.975)  # summarize's default posterior band


@dataclass
class GibbsConfig:
    n_trees: int = 200
    lambda0: float = 5.0
    burn_in: int = 2000
    draws: int = 1000  # at least 1: every caller summarizes the draws
    seed: int = 0

    def __post_init__(self):
        for name, low in {"n_trees": 2, "burn_in": 0, "draws": 1, "seed": 0}.items():
            setattr(self, name, setting_int(name, getattr(self, name), low))
        if self.n_trees % 2 != 0:
            raise ValueError("n_trees must be even (prior alternation needs pairs)")
        self.lambda0 = setting_number("lambda0", self.lambda0, lambda v: 0 < v < math.inf,
                                      "be positive and finite")

    @property
    def leaf_precision(self) -> float:
        # Prior precision scales with the ensemble size.
        return self.lambda0 * self.n_trees


def _posterior_params(s0: float, s1: float, tau: float, zeta: float, lam: float,
                      even: bool):
    """Inverse-Gaussian full-conditional parameters (mu', lam') of one leaf,
    in Python floats; the prior is IG(1, lam).

    For odd-indexed trees these parameterize gamma = e^beta; for
    even-indexed trees the group roles swap and they parameterize 1/gamma.
    """
    a = 2.0 * tau * s0 / zeta
    b = 2.0 * tau * s1 / (1.0 - zeta)
    if even:
        a, b = b, a
    lam_p = lam + a
    return math.sqrt(lam_p / (lam + b)), lam_p


def integrated_leaf_loglik(s0, s1, tau, zeta, lam, even=False):
    """log of the leaf likelihood with the leaf parameter integrated out:
    0.5*(log lam - log lam') + lam - lam'/mu' (prior mean 1)."""
    mu_p, lam_p = _posterior_params(s0, s1, tau, zeta, lam, even)
    return 0.5 * (math.log(lam) - math.log(lam_p)) + lam - lam_p / mu_p


_TINY = float(np.finfo(np.float64).tiny)


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
    x = np.maximum(x, _TINY)
    u = rng.random(shape)
    out = np.where(u <= mu / (mu + x), x, mu**2 / x)
    return float(out) if out.ndim == 0 else out


def update_tau(logw0: np.ndarray, logw1: np.ndarray, a0: float, b0: float,
               rng: np.random.Generator, counts0=None, counts1=None) -> float:
    """Draw from the Gamma full conditional: shape a0 + n, rate b0 + n*l_n.
    Counts weight the entries as in loss.row_masses, and n counts rows."""
    check_log_weights(logw0, logw1)
    if counts0 is None:
        n = logw0.size + logw1.size
    else:
        n = counts0.sum() + counts1.sum()
    rate = b0 + n * finite_sample_loss(logw0, logw1, counts0, counts1)
    return float(rng.gamma(a0 + n, 1.0 / rate))


class SamplerTree:
    """Mutable tree state inside the sampler, kept consistent across moves.

    The structure uses DecisionTree's preorder layout, held in lists:
    feature (-1 at a leaf), right (the right child's index, -1 at a leaf)
    and value (the threshold at an internal node), plus each node's depth
    and slot. A leaf's slot is its index into betas, -1 at internal nodes.
    The tree's rows are the sampler's occupied grid cells (see run_sampler);
    leaf_idx holds each one's leaf slot, as int32 to halve the memory of an
    ensemble's index.
    """

    def __init__(self, n_rows: int, even: bool):
        self.feature = [-1]
        self.right = [-1]
        self.value = [0.0]
        self.depth = [0]
        self.slot = [0]
        self.betas = np.zeros(1)
        self.leaf_idx = np.zeros(n_rows, dtype=np.int32)
        self.even = even

    def contributions(self) -> np.ndarray:
        # take, unlike fancy indexing, costs no more with an int32 index
        return self.betas.take(self.leaf_idx)

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
                     to_left: np.ndarray, to_right: np.ndarray) -> None:
        """Give node i a new rule; to_left and to_right select the cells
        that move into its left and right leaf."""
        self.feature[i] = dim
        self.value[i] = threshold
        self.leaf_idx[to_left] = self.slot[i + 1]
        self.leaf_idx[to_right] = self.slot[i + 2]

    def n_leaves(self) -> int:
        return self.betas.size

    def decision_tree(self, dim: int) -> DecisionTree:
        """The tree with its current leaf betas, in DecisionTree form."""
        value = np.array(self.value)
        slot = np.array(self.slot)
        leaf = slot >= 0
        value[leaf] = self.betas[slot[leaf]]
        return DecisionTree(self.feature, self.right, value, dim)


class MoveContext:
    """Everything a tree update needs about the residual state w_{-k}.

    run_sampler builds one per run, over the occupied grid cells of its
    points: bins holds each cell's bin row, the training cells first as the
    prefix [0, C), then the cells that only evaluation points occupy.
    counts0 and counts1 hold each training cell's group-0 and group-1 row
    counts. Before each tree update, set_residual refills the per-cell
    masses in place: w0 = counts0 * w^{-1} and w1 = counts1 * w on the
    prefix; both stay 0 on evaluation-only cells. Where each row is its own
    cell, the counts are 0/1 group indicators and the masses are the per-row
    weights exactly. tau starts at 0, where moves follow the tree prior
    alone, and run_sampler sets it once per sweep.
    """

    def __init__(self, bins, cuts, counts0: np.ndarray, counts1: np.ndarray,
                 zeta: float, lam: float, prior: TreePrior):
        # one contiguous bin column per dimension, for the moves' cell splits
        self.columns = [np.ascontiguousarray(bins[:, d]) for d in range(bins.shape[1])]
        self.cuts = cuts
        self.counts0 = np.asarray(counts0, dtype=np.float64)
        self.counts1 = np.asarray(counts1, dtype=np.float64)
        self.w0 = np.zeros(bins.shape[0])
        self.w1 = np.zeros(bins.shape[0])
        # the training prefix of the masses, as views filled in place
        self._w0 = self.w0[:self.counts0.size]
        self._w1 = self.w1[:self.counts1.size]
        self.tau = 0.0
        self.zeta = zeta
        self.lam = lam
        self.prior = prior

    def set_residual(self, logw: np.ndarray) -> None:
        w0, w1 = self._w0, self._w1
        np.negative(logw[:w0.size], out=w0)
        np.exp(w0, out=w0)
        w0 *= self.counts0
        np.exp(logw[:w1.size], out=w1)
        w1 *= self.counts1

    def key_sums(self, key: np.ndarray, length: int):
        """The two group masses of the training cells summed by key, as
        lists of the given length. Each sum adds its cells in cell order."""
        key = key[:self._w0.size]
        return (np.bincount(key, weights=self._w0, minlength=length).tolist(),
                np.bincount(key, weights=self._w1, minlength=length).tolist())

    def leaf_sums(self, tree: SamplerTree):
        """Every leaf's two group masses, as lists indexed by slot."""
        return self.key_sums(tree.leaf_idx, tree.n_leaves())


def draw_move(rng: np.random.Generator) -> int:
    """GROW, PRUNE or CHANGE, as Generator.choice(3) draws it: one uniform,
    searched in the cdf with side="right"."""
    return bisect_right(_MOVE_CDF, rng.random())


def _grow_factor(prior: TreePrior, depth: int) -> float:
    a, b = prior.a_T, prior.b_T
    return a * (1.0 - a * (2.0 + depth) ** (-b)) ** 2 / ((1.0 + depth) ** b - a)


def mh_tree_move(tree: SamplerTree, ctx: MoveContext,
                 rng: np.random.Generator):
    """One GROW/PRUNE/CHANGE proposal; mutates the tree when accepted.

    Returns (move, accepted, s0, s1): the leaf sums of the tree after the
    move, as MoveContext.leaf_sums, from the bincount pair of the MH ratio.
    PRUNE/CHANGE on a root-only tree are no-ops counted as rejections.
    """
    move = draw_move(rng)
    feature = tree.feature
    # Leaves and second-generation internal nodes (internal nodes whose two
    # children are leaves), in preorder. An internal node whose left child
    # is a leaf has its right child next.
    leaves = [i for i, f in enumerate(feature) if f < 0]
    two_gi = [i for i in range(len(feature) - 2)
              if feature[i] >= 0 and feature[i + 1] < 0 and feature[i + 2] < 0]
    # a leaf's integrated log-likelihood is ll(s0, s1, *p)
    ll, p = integrated_leaf_loglik, (ctx.tau, ctx.zeta, ctx.lam, tree.even)
    idx, nl = tree.leaf_idx, tree.n_leaves()
    if move == GROW:
        leaf = leaves[int(rng.integers(len(leaves)))]
        dim = int(rng.integers(len(ctx.columns)))
        j = int(rng.integers(len(ctx.cuts[dim])))
        slot = tree.slot[leaf]
        # the leaf's cells right of the cut are summed in the new slot nl
        right = ctx.columns[dim] > j
        right &= idx == slot
        s0, s1 = ctx.key_sums(np.where(right, nl, idx), nl + 1)
        s0l, s1l, s0r, s1r = s0[slot], s1[slot], s0[nl], s1[nl]
        # the leaf's parent is the node before it when that node is internal
        # (the leaf is its left child), else the node whose right child it is
        par = -1 if leaf == 0 else (
            leaf - 1 if feature[leaf - 1] >= 0 else tree.right.index(leaf))
        n2gi_new = len(two_gi) + 1 - (1 if par in two_gi else 0)
        log_alpha = (math.log(_grow_factor(ctx.prior, tree.depth[leaf]))
                     + math.log(len(leaves)) - math.log(n2gi_new)
                     + ll(s0l, s1l, *p) + ll(s0r, s1r, *p) - ll(s0l + s0r, s1l + s1r, *p))
        if math.log(rng.random()) < log_alpha:
            tree.apply_grow(leaf, dim, float(ctx.cuts[dim][j]), right)
            return move, True, s0, s1
        s0[slot], s1[slot] = s0l + s0.pop(), s1l + s1.pop()
        return move, False, s0, s1
    if not two_gi:
        return (move, False, *ctx.leaf_sums(tree))
    node = two_gi[int(rng.integers(len(two_gi)))]
    a, b = tree.slot[node + 1], tree.slot[node + 2]
    if move == PRUNE:
        s0, s1 = ctx.leaf_sums(tree)
        l0, l1 = s0[a] + s0[b], s1[a] + s1[b]  # the merged leaf
        log_alpha = (-math.log(_grow_factor(ctx.prior, tree.depth[node]))
                     + math.log(len(two_gi)) - math.log(len(leaves) - 1) + ll(l0, l1, *p))
    else:  # CHANGE: resample the rule from the prior; prior x transition ratio is 1
        dim = int(rng.integers(len(ctx.columns)))
        j = int(rng.integers(len(ctx.cuts[dim])))
        # slot l + nl sums the cells of leaf l right of the new cut
        key = idx + (ctx.columns[dim] > j) * nl
        s0, s1 = ctx.key_sums(key, 2 * nl)
        l0, l1 = s0[a] + s0[b], s1[a] + s1[b]
        r0, r1 = s0[a + nl] + s0[b + nl], s1[a + nl] + s1[b + nl]
        s0 = [x + y for x, y in zip(s0[:nl], s0[nl:])]
        s1 = [x + y for x, y in zip(s1[:nl], s1[nl:])]
        log_alpha = ll(l0, l1, *p) + ll(r0, r1, *p)
    log_alpha -= ll(s0[a], s1[a], *p) + ll(s0[b], s1[b], *p)
    if not math.log(rng.random()) < log_alpha:  # a NaN ratio rejects
        return move, False, s0, s1
    if move == PRUNE:
        tree.apply_prune(node)
        # as apply_prune relabels: a takes the merged leaf, the last slot moves to b
        s0[a], s1[a] = l0, l1
        s0[b], s1[b] = s0[-1], s1[-1]
        del s0[-1], s1[-1]
    else:
        # b's cells left of the cut move to a, and a's right of it to b
        tree.apply_change(node, dim, float(ctx.cuts[dim][j]), key == b, key == a + nl)
        s0[a], s1[a], s0[b], s1[b] = l0, l1, r0, r1
    return move, True, s0, s1


def _resample_betas(tree: SamplerTree, ctx: MoveContext, rng: np.random.Generator,
                    s0: list, s1: list) -> None:
    """Redraw every leaf beta from its inverse-Gaussian full conditional,
    given the leaf sums s0 and s1 by slot (MoveContext.leaf_sums).

    This is sample_inverse_gaussian leaf by leaf, in Python floats, on the
    same standard_normal(nl) and random(nl) draws, so the draws are bit-equal
    to it. A tree has a handful of leaves, so numpy's cost per call
    dominates: on arrays of leaf parameters, a K=200 run on GlobalShift2D
    2500/2500 took 0.59 s against 0.47 s (2-core VM, numpy 2.4.6).
    """
    nl = tree.n_leaves()
    y = rng.standard_normal(nl)
    u = rng.random(nl)
    tau, zeta, lam, even = ctx.tau, ctx.zeta, ctx.lam, tree.even
    z = []
    for s0l, s1l, g, ul in zip(s0, s1, y.tolist(), u.tolist()):
        mu, lam_p = _posterior_params(s0l, s1l, tau, zeta, lam, even)
        # Michael-Schucany-Haas, in the operation order of sample_inverse_gaussian
        yl = g * g
        x = mu + mu * mu * yl / (2.0 * lam_p) - mu / (2.0 * lam_p) * math.sqrt(
            4.0 * mu * lam_p * yl + mu * mu * (yl * yl))
        x = max(x, _TINY)
        z.append(x if ul <= mu / (mu + x) else mu * mu / x)
    betas = np.log(z)
    tree.betas = np.negative(betas, out=betas) if even else betas


@dataclass
class PosteriorDraws:
    """Recorded MCMC output: log-ratio draws, temperatures, and per-draw
    ensemble summaries.

    Points in one grid cell share every draw, so the log-ratio draws are
    kept once per distinct cell of the evaluation points, with each point's
    column beside them; log_ratio_draws expands them to one column per point.
    """

    cell_draws: np.ndarray  # draws x distinct evaluation cells
    point_cell: np.ndarray  # int32: each evaluation point's column of cell_draws
    tau_draws: np.ndarray
    mean_leaves: np.ndarray
    move_attempts: np.ndarray  # sweeps x 3 (grow, prune, change)
    move_accepts: np.ndarray

    @property
    def n_draws(self) -> int:
        return self.cell_draws.shape[0]

    @property
    def log_ratio_draws(self) -> np.ndarray:
        """The draws x evaluation points matrix."""
        return self.cell_draws.take(self.point_cell, axis=1)


def run_sampler(data: TwoSampleDataset, grid: CutGrid, config: GibbsConfig,
                eval_points: np.ndarray | None = None,
                prior_only: bool = False) -> PosteriorDraws:
    """Metropolis-within-Gibbs over trees, betas, and the temperature.

    Per sweep: for every tree, compute the residual weights w_{-k}, attempt
    one structural move, and redraw its leaf parameters; then update tau.
    Evaluation points default to the union of the two training samples.

    Every split is a cut of the grid, so the points of one grid cell share a
    leaf in every tree. The state (log w, each tree's leaf index) is kept per
    occupied cell of the training and evaluation points, and the cells' row
    counts weight the leaf sums and tau.
    """
    rng = np.random.default_rng(config.seed)
    n0, n = data.n0, data.n
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
    cell_bins, _, inverse = grid.cells(grid.bin_indices(X))
    n_cells = cell_bins.shape[0]
    # cells come in order of first occurrence, so the training cells are a
    # prefix [0, C) and the cells of evaluation points alone follow it
    C = int(inverse[:n].max()) + 1
    counts0 = np.bincount(inverse[:n0], minlength=C).astype(np.float64)
    counts1 = np.bincount(inverse[n0:n], minlength=C).astype(np.float64)
    ctx = MoveContext(cell_bins, grid.cuts, counts0, counts1, data.zeta,
                      config.leaf_precision, TREE_PRIOR)
    trees = [SamplerTree(n_cells, even=(k % 2 == 1)) for k in range(config.n_trees)]
    logw = np.zeros(n_cells)
    train_logw = logw[:C]
    tau = 0.0 if prior_only else TAU_SHAPE / TAU_RATE
    total = config.burn_in + config.draws
    # the draws are kept per distinct cell of the evaluation points
    used = np.zeros(n_cells, dtype=bool)
    used[inverse[eval_lo:]] = True
    eval_cells = np.flatnonzero(used)
    point_cell = (np.cumsum(used) - 1)[inverse[eval_lo:]].astype(np.int32)
    cell_draws = np.empty((config.draws, eval_cells.size))
    tau_draws = np.empty(config.draws)
    mean_leaves = np.empty(config.draws)
    attempts = np.zeros((total, 3), dtype=np.int64)
    accepts = np.zeros((total, 3), dtype=np.int64)
    for sweep in range(total):
        ctx.tau = tau
        tried, taken = [0, 0, 0], [0, 0, 0]
        for tree in trees:
            logw -= tree.contributions()
            check_log_weights(train_logw)
            ctx.set_residual(logw)
            move, ok, s0, s1 = mh_tree_move(tree, ctx, rng)
            tried[move] += 1
            taken[move] += ok
            _resample_betas(tree, ctx, rng, s0, s1)
            logw += tree.contributions()
        attempts[sweep] = tried
        accepts[sweep] = taken
        if not prior_only:
            tau = update_tau(train_logw, train_logw, TAU_SHAPE, TAU_RATE, rng,
                             counts0, counts1)
        if (sweep + 1) % 100 == 0:
            _verify_state(trees, X, logw, inverse)
        if sweep >= config.burn_in:
            d = sweep - config.burn_in
            cell_draws[d] = 2.0 * logw.take(eval_cells)
            tau_draws[d] = tau
            mean_leaves[d] = np.mean([t.n_leaves() for t in trees])
    return PosteriorDraws(cell_draws, point_cell, tau_draws, mean_leaves, attempts, accepts)


def _verify_state(trees, X, logw, inverse, tol=1e-8) -> None:
    """Recompute log w by routing every point through each tree's float
    thresholds, and compare it with the log w of the point's cell; guards
    the incrementally maintained state and the point-to-cell map."""
    fresh = np.zeros(X.shape[0])
    for tree in trees:
        fresh += tree.decision_tree(X.shape[1]).evaluate_many(X)
    err = np.max(np.abs(fresh - logw.take(inverse))) if fresh.size else 0.0
    if err > tol:
        raise AssertionError(f"incremental log-weight state drifted by {err}")


def check_quantiles(quantiles) -> np.ndarray:
    """The quantile levels as an array; each must lie strictly inside (0, 1)."""
    q = np.asarray(quantiles, dtype=np.float64)
    if not np.all((q > 0) & (q < 1)):  # NaN fails too
        raise ValueError("quantiles must lie strictly inside (0, 1)")
    return q


def summarize(draws: PosteriorDraws, quantiles=QUANTILES):
    """Per-point posterior mean and linear-interpolation quantiles of log r.

    Returns (means, quantile matrix of shape n_points x len(quantiles)).
    Both are taken per evaluation cell and gathered to the points; a cell's
    column holds each of its points' draws in order, so the result is
    bit-equal to summarizing log_ratio_draws.
    """
    if draws.n_draws == 0:
        raise ValueError("no posterior draws to summarize")
    q = check_quantiles(quantiles)
    cells = draws.cell_draws
    if cells.shape[1] == 1 and draws.point_cell.size > 1:
        # numpy sums a lone column pairwise, but the columns of a wider
        # matrix, such as the per-point one, row by row
        cells = np.repeat(cells, 2, axis=1)
    means = cells.mean(axis=0).take(draws.point_cell)
    qs = column_quantiles(cells, q).T.take(draws.point_cell, axis=0)
    return means, qs


def column_quantiles(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(x, q, axis=0) of a 2-D x with its default linear method,
    bit for bit, without the np.unique call that imports numpy.ma; x must
    be free of NaN.

    numpy's steps are repeated one by one: the same partition indices, so
    that equal values (0.0 and -0.0) land alike, and the same
    interpolation.
    """
    n = x.shape[0]
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    # past the last index numpy takes the last order statistic (-1) for both
    top = virtual >= n - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    kth = np.sort(np.concatenate(([0, -1], below, above)))
    kth = kth[np.concatenate(([True], kth[1:] != kth[:-1]))]
    part = np.partition(x, kth, axis=0)
    a, b = part[below], part[above]
    gamma = (virtual - below)[:, None]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out
