"""Forward-stagewise and gradient-boosting learners for the balancing loss,
with shrinkage, one-group pruning, and cross-validated tree-count selection."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import CutGrid, TwoSampleDataset
from .loss import (check_log_weights, finite_sample_loss, optimal_leaf_value,
                   rebalance, row_masses)
from .tree import DecisionTree

_LOSS_SLACK = 1e-12


@dataclass
class BoostConfig:
    algorithm: str = "gb"  # "fs" or "gb"
    max_trees: int = 1000
    max_depth: int = 4
    learning_rate: float = 0.01
    cv_folds: int = 5
    min_leaf_total: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("fs", "gb"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected 'fs' or 'gb'")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.max_trees < 1:
            raise ValueError("max_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.min_leaf_total < 1:
            raise ValueError("min_leaf_total must be >= 1")


class EnsembleModel:
    """log w(x) = offset + nu * sum_k f_k(x); log r = 2 log w.

    The trees' preorder arrays (see DecisionTree) are stored concatenated:
    tree k holds nodes starts[k]:starts[k + 1], and its right-child indices
    count from its own root.
    """

    def __init__(self, trees, learning_rate: float, offset: float, algorithm: str,
                 dim: int, seed: int = 0, train_loss_path: np.ndarray | None = None):
        self.starts = np.cumsum([0] + [t.feature.size for t in trees])
        self.feature = np.concatenate([t.feature for t in trees] or [np.empty(0, np.int32)])
        self.right = np.concatenate([t.right for t in trees] or [np.empty(0, np.int32)])
        self.value = np.concatenate([t.value for t in trees] or [np.empty(0)])
        self.learning_rate = learning_rate
        self.offset = offset
        self.algorithm = algorithm
        self.dim = dim
        self.seed = seed
        self.train_loss_path = train_loss_path

    @property
    def trees(self) -> list:
        """Views of the trees, in the order they were fitted."""
        return [DecisionTree(self.feature[a:b], self.right[a:b], self.value[a:b], self.dim)
                for a, b in zip(self.starts[:-1], self.starts[1:])]

    def log_weight(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points must have {self.dim} columns")
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.evaluate_many(X)
        return self.offset + self.learning_rate * total

    def save(self, path) -> None:
        doc = {
            "algorithm": self.algorithm,
            "nu": self.learning_rate,
            "offset": self.offset,
            "dim": self.dim,
            "seed": self.seed,
            "trees": [t.to_dict() for t in self.trees],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path) -> "EnsembleModel":
        with open(path) as fh:
            doc = json.load(fh)
        dim = int(doc["dim"])
        return cls(
            trees=[DecisionTree.from_dict(d, dim) for d in doc["trees"]],
            learning_rate=float(doc["nu"]),
            offset=float(doc["offset"]),
            algorithm=doc["algorithm"],
            dim=dim,
            seed=int(doc.get("seed", 0)),
        )


def predict_log_ratio(model: EnsembleModel, points: np.ndarray) -> np.ndarray:
    """log r(x) = 2 log w(x), one value per row of points."""
    return 2.0 * model.log_weight(points)


class _Grower:
    """Greedy tree construction shared by the FS and GB criteria.

    Split search scores every (dimension, cut) of a node at once. Each
    (dimension, bin) pair is one histogram cell, with key
    dim * width + bin, where width is one more than the largest cut count;
    so one bincount per histogram covers all dimensions, and cumulative sums
    along each dimension's row give the left-child totals of its cuts.
    The fs criterion scores a split by the affinity of its children's masses,
    the gb criterion by the pooled variance of the pseudo-residuals +m0 and
    -m1 (see loss.row_masses), both from the two mass histograms. Children
    with observations from only one group, or with fewer than
    min_leaf_total pooled observations, are refused. That also refuses the
    cut indices past a dimension's own cut count, which send every row left.
    """

    def __init__(self, bins0, bins1, cuts, max_depth, min_leaf_total, algorithm):
        self.width = max(len(c) for c in cuts) + 1
        offsets = np.arange(len(cuts)) * self.width
        self.keys0 = bins0 + offsets
        self.keys1 = bins1 + offsets
        self.cuts = cuts
        self.max_depth = max_depth
        self.min_leaf_total = min_leaf_total
        self.gb = algorithm == "gb"

    def grow(self, m0, m1):
        """Returns (tree, contrib0, contrib1) with per-observation leaf betas.

        m0/m1 are the per-observation masses of loss.row_masses.
        """
        self.m0 = m0
        self.m1 = m1
        self.contrib0 = np.empty(m0.size)
        self.contrib1 = np.empty(m1.size)
        self.feature, self.right, self.value = [], [], []
        self._split(np.arange(m0.size), np.arange(m1.size), 0)
        tree = DecisionTree(self.feature, self.right, self.value, len(self.cuts))
        return tree, self.contrib0, self.contrib1

    def _split(self, idx0, idx1, depth):
        node = len(self.feature)
        best = self._best_split(idx0, idx1) if depth < self.max_depth else None
        if best is None:
            beta = optimal_leaf_value(self.m0[idx0].sum(), self.m1[idx1].sum())
            self.contrib0[idx0] = beta
            self.contrib1[idx1] = beta
            self.feature.append(-1)
            self.right.append(-1)
            self.value.append(beta)
            return
        dim, j = best
        key = dim * self.width + j
        left0 = self.keys0[idx0, dim] <= key
        left1 = self.keys1[idx1, dim] <= key
        self.feature.append(dim)
        self.right.append(-1)
        self.value.append(float(self.cuts[dim][j]))
        self._split(idx0[left0], idx1[left1], depth + 1)
        self.right[node] = len(self.feature)
        self._split(idx0[~left0], idx1[~left1], depth + 1)

    def _left_totals(self, keys, weights=None):
        """(dims, cuts) matrix: the sum of weights (or the count) of the rows
        routed left of each cut. Each cell adds its rows in row order."""
        d = len(self.cuts)
        if weights is not None:
            weights = np.repeat(weights, d)
        hist = np.bincount(keys.ravel(), weights=weights, minlength=d * self.width)
        return np.cumsum(hist.reshape(d, self.width), axis=1)[:, :-1]

    def _best_split(self, idx0, idx1):
        k0 = self.keys0[idx0]
        k1 = self.keys1[idx1]
        lc0 = self._left_totals(k0)
        lc1 = self._left_totals(k1)
        rc0 = idx0.size - lc0
        rc1 = idx1.size - lc1
        valid = (
            (lc0 >= 1) & (lc1 >= 1) & (rc0 >= 1) & (rc1 >= 1)
            & (lc0 + lc1 >= self.min_leaf_total)
            & (rc0 + rc1 >= self.min_leaf_total)
        )
        if not valid.any():
            return None
        w0 = self.m0[idx0]
        w1 = self.m1[idx1]
        lp = self._left_totals(k0, w0)
        lq = self._left_totals(k1, w1)
        if self.gb:
            # residual sums: +mass on group 0, -mass on group 1
            lsum = lp - lq
            r_tot = w0.sum() - w1.sum()
            with np.errstate(divide="ignore", invalid="ignore"):
                score = -(lsum**2 / (lc0 + lc1) + (r_tot - lsum) ** 2 / (rc0 + rc1))
        else:
            # cumulative cancellation can leave tiny negative right masses
            rp = np.maximum(w0.sum() - lp, 0.0)
            rq = np.maximum(w1.sum() - lq, 0.0)
            score = np.sqrt(lp * lq) + np.sqrt(rp * rq)
        # the first (dim, cut) in row-major order wins ties
        best = int(np.argmin(np.where(valid, score, np.inf)))
        return divmod(best, self.width - 1)


def _fit_boost(data: TwoSampleDataset, grid: CutGrid, config: BoostConfig,
               n_trees: int, on_iteration=None) -> EnsembleModel:
    """Each tree's shrunken update is followed by the rebalance shift, which
    the offset accumulates; the training loss must never increase."""
    grower = _Grower(
        grid.bin_indices(data.sample0),
        grid.bin_indices(data.sample1),
        grid.cuts,
        config.max_depth,
        config.min_leaf_total,
        config.algorithm,
    )
    logw0 = np.zeros(data.n0)
    logw1 = np.zeros(data.n1)
    nu = config.learning_rate
    trees = []
    offset = 0.0
    losses = [2.0]
    for _ in range(n_trees):
        tree, c0, c1 = grower.grow(*row_masses(logw0, logw1))
        logw0 += nu * c0
        logw1 += nu * c1
        log_c, loss = rebalance(logw0, logw1)
        logw0 += log_c
        logw1 += log_c
        check_log_weights(logw0, logw1)
        if loss > losses[-1] + _LOSS_SLACK:
            raise AssertionError(f"training loss increased: {losses[-1]!r} -> {loss!r}")
        offset += log_c
        losses.append(loss)
        trees.append(tree)
        if on_iteration is not None:
            on_iteration(tree, log_c)
    return EnsembleModel(
        trees=trees,
        learning_rate=nu,
        offset=offset,
        algorithm=config.algorithm,
        dim=data.dim,
        seed=config.seed,
        train_loss_path=np.asarray(losses),
    )


def cv_loss_curve(data: TwoSampleDataset, grid: CutGrid,
                  config: BoostConfig) -> np.ndarray:
    """Fold-averaged held-out loss after 0..max_trees trees."""
    if data.n0 < config.cv_folds or data.n1 < config.cv_folds:
        raise ValueError("each group needs at least cv_folds observations")
    rng = np.random.default_rng(config.seed)
    folds0 = np.array_split(rng.permutation(data.n0), config.cv_folds)
    folds1 = np.array_split(rng.permutation(data.n1), config.cv_folds)
    curves = np.zeros((config.cv_folds, config.max_trees + 1))
    for f in range(config.cv_folds):
        ho0 = np.zeros(data.n0, dtype=bool)
        ho0[folds0[f]] = True
        ho1 = np.zeros(data.n1, dtype=bool)
        ho1[folds1[f]] = True
        train = TwoSampleDataset(data.sample0[~ho0], data.sample1[~ho1])
        X0h = data.sample0[ho0]
        X1h = data.sample1[ho1]
        h_logw0 = np.zeros(X0h.shape[0])
        h_logw1 = np.zeros(X1h.shape[0])
        held = [2.0]

        def track(tree, log_c):
            np.add(h_logw0, config.learning_rate * tree.evaluate_many(X0h) + log_c,
                   out=h_logw0)
            np.add(h_logw1, config.learning_rate * tree.evaluate_many(X1h) + log_c,
                   out=h_logw1)
            held.append(finite_sample_loss(h_logw0, h_logw1))

        _fit_boost(train, grid, config, config.max_trees, on_iteration=track)
        curves[f] = held
    return curves.mean(axis=0)


def fit(data: TwoSampleDataset, grid: CutGrid, config: BoostConfig,
        select: bool = True) -> EnsembleModel:
    """Fit with the configured algorithm; when select is true, choose the
    tree count minimizing the fold-averaged held-out loss, and refit on the
    full sample."""
    k = int(np.argmin(cv_loss_curve(data, grid, config))) if select else config.max_trees
    return _fit_boost(data, grid, config, k)
