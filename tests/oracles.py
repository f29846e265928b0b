"""Reference implementations that only the tests use: direct, unoptimized
forms of quantities the library computes another way."""

from __future__ import annotations

import numpy as np

from batts.gibbs import sample_inverse_gaussian
from batts.tree import DecisionTree, TreePrior, json_float, json_int


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


def split_probability(prior: TreePrior, depth: int) -> float:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return prior.a_T * (1.0 + depth) ** (-prior.b_T)


def sample_tree_from_prior(prior: TreePrior, grid, rng: np.random.Generator,
                           max_depth: int | None = None) -> DecisionTree:
    """Draw a tree structure (all betas 0) from the recursive partition prior."""
    feature, right, value = [], [], []

    def build(depth):
        node = len(feature)
        feature.append(-1)
        right.append(-1)
        value.append(0.0)
        cap = max_depth is not None and depth >= max_depth
        if not cap and rng.random() < split_probability(prior, depth):
            dim = int(rng.integers(grid.dim))
            j = int(rng.integers(len(grid.cuts[dim])))
            feature[node] = dim
            value[node] = float(grid.cuts[dim][j])
            build(depth + 1)
            right[node] = len(feature)
            build(depth + 1)

    build(0)
    return DecisionTree(feature, right, value, grid.dim)


def evaluate(tree: DecisionTree, x) -> float:
    """The tree's value at one point, walked node by node."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.dim,):
        raise ValueError(f"point has dimension {x.shape}, tree expects ({tree.dim},)")
    i = 0
    while tree.feature[i] >= 0:
        i = i + 1 if x[tree.feature[i]] <= tree.value[i] else tree.right[i]
    return float(tree.value[i])


def leaf_memberships(tree: DecisionTree, X: np.ndarray) -> list:
    """Row indices of X per leaf, leaves left to right (in preorder)."""
    leaf = tree.leaf_index(X)
    return [np.flatnonzero(leaf == i) for i in np.flatnonzero(tree.feature < 0)]


def node_depths(tree: DecisionTree) -> np.ndarray:
    """Each node's depth, read off the preorder arrays."""
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    # a parent precedes its children in preorder, so its depth is set first
    for i in np.flatnonzero(tree.feature >= 0):
        depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
    return depth


def log_weight_by_rows(model, X) -> np.ndarray:
    """The model's log w at each row of X, every row routed through every
    tree."""
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        total += tree.evaluate_many(X)
    return model.offset + model.learning_rate * total


def tree_from_dict(d: dict, dim: int) -> DecisionTree:
    """A tree read from nested node dicts as to_dict writes them."""
    feature, right, value = [], [], []
    stack = [(d, -1)]
    while stack:
        node, parent = stack.pop()
        if parent >= 0:  # node is the right child of parent
            right[parent] = len(feature)
        right.append(-1)
        if "beta" in node:
            feature.append(-1)
            value.append(json_float(node["beta"], "beta"))
        else:
            stack.append((node["right"], len(feature)))
            stack.append((node["left"], -1))
            feature.append(json_int(node["dim"], "split dimension"))
            value.append(json_float(node["threshold"], "threshold"))
    return DecisionTree(feature, right, value, dim)
