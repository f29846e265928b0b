"""Axis-aligned binary trees, point routing, and the recursive split prior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Node:
    """A read-only view of one tree node, built by DecisionTree.root and
    DecisionTree.leaves(). Internal nodes carry (dim, threshold); leaves
    carry beta. Values <= threshold go to the left child.
    """

    __slots__ = ("depth", "dim", "threshold", "left", "right", "beta")

    def __init__(self, depth, dim=None, threshold=None, left=None, right=None, beta=0.0):
        self.depth = depth
        self.dim = dim
        self.threshold = threshold
        self.left = left
        self.right = right
        self.beta = beta

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """A binary partition of the sample space with per-leaf log-weights.

    The nodes are stored in preorder arrays. Node 0 is the root; node i's
    left child is node i + 1 and its right child is node right[i].
    feature[i] is the split dimension, or -1 at a leaf; value[i] is the
    split threshold, or the leaf's beta. Values <= the threshold go left.
    numpy arrays of the right dtypes are used without a copy, so a tree can
    be a view into larger arrays.
    """

    __slots__ = ("feature", "right", "value", "dim")

    def __init__(self, feature, right, value, dim: int):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        self.dim = dim

    def _nodes(self) -> list:
        """The tree as linked Nodes, in preorder."""
        feature, right, value = self.feature.tolist(), self.right.tolist(), self.value.tolist()
        depth = [0] * len(feature)
        for i, f in enumerate(feature):
            if f >= 0:
                depth[i + 1] = depth[right[i]] = depth[i] + 1
        nodes = [None] * len(feature)
        # children follow their parent in preorder, so build back to front
        for i in reversed(range(len(feature))):
            if feature[i] < 0:
                nodes[i] = Node(depth=depth[i], beta=value[i])
            else:
                nodes[i] = Node(depth=depth[i], dim=feature[i], threshold=value[i],
                                left=nodes[i + 1], right=nodes[right[i]])
        return nodes

    @property
    def root(self) -> Node:
        """The root of the tree as linked Nodes, built on each access."""
        return self._nodes()[0]

    def leaves(self) -> list:
        """Leaf Nodes from left to right."""
        return [node for node in self._nodes() if node.is_leaf]

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"point has dimension {x.shape}, tree expects ({self.dim},)")
        i = 0
        while self.feature[i] >= 0:
            i = i + 1 if x[self.feature[i]] <= self.value[i] else self.right[i]
        return float(self.value[i])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = self._points(X)
        out = np.empty(X.shape[0], dtype=np.float64)
        for leaf, idx in self._route(X):
            out[idx] = self.value[leaf]
        return out

    def leaf_memberships(self, X: np.ndarray) -> list:
        """Row indices of X per leaf, in leaves() order."""
        return [idx for _, idx in self._route(self._points(X))]

    def _points(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points have {X.shape[1] if X.ndim == 2 else '?'} columns, "
                             f"tree expects {self.dim}")
        return X

    def _route(self, X: np.ndarray) -> list:
        """(leaf node, row indices of X that reach it), leaves left to right."""
        feature, right, value = self.feature, self.right, self.value
        routed = []
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            i, idx = stack.pop()
            if feature[i] < 0:
                routed.append((i, idx))
                continue
            go_left = X[idx, feature[i]] <= value[i]
            # the left child is pushed last, so it is routed (and emitted) first
            stack.append((right[i], idx[~go_left]))
            stack.append((i + 1, idx[go_left]))
        return routed

    def max_depth(self) -> int:
        return max(leaf.depth for leaf in self.leaves())

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def to_dict(self) -> dict:
        return _to_dict(self.feature.tolist(), self.right.tolist(), self.value.tolist(), 0)

    @classmethod
    def from_dict(cls, d: dict, dim: int) -> "DecisionTree":
        feature, right, value = [], [], []
        stack = [(d, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:  # node is the right child of parent
                right[parent] = len(feature)
            right.append(-1)
            if "beta" in node:
                feature.append(-1)
                value.append(float(node["beta"]))
            else:
                stack.append((node["right"], len(feature)))
                stack.append((node["left"], -1))
                feature.append(int(node["dim"]))
                value.append(float(node["threshold"]))
        return cls(feature, right, value, dim)


def _to_dict(feature, right, value, i) -> dict:
    if feature[i] < 0:
        return {"beta": value[i]}
    return {
        "dim": feature[i],
        "threshold": value[i],
        "left": _to_dict(feature, right, value, i + 1),
        "right": _to_dict(feature, right, value, right[i]),
    }


@dataclass(frozen=True)
class TreePrior:
    """Recursive-partition prior: node at depth d splits w.p. a_T(1+d)^(-b_T)."""

    a_T: float = 0.95
    b_T: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.a_T < 1.0:
            raise ValueError("a_T must lie in (0, 1)")
        if self.b_T < 0.0:
            raise ValueError("b_T must be >= 0")


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
