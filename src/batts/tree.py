"""Axis-aligned binary trees, point routing, and the recursive split prior's
parameters."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class Node:
    """A read-only view of one tree node, built by DecisionTree.root.
    Internal nodes carry (dim, threshold); leaves carry beta. Values <=
    threshold go to the left child.
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

    @property
    def root(self) -> Node:
        """The root of the tree as linked Nodes, built on each access."""
        feature, right, value = self.feature.tolist(), self.right.tolist(), self.value.tolist()
        nodes = [Node(0) for _ in feature]
        # a parent precedes its children in preorder, so its depth is set first
        for i, node in enumerate(nodes):
            if feature[i] < 0:
                node.beta = value[i]
            else:
                node.dim, node.threshold = feature[i], value[i]
                node.left, node.right = nodes[i + 1], nodes[right[i]]
                node.left.depth = node.right.depth = node.depth + 1
        return nodes[0]

    def leaf_index(self, X) -> np.ndarray:
        """The preorder index of the leaf that each row of X reaches.

        Every row steps one depth per pass, until no row sits on a split.
        A NaN coordinate compares false, so it goes right.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points have {X.shape[1] if X.ndim == 2 else '?'} columns, "
                             f"tree expects {self.dim}")
        feature, right, value = self.feature, self.right, self.value
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            dim = feature[node]
            split = dim >= 0
            if not split.any():
                return node
            # a leaf's -1 reads the last column, and where keeps the leaf
            go_left = X[rows, dim] <= value[node]
            node = np.where(split, np.where(go_left, node + 1, right[node]), node)

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.leaf_index(X)]

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def to_dict(self) -> dict:
        return _to_dict(self.feature.tolist(), self.right.tolist(), self.value.tolist(), 0)

    @classmethod
    def from_dict(cls, d, dim: int) -> "DecisionTree":
        """The tree of a node object as to_dict writes it, or of _node's
        tuples, as node_hook reads them and the boosting grower builds them."""
        feature, right, value = [], [], []
        stack = [(d, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:  # node is the right child of parent
                right[parent] = len(feature)
            right.append(-1)
            if type(node) is dict:
                node = _node(node)
            elif type(node) is not tuple:
                raise ValueError(f"tree node {node!r} is not an object")
            if len(node) == 1:
                feature.append(-1)
                value.append(json_float(node[0], "beta"))
            else:
                split_dim, threshold, left, right_child = node
                stack.append((right_child, len(feature)))
                stack.append((left, -1))
                feature.append(json_int(split_dim, "split dimension"))
                value.append(json_float(threshold, "threshold"))
        return cls(feature, right, value, dim)


def _node(obj: dict) -> tuple:
    """A tree node object as a tuple: (beta,) for a leaf, (dim, threshold,
    left, right) for a split. Raises KeyError for a missing key; an object
    without node keys misses 'right', which is looked up first."""
    if "beta" in obj:
        return (obj["beta"],)
    right = obj["right"]
    return (obj["dim"], obj["threshold"], obj["left"], right)


def node_hook(obj: dict):
    """json.load's object_hook for model files: each tree node object
    becomes the tuple of _node as soon as it is parsed, so no dict per node
    is kept. Other objects, such as the file's top level, stay dicts; a node
    object with a missing key stays a dict too, and from_dict reports it."""
    try:
        return _node(obj)
    except KeyError:
        return obj


def json_int(value, name: str) -> int:
    """value, if it is an integer as JSON reads one: not a float, not a bool."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def json_float(value, name: str) -> float:
    """value as a float, if it is a number as JSON reads one: an int or a
    float, not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def setting_int(name: str, value, low: int) -> int:
    """A numeric setting as an int: an integer, numpy's too, of at least low.
    A bool, a numpy bool (not an Integral), a float or a string is refused."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def setting_number(name: str, value, inside, bounds: str) -> float:
    """A numeric setting as a float: a real number, not a bool, for which
    inside is true (and false for NaN); else ValueError "{name} must {bounds}"."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not inside(value):
        raise ValueError(f"{name} must {bounds}")
    return float(value)


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
        setting_number("a_T", self.a_T, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
        setting_number("b_T", self.b_T, lambda v: 0.0 <= v < math.inf, "be >= 0 and finite")

