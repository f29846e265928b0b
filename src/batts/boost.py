"""Forward-stagewise and gradient-boosting learners for the balancing loss,
with shrinkage, one-group pruning, and cross-validated tree-count selection."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import CutGrid, TwoSampleDataset, utf8_fault
from .loss import (check_log_weights, finite_sample_loss, optimal_leaf_loss,
                   optimal_leaf_value, rebalance, row_masses)
from .tree import DecisionTree, json_float, json_int, node_hook, setting_int, setting_number

_LOSS_SLACK = 1e-12

# A depth of at least this many live keys (live cells with masses x dims)
# bins only the smaller child of each pair of siblings and takes the other
# from their parent's histograms (see _Grower.search). A depth holds 100k
# keys in a 20-D fit of 5000 rows, where subtraction made the fit about 20%
# faster, but at most about 7.5k in a 2-D fit of 2500/2500 rows with 5-fold
# CV and 1.5k in one of 2000/2000 without, where subtracting at every depth
# made the fits about 20% and 30% slower: its extra numpy calls cost more
# than the binning they save.
_SUBTRACT_KEYS = 2**15


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
        lows = {"max_trees": 1, "max_depth": 1, "cv_folds": 2, "min_leaf_total": 1, "seed": 0}
        for name, low in lows.items():
            setattr(self, name, setting_int(name, getattr(self, name), low))
        if self.algorithm not in ("fs", "gb"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected 'fs' or 'gb'")
        self.learning_rate = setting_number("learning_rate", self.learning_rate,
                                            lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")


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
        # Python numbers, which save writes as JSON numbers
        self.learning_rate = float(learning_rate)
        self.offset = float(offset)
        self.algorithm = algorithm
        self.dim = int(dim)
        self.seed = int(seed)
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
        # The model's own thresholds cut the space into cells whose points
        # meet the same leaves of every tree, so each cell is routed once, by
        # its first point, and the sums are scattered back to its points.
        grid = CutGrid(tuple(
            # np.unique without return_index imports numpy.ma
            np.unique(self.value[self.feature == j], return_index=True)[0]
            for j in range(self.dim)))
        _, first, inverse = grid.cells(grid.bin_indices(X))
        firsts = X[first]
        total = np.zeros(first.size)
        for tree in self.trees:
            total += tree.evaluate_many(firsts)
        return self.offset + self.learning_rate * total[inverse]

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
        """Read a model written by save. A file that is not UTF-8 JSON, or a
        malformed model, raises ValueError naming the file and its first
        fault."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh, object_hook=node_hook)
        except UnicodeDecodeError as e:
            raise ValueError(f"model file {path}: {utf8_fault(e)}") from None
        except json.JSONDecodeError as e:
            raise ValueError(f"model file {path}: not JSON ({e})") from None
        if not isinstance(doc, dict):
            raise ValueError(f"model file {path} must hold a JSON object")
        try:
            dim = json_int(doc["dim"], "dim")
            model = cls(
                trees=[DecisionTree.from_dict(d, dim) for d in doc["trees"]],
                learning_rate=json_float(doc["nu"], "nu"),
                offset=json_float(doc["offset"], "offset"),
                algorithm=doc["algorithm"],
                dim=dim,
                seed=json_int(doc.get("seed", 0), "seed"),
            )
        except KeyError as e:
            raise ValueError(f"model file {path}: missing key {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"model file {path}: malformed value ({e})") from None
        fault = model._fault()
        if fault:
            raise ValueError(f"model file {path}: {fault}")
        return model

    def _fault(self) -> str | None:
        """The first reason the model cannot be evaluated, or None."""
        if self.dim < 1:
            return f"dim {self.dim} is below 1"
        if self.algorithm not in ("fs", "gb"):
            return f"unknown algorithm {self.algorithm!r}; expected 'fs' or 'gb'"
        for name, v in (("nu", self.learning_rate), ("offset", self.offset)):
            if not np.isfinite(v):
                return f"non-finite {name} {v!r}"
        split = self.right >= 0  # from_dict sets right only at split nodes
        bad = split & ((self.feature < 0) | (self.feature >= self.dim))
        bad |= ~np.isfinite(self.value)
        if not bad.any():
            return None
        i = int(np.argmax(bad))
        tree = int(np.searchsorted(self.starts, i, side="right")) - 1
        if not np.isfinite(self.value[i]):
            kind = "threshold" if split[i] else "beta"
            return f"non-finite {kind} {float(self.value[i])!r} in tree {tree}"
        return (f"tree {tree} splits on dimension {int(self.feature[i])}, "
                f"outside [0, {self.dim})")


def predict_log_ratio(model: EnsembleModel, points: np.ndarray) -> np.ndarray:
    """log r(x) = 2 log w(x), one value per row of points."""
    return 2.0 * model.log_weight(points)


class _Grower:
    """Greedy tree construction shared by the FS and GB criteria, over the
    occupied grid cells of both groups (see CutGrid.cells), one depth at a
    time.

    Rows of one cell fall in the same child of every split, so a cell is
    grown as one entry with its row count and the summed mass of its rows.
    The cells' training row counts weight the count histogram, which is
    unweighted where every training cell of both groups holds one row.

    One grow builds one tree for each member, an independent boosting run
    given as (bins0, counts0, bins1, counts1) with the cells that have
    training rows first. All members' cells of both groups share one stack:
    group 0's training cells, member by member and each member's in its own
    order, then group 1's, then the cells without training rows in that same
    order. Member m's cells enter with slot m, so its root is node m of
    depth 0. At each depth the live cells, those of nodes that may still
    split, are kept in stack order with the slot of their node among the
    depth's nodes, and split search scores every (node, dimension, cut) of
    the depth at once. Each (slot, group, dimension, bin) is one histogram
    bucket, with key ((slot * 2 + group) * dims + dim) * width + bin, where
    width is one more than the largest cut count; so one bincount per
    quantity covers every node, group and dimension of every member, each
    bucket adds its cells in the order of one group of a member grown alone,
    and cumulative sums along each (node, group, dimension) row give the
    left-child totals of its cuts, and in its last bin the node's total.
    The root's count histogram is the same for every tree, so it is taken
    once, in __init__. Below the root, a depth of many keys bins only one
    child of each split and subtracts it from the parent (see search).
    The fs criterion scores a split by its children's summed optimal_leaf_loss,
    the gb criterion by the pooled variance of the pseudo-residuals +m0 and
    -m1 (see loss.row_masses), both from the mass histogram. Children with
    rows from only one group, or with fewer than min_leaf_total pooled rows,
    are refused; the count histogram is weighted by the cell counts, so both
    rules count rows, not cells. That also refuses the cut indices past a
    dimension's own cut count, which send every row left. A node with no
    valid split, or at max_depth, becomes a leaf.
    """

    def __init__(self, members, cuts, max_depth, min_leaf_total, algorithm):
        self.width = max(len(c) for c in cuts) + 1
        self.keys, counts, self.slots, self.rows, self.train0 = _stack(members, self.width)
        # each depth's live keys and repeated weights are written here, not
        # into fresh arrays: in 20-D those are hundreds of KB, and the
        # allocator hands such pages back and faults them in again each depth
        self.kbuf = np.empty_like(self.keys)
        self.wbuf = np.empty(self.keys.shape)
        self.counts = _unit(counts)
        # the cuts as one matrix, so a depth's thresholds are one gather; no
        # split picks a pad, which would send every row left
        self.thresholds = np.full((len(cuts), self.width - 1), np.nan)
        for d, c in enumerate(cuts):
            self.thresholds[d, :len(c)] = c
        self.members = len(members)
        self.max_depth = max_depth
        self.min_leaf_total = min_leaf_total
        self.gb = algorithm == "gb"
        live = np.arange(counts.size)
        hist = self._hist(self._keys(live, self.slots[:live.size], self.members),
                          self._count_weights(live), self.members)
        self.root_counts = hist, self._split_counts(np.cumsum(hist, axis=3), self.members)

    def grow(self, masses):
        """Returns (levels, [(contrib0, contrib1) per member]): every
        member's nodes, one (dim, value, child) record per depth (see _tree),
        and the leaf betas of each member's cells in each group.

        masses holds loss.row_masses on the stack's training cells: every
        member's group-0 masses, member by member, then their group-1 masses.
        The cells past them are routed to their leaves, but left out of every
        histogram. The live cells stay in ascending order, so each depth's
        cells with masses are a prefix of its live cells, group 0's first.
        """
        contrib = np.empty(self.keys.shape[0])
        live, slot = np.arange(contrib.size), self.slots
        levels = []
        nodes = self.members
        parents = None
        for depth in range(self.max_depth + 1):
            g, h = live.searchsorted([self.train0, masses.size]).tolist()
            w = masses[live[:h]]
            p = np.bincount(slot[:g], weights=w[:g], minlength=nodes)
            q = np.bincount(slot[g:h], weights=w[g:], minlength=nodes)
            if depth < self.max_depth:
                dim, cut, hists = self.search(live[:h], slot[:h], w, p, q, nodes,
                                              depth == 0, parents)
            else:
                dim = cut = np.full(nodes, -1)
            leaf = dim < 0
            # each node's threshold, or its beta at a leaf
            value = self.thresholds[dim, cut]
            if leaf.any():
                value[leaf] = optimal_leaf_value(p[leaf], q[leaf])
            # split nodes get consecutive child slots, in slot order
            child_slot = 2 * np.cumsum(~leaf) - 2
            levels.append((dim, value, child_slot))
            if leaf.all():
                contrib[live] = value[slot]
                break
            parents = (*hists, leaf)
            if leaf.any():  # the cells of leaf nodes get their beta
                done = leaf[slot]
                contrib[live[done]] = value[slot[done]]
                stay = ~done
                live, slot = live[stay], slot[stay]
            # a stored key is its bin plus a multiple of width
            right = self.keys[live, dim[slot]] % self.width > cut[slot]
            slot = child_slot[slot] + right
            nodes = 2 * (nodes - int(np.count_nonzero(leaf)))
        return levels, [(contrib[r0], contrib[r1]) for r0, r1 in self.rows]

    def search(self, live, slot, w, p, q, nodes, root, parents=None):
        """The best split of each of the depth's nodes, as (dim, cut) arrays
        with dim -1 where a node has no valid split, and the depth's raw
        (count, mass) histograms (see _hist), or None where no node splits.

        live/slot are the live cells with masses and their node's slot, w
        their masses, and p/q the nodes' mass totals in each group; root is
        true at depth 0. The first (dim, cut) in row-major order wins ties.

        parents, below the root, is the previous depth's (count, mass, leaf):
        its raw histograms and which of its nodes are leaves; the depth's
        nodes 2i and 2i + 1 are then the children of its i-th split node. A
        depth of at least _SUBTRACT_KEYS live keys bins only the child of
        each pair with fewer live cells (the left one on a tie), and takes
        its sibling's histograms as the parent's minus its own, bin by bin.
        Counts subtract exactly; a mass bin whose count comes out 0 is set to
        0, so that cuts with only empty bins between them keep tying after
        the cumulative sums.
        """
        hist_nodes, right = nodes, None
        if parents is not None and w.size * self.keys.shape[1] >= _SUBTRACT_KEYS:
            # histogram slot i is the binned child of pair i
            hist_nodes //= 2
            right, i = _smaller_children(slot, nodes)
            live, slot, w = live.take(i), slot.take(i) >> 1, w.take(i)
            parent_counts, parent_masses, leaf = parents
            split = ~leaf
        k = self._keys(live, slot, hist_nodes)
        if root:
            counts, (valid, found, lc, rc) = self.root_counts
        else:
            counts = self._hist(k, self._count_weights(live), hist_nodes)
            if right is not None:
                counts = _siblings(counts, parent_counts[split], right)
            valid, found, lc, rc = self._split_counts(np.cumsum(counts, axis=3), nodes)
        if not found.any():
            return np.full(nodes, -1), np.full(nodes, -1), None
        masses = self._hist(k, self._repeat(w), hist_nodes)
        if right is not None:
            masses = np.where(counts > 0, _siblings(masses, parent_masses[split], right), 0.0)
        left = np.cumsum(masses, axis=3)[..., :-1]
        if right is not None:  # a subtracted mass can fall an ulp below 0
            left = np.maximum(left, 0.0)
        lp, lq = left[:, 0], left[:, 1]
        p = p[:, None, None]
        q = q[:, None, None]
        if self.gb:
            # residual sums: +mass on group 0, -mass on group 1
            lsum = lp - lq
            with np.errstate(divide="ignore", invalid="ignore"):
                score = -(lsum**2 / lc + (p - q - lsum) ** 2 / rc)
        else:
            # cumulative cancellation can leave tiny negative right masses
            rp = np.maximum(p - lp, 0.0)
            rq = np.maximum(q - lq, 0.0)
            score = optimal_leaf_loss(lp, lq) + optimal_leaf_loss(rp, rq)
        best = np.where(valid, score.reshape(nodes, -1), np.inf).argmin(axis=1)
        dim, cut = np.divmod(best, self.width - 1)
        dim[~found] = -1
        return dim, cut, (counts, masses)

    def _split_counts(self, totals, nodes):
        """(valid, found, left, right): which (node, dim, cut) splits pass the
        row-count rules, which nodes have one, and the pooled row counts of
        each split's children, from the cumulative count histogram."""
        left = totals[..., :-1]
        right = totals[..., -1:] - left
        lc, rc = left[:, 0] + left[:, 1], right[:, 0] + right[:, 1]
        valid = (
            (left >= 1).all(axis=1) & (right >= 1).all(axis=1)
            & (lc >= self.min_leaf_total) & (rc >= self.min_leaf_total)
        ).reshape(nodes, -1)
        return valid, valid.any(axis=1), lc, rc

    def _keys(self, live, slot, nodes):
        """The live cells' histogram keys, offset by their node's slot, in
        the key buffer."""
        # live indices are in range; mode "raise" would gather into a
        # temporary first and copy it into the buffer
        k = np.take(self.keys, live, axis=0, out=self.kbuf[:live.size], mode="clip")
        if nodes > 1:  # every slot is 0 at the root
            k += (slot * (2 * k.shape[1] * self.width))[:, None]
        return k

    def _hist(self, keys, weights, nodes):
        """(nodes, 2, dims, width) array: the sum of weights (or the count)
        of each node's cells of each group in each bin of each dimension.
        Its cumulative sum along the bins gives in entry b the total left of
        cut b, and in the last the node's."""
        d = keys.shape[1]
        hist = np.bincount(keys.ravel(), weights=weights, minlength=nodes * 2 * d * self.width)
        return hist.reshape(nodes, 2, d, self.width)

    def _count_weights(self, live):
        """The count histogram's weights: each live cell's training row
        count once per dimension, or None where every cell holds one row."""
        return None if self.counts is None else self._repeat(self.counts[live])

    def _repeat(self, w):
        """np.repeat(w, dims) in the weight buffer: each cell's weight once
        per dimension."""
        out = self.wbuf[:w.size]
        out[...] = w[:, None]
        return out.ravel()


def _smaller_children(slot, nodes):
    """(right, cells): of each pair of sibling nodes 2i and 2i + 1, the one
    with fewer cells in slot, the left one on a tie, is binned; right[i] is
    true where that is the right one, and cells indexes the binned
    children's cells in slot."""
    n = np.bincount(slot, minlength=nodes)
    right = n[1::2] < n[::2]
    binned = np.empty(nodes, bool)
    binned[::2], binned[1::2] = ~right, right
    return right, np.flatnonzero(binned.take(slot))


def _siblings(binned, parent, right):
    """A depth's (nodes, 2, dims, width) histogram from the histograms of
    one child of each pair of siblings (binned) and of their parents: pair
    i's nodes are 2i and 2i + 1, and its binned child is the right one where
    right[i]. The other child's bins are the parent's minus the binned
    child's."""
    both = np.stack((binned, parent - binned), axis=1)
    both[right] = both[right, ::-1]
    return both.reshape(-1, *binned.shape[1:])


def _cells(grid: CutGrid, X: np.ndarray):
    """The occupied cells of X's rows: (cell bins, each row's cell, row counts)."""
    cell_bins, _, inverse = grid.cells(grid.bin_indices(X))
    return cell_bins, inverse, np.bincount(inverse).astype(np.float64)


def _unit(counts):
    """counts, or None where every cell holds one row (see _Grower)."""
    return None if (counts == 1).all() else counts


def _stack(members, width):
    """Every member's cells of both groups on one stack (see _Grower), as
    (keys, training counts, slots, rows, train0): keys holds each stacked
    cell's bins offset by its group and dimension, slots its member, rows[m]
    the stack indices of member m's group-0 and group-1 cells in its order,
    and train0 the number of group-0 training cells."""
    bins0, counts0, bins1, counts1 = zip(*members)
    sizes = [c.size for c in counts0 + counts1]
    counts = np.concatenate(counts0 + counts1)
    dims = bins0[0].shape[1]
    group = np.repeat([0, 1], [sum(sizes[:len(members)]), sum(sizes[len(members):])])
    keys = np.concatenate(bins0 + bins1) + (group[:, None] * dims + np.arange(dims)) * width
    order = np.argsort(counts == 0, kind="stable")
    slots = np.repeat(np.tile(np.arange(len(members)), 2), sizes)[order]
    rows = np.split(np.argsort(order), np.cumsum(sizes)[:-1])
    return (keys[order], counts[order[:np.count_nonzero(counts)]], slots,
            list(zip(rows[:len(members)], rows[len(members):])),
            sum(np.count_nonzero(c) for c in counts0))


def _tree(levels, m: int, dim: int) -> DecisionTree:
    """Member m's tree out of _Grower.grow's levels, each holding its nodes'
    split dimension (-1 at a leaf), threshold or beta, and first child's slot
    in the next level. They become tree._node's tuples, deepest level first,
    for DecisionTree.from_dict, the walker of model files."""
    below = []
    for dims, values, child in reversed(levels):
        below = [(v,) if d < 0 else (d, v, below[c], below[c + 1])
                 for d, v, c in zip(dims.tolist(), values.tolist(), child.tolist())]
    return DecisionTree.from_dict(below[m], dim)


def _boost(members, cuts, config: BoostConfig, n_trees: int):
    """Yields, after each of n_trees steps, (levels, [(log_c, loss, logw0,
    logw1) per member]), where levels holds the step's trees (see _tree).

    A member is one boosting run, given as (bins0, counts0, bins1, counts1):
    its cells and their training row counts. Cells with no training rows,
    which must come last, get a log w from their leaves but weigh nothing in
    the fit. One _Grower.grow call grows the step's tree of every member.
    Each member's shrunken update is followed by its rebalance shift log_c;
    its training loss must never increase. A member keeps one log w per
    cell, updated in place, and its cells' training row counts weight it in
    the masses and the rebalance (see loss.row_masses). These run per member
    on its own arrays, so a member's trees and log w are bit for bit those
    of a run on its own.
    """
    grower = _Grower(members, cuts, config.max_depth, config.min_leaf_total,
                     config.algorithm)
    # a split's validity reads row counts alone, so a root without a valid
    # split stays a leaf in every tree of the run
    if not grower.root_counts[1][1].any():
        raise ValueError("no cut leaves rows of both groups and min_leaf_total "
                         f"({config.min_leaf_total}) rows on each side: the samples "
                         "overlap too little to split")
    runs = []
    for _, k0, _, k1 in members:
        n0, n1 = np.count_nonzero(k0), np.count_nonzero(k1)
        w0, w1 = np.zeros(k0.size), np.zeros(k1.size)
        runs.append((w0, w1, w0[:n0], w1[:n1], _unit(k0[:n0]), _unit(k1[:n1])))
    nu = config.learning_rate
    last = [2.0] * len(members)
    for _ in range(n_trees):
        m0, m1 = zip(*[row_masses(t0, t1, c0, c1) for _, _, t0, t1, c0, c1 in runs])
        levels, contribs = grower.grow(np.concatenate(m0 + m1))
        steps = []
        for m, ((f0, f1), (w0, w1, t0, t1, c0, c1)) in enumerate(zip(contribs, runs)):
            w0 += nu * f0
            w1 += nu * f1
            log_c, loss = rebalance(t0, t1, c0, c1)
            w0 += log_c
            w1 += log_c
            check_log_weights(t0, t1)
            if loss > last[m] + _LOSS_SLACK:
                raise AssertionError(f"training loss increased: {last[m]!r} -> {loss!r}")
            last[m] = loss
            steps.append((log_c, loss, w0, w1))
        yield levels, steps


def _fit_boost(data: TwoSampleDataset, grid: CutGrid, config: BoostConfig,
               n_trees: int) -> EnsembleModel:
    """n_trees trees of _boost on the full sample's cells, as its one
    member; the offset accumulates the rebalance shifts."""
    bins0, _, counts0 = _cells(grid, data.sample0)
    bins1, _, counts1 = _cells(grid, data.sample1)
    trees, offset, losses = [], 0.0, [2.0]
    for levels, [(log_c, loss, _, _)] in _boost([(bins0, counts0, bins1, counts1)],
                                                grid.cuts, config, n_trees):
        trees.append(_tree(levels, 0, data.dim))
        offset += log_c
        losses.append(loss)
    return EnsembleModel(trees, learning_rate=config.learning_rate, offset=offset,
                         algorithm=config.algorithm, dim=data.dim, seed=config.seed,
                         train_loss_path=np.asarray(losses))


def _fold(bins, inverse, counts, held_rows):
    """A fold's (cell bins, training counts, held-out counts) on the full
    sample's cells, reordered stably so that the cells with training rows
    come first."""
    held = np.bincount(inverse[held_rows], minlength=counts.size).astype(np.float64)
    order = np.argsort(held == counts, kind="stable")
    return bins[order], (counts - held)[order], held[order]


def cv_loss_curve(data: TwoSampleDataset, grid: CutGrid,
                  config: BoostConfig) -> np.ndarray:
    """Fold-averaged held-out loss after 0..max_trees trees.

    Each group is mapped to its cells once. A fold is boosted on the cells'
    training counts, the full counts minus its held-out counts; its cells
    without training rows are routed through its splits too, so every cell
    has the fold's log w, and the held-out loss weights it by the cells'
    held-out counts. The folds are the members of one _boost run, so each
    split search covers a depth of every fold's tree. Only the log w is
    read, so no fold's tree is built."""
    if data.n0 < config.cv_folds or data.n1 < config.cv_folds:
        raise ValueError("each group needs at least cv_folds observations")
    rng = np.random.default_rng(config.seed)
    folds0 = np.array_split(rng.permutation(data.n0), config.cv_folds)
    folds1 = np.array_split(rng.permutation(data.n1), config.cv_folds)
    bins0, inverse0, counts0 = _cells(grid, data.sample0)
    bins1, inverse1, counts1 = _cells(grid, data.sample1)
    folds = [_fold(bins0, inverse0, counts0, held0) + _fold(bins1, inverse1, counts1, held1)
             for held0, held1 in zip(folds0, folds1)]
    members = [(b0, train0, b1, train1) for b0, train0, _, b1, train1, _ in folds]
    curves = np.full((config.cv_folds, config.max_trees + 1), 2.0)
    steps = _boost(members, grid.cuts, config, config.max_trees)
    for k, (_, step) in enumerate(steps, start=1):
        for f, ((*_, logw0, logw1), (_, _, held0, _, _, held1)) in enumerate(zip(step, folds)):
            curves[f, k] = finite_sample_loss(logw0, logw1, held0, held1)
    return curves.mean(axis=0)


def fit(data: TwoSampleDataset, grid: CutGrid, config: BoostConfig,
        select: bool = True) -> EnsembleModel:
    """Fit with the configured algorithm; when select is true, choose the
    tree count minimizing the fold-averaged held-out loss, and refit on the
    full sample."""
    k = int(np.argmin(cv_loss_curve(data, grid, config))) if select else config.max_trees
    return _fit_boost(data, grid, config, k)
