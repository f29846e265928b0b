"""Two-sample data containers, CSV loading, and shared cut-point grids."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

CUTS_PER_DIM = 31  # the paper's cut count per dimension


class DataError(ValueError):
    """Raised when input data violates the two-sample contract."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of a: the caller's array stays writable."""
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TwoSampleDataset:
    """Two i.i.d. samples from the distributions being compared.

    ``sample0`` holds the numerator-group draws (n0 x d), ``sample1`` the
    denominator-group draws (n1 x d). The dataset keeps read-only copies, so
    it can be shared freely across workers.
    """

    sample0: np.ndarray
    sample1: np.ndarray

    def __post_init__(self):
        s0 = _as_readonly(self.sample0)
        s1 = _as_readonly(self.sample1)
        object.__setattr__(self, "sample0", s0)
        object.__setattr__(self, "sample1", s1)
        if s0.ndim != 2 or s1.ndim != 2:
            raise DataError("samples must be 2-dimensional arrays")
        if s0.shape[0] < 1 or s1.shape[0] < 1:
            raise DataError("each sample must contain at least one observation")
        if s0.shape[1] != s1.shape[1]:
            raise DataError(
                f"dimension mismatch: sample0 has {s0.shape[1]} columns, "
                f"sample1 has {s1.shape[1]}"
            )
        for name, a in (("sample0", s0), ("sample1", s1)):
            bad = np.argwhere(~np.isfinite(a))
            if bad.size:
                r, c = bad[0]
                raise DataError(f"non-finite value at row {r}, col {c} in {name}")

    @property
    def n0(self) -> int:
        return self.sample0.shape[0]

    @property
    def n1(self) -> int:
        return self.sample1.shape[0]

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def zeta(self) -> float:
        return self.n0 / self.n

    @property
    def dim(self) -> int:
        return self.sample0.shape[1]

    def pooled(self) -> np.ndarray:
        return np.vstack([self.sample0, self.sample1])


@dataclass(frozen=True)
class CutGrid:
    """Per-dimension candidate split thresholds shared by all trees."""

    cuts: tuple  # tuple of 1-d float arrays, one per dimension; lengths may differ

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(_as_readonly(c) for c in self.cuts))
        for j, c in enumerate(self.cuts):
            if c.ndim != 1 or not np.all(np.diff(c) > 0):
                raise DataError(f"cuts must be strictly increasing (dimension {j})")

    @property
    def dim(self) -> int:
        return len(self.cuts)

    def bin_indices(self, X: np.ndarray) -> np.ndarray:
        """Bin index per observation and dimension.

        A point routes left of cut ``j`` (value <= threshold) exactly when
        its bin index is <= j.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DataError(f"points have {X.shape[1] if X.ndim == 2 else '?'} columns, "
                            f"cut grid expects {self.dim}")
        out = np.empty(X.shape, dtype=np.int64)
        for j, c in enumerate(self.cuts):
            out[:, j] = np.searchsorted(c, X[:, j], side="left")
        return out

    def cells(self, bins: np.ndarray):
        """The occupied grid cells of binned rows (see bin_indices).

        Returns (cell_bins, first, inverse): the distinct bin rows, in order
        of first occurrence; the first row of each; and each row's cell, so
        that bins equals cell_bins[inverse]. Rows of one cell route alike
        through every tree whose thresholds are cuts of this grid. When the
        bin rows do not fit one int64 key, each row is its own cell.
        """
        n = bins.shape[0]
        radix = [len(c) + 1 for c in self.cuts]
        if n == 0 or math.prod(radix) > 2**63:
            return bins, np.arange(n), np.arange(n)
        # mixed-radix key, the last dimension varying fastest
        places = np.cumprod([1] + radix[:0:-1], dtype=np.int64)[::-1]
        _, first, inverse = np.unique(bins @ places, return_index=True, return_inverse=True)
        # np.unique numbers the cells by key; renumber them by first row
        order = np.argsort(first)
        first = first[order]
        return bins[first], first, np.argsort(order)[inverse]


def load_matrix(path) -> np.ndarray:
    """Read a headerless numeric CSV into an n x d array."""
    rows = []
    width = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for r, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if width is None:
                    width = len(cells)
                elif len(cells) != width:
                    raise DataError(
                        f"ragged row {r} in {path}: expected {width} cells, got {len(cells)}"
                    )
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    bad = next(i for i, c in enumerate(cells) if not _is_float(c))
                    raise DataError(f"non-numeric cell at row {r}, col {bad} in {path}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {utf8_fault(e)}") from None
    if not rows:
        raise DataError(f"empty input file: {path}")
    a = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        row, c = bad[0]
        with open(path, encoding="utf-8") as fh:  # row skips blank lines; r does not
            r = [r for r, line in enumerate(fh) if line.strip()][row]
        raise DataError(f"non-finite value at row {r}, col {c} in {path}")
    return a


def utf8_fault(e: UnicodeDecodeError) -> str:
    """A file's decoding fault in one line, without the codec's position,
    which counts from the start of the chunk being decoded."""
    return f"not UTF-8 text (byte 0x{e.object[e.start]:02x}: {e.reason})"


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_matrix(path, a: np.ndarray) -> None:
    """Write a matrix as headerless CSV with round-trip-exact floats."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    with open(path, "w") as fh:
        # tolist gives Python floats, whose repr is the shortest round-trip form
        for row in a.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def load_dataset(path0, path1) -> TwoSampleDataset:
    """Load the two groups from separate headerless CSV files."""
    s0 = load_matrix(path0)
    s1 = load_matrix(path1)
    if s0.shape[1] != s1.shape[1]:
        raise DataError(
            f"dimension mismatch: {path0} has {s0.shape[1]} columns, "
            f"{path1} has {s1.shape[1]}"
        )
    return TwoSampleDataset(s0, s1)


def build_cut_grid(data: TwoSampleDataset, count_per_dim: int = CUTS_PER_DIM) -> CutGrid:
    """Equally spaced interior thresholds over the pooled per-dimension range."""
    if not isinstance(count_per_dim, numbers.Integral) or isinstance(count_per_dim, bool):
        raise DataError("count_per_dim must be an integer")
    if count_per_dim < 1:
        raise DataError("count_per_dim must be >= 1")
    pooled = data.pooled()
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    cuts = []
    for j in range(data.dim):
        if hi[j] - lo[j] <= 0:
            raise DataError(f"constant column {j}: zero range over the pooled sample")
        k = np.arange(1, count_per_dim + 1, dtype=np.float64)
        cuts.append(lo[j] + k * (hi[j] - lo[j]) / (count_per_dim + 1))
    return CutGrid(tuple(cuts))
