"""Data containers, CSV round-trips, and cut-grid construction."""

import numpy as np
import pytest

from batts import CutGrid, DataError, TwoSampleDataset, build_cut_grid
from batts.data import load_dataset, load_matrix, save_matrix


class TestTwoSampleDataset:
    def test_basic_properties(self):
        d = TwoSampleDataset(np.zeros((3, 2)), np.ones((5, 2)))
        assert (d.n0, d.n1, d.n, d.dim) == (3, 5, 8, 2)
        assert d.zeta == pytest.approx(3 / 8)

    def test_pooled_stacks_group0_first(self):
        d = TwoSampleDataset(np.zeros((2, 1)), np.ones((3, 1)))
        np.testing.assert_array_equal(d.pooled().ravel(), [0, 0, 1, 1, 1])

    def test_arrays_are_read_only(self):
        d = TwoSampleDataset(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.sample0[0, 0] = 1.0

    def test_callers_arrays_stay_writable_and_apart(self):
        a, b = np.zeros((2, 2)), np.ones((3, 2))
        d = TwoSampleDataset(a, b)
        assert a.flags.writeable and b.flags.writeable
        assert not d.sample0.flags.writeable and not d.sample1.flags.writeable
        a[0, 0] = 5.0
        b[1, 1] = 5.0
        np.testing.assert_array_equal(d.sample0, np.zeros((2, 2)))
        np.testing.assert_array_equal(d.sample1, np.ones((3, 2)))

    def test_one_dimensional_sample_rejected(self):
        with pytest.raises(DataError, match="^samples must be 2-dimensional arrays$"):
            TwoSampleDataset(np.zeros(3), np.zeros((2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            TwoSampleDataset(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_non_finite_reports_position(self):
        bad = np.zeros((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(DataError, match="row 1, col 1"):
            TwoSampleDataset(bad, np.zeros((2, 2)))

    def test_empty_group_rejected(self):
        with pytest.raises(DataError, match="at least one observation"):
            TwoSampleDataset(np.zeros((0, 2)), np.zeros((2, 2)))


class TestCutGrid:
    def test_equal_spacing_trivial(self):
        # pooled range [0, 4] with 3 cuts -> {1, 2, 3}
        d = TwoSampleDataset(np.array([[0.0], [4.0]]), np.array([[2.0]]))
        g = build_cut_grid(d, 3)
        np.testing.assert_allclose(g.cuts[0], [1.0, 2.0, 3.0])

    def test_equal_spacing_31(self):
        # pooled range [0, 32] with 31 cuts -> {1, ..., 31}
        d = TwoSampleDataset(np.array([[0.0], [32.0]]), np.array([[16.0]]))
        g = build_cut_grid(d, 31)
        np.testing.assert_allclose(g.cuts[0], np.arange(1.0, 32.0))

    def test_cuts_strictly_interior(self):
        gen = np.random.default_rng(1)
        d = TwoSampleDataset(gen.standard_normal((50, 3)),
                             gen.standard_normal((60, 3)))
        g = build_cut_grid(d, 31)
        pooled = d.pooled()
        for j in range(3):
            assert np.all(g.cuts[j] > pooled[:, j].min())
            assert np.all(g.cuts[j] < pooled[:, j].max())
            assert np.all(np.diff(g.cuts[j]) > 0)

    def test_constant_column_rejected(self):
        d = TwoSampleDataset(np.array([[1.0, 0.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(DataError, match="constant column 0"):
            build_cut_grid(d, 7)

    @pytest.mark.parametrize("count", [2.5, 3.0, 0, True])
    def test_non_integral_or_zero_count_rejected(self, count):
        d = TwoSampleDataset(np.array([[0.0], [4.0]]), np.array([[2.0]]))
        with pytest.raises(DataError, match="count_per_dim must be"):
            build_cut_grid(d, count)

    def test_row_permutation_invariance(self):
        gen = np.random.default_rng(3)
        s0 = gen.standard_normal((40, 2))
        s1 = gen.standard_normal((30, 2))
        g1 = build_cut_grid(TwoSampleDataset(s0, s1), 9)
        perm = gen.permutation(40)
        g2 = build_cut_grid(TwoSampleDataset(s0[perm], s1), 9)
        for a, b in zip(g1.cuts, g2.cuts):
            np.testing.assert_array_equal(a, b)

    def test_callers_cuts_stay_writable_and_apart(self):
        cuts = np.array([1.0, 2.0])
        grid = CutGrid((cuts,))
        assert cuts.flags.writeable and not grid.cuts[0].flags.writeable
        cuts[0] = 0.5
        np.testing.assert_array_equal(grid.cuts[0], [1.0, 2.0])

    def test_non_increasing_cuts_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            CutGrid((np.array([1.0, 1.0, 2.0]),))

    def test_bin_indices_align_with_routing(self):
        g = CutGrid((np.array([1.0, 2.0, 3.0]),))
        x = np.array([[0.5], [1.0], [1.5], [3.0], [9.0]])
        bins = g.bin_indices(x).ravel()
        np.testing.assert_array_equal(bins, [0, 0, 1, 2, 3])
        # bin index <= j exactly when the value routes left of cut j
        for j in range(3):
            np.testing.assert_array_equal(
                bins <= j, x.ravel() <= g.cuts[0][j]
            )

    def test_bin_indices_column_count_checked(self):
        g = CutGrid((np.array([1.0, 2.0, 3.0]),))
        with pytest.raises(DataError, match="points have 2 columns, cut grid expects 1$"):
            g.bin_indices(np.array([[0.5, 1.0], [1.5, 2.0]]))
        with pytest.raises(DataError, match=r"points have \? columns"):
            g.bin_indices(np.array([0.5, 1.5]))


def _cells_oracle(bins):
    """Cells by a dict of bin tuples, in order of first occurrence."""
    cell_of, first, inverse = {}, [], []
    for i, row in enumerate(map(tuple, bins)):
        if row not in cell_of:
            cell_of[row] = len(first)
            first.append(i)
        inverse.append(cell_of[row])
    return np.array(first), np.array(inverse)


class TestCells:
    def test_first_occurrence_order(self):
        g = CutGrid((np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        bins = np.array([[1, 0], [0, 2], [1, 0], [2, 2], [0, 2], [2, 2]])
        cell_bins, first, inverse = g.cells(bins)
        np.testing.assert_array_equal(cell_bins, [[1, 0], [0, 2], [2, 2]])
        np.testing.assert_array_equal(first, [0, 1, 3])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 2, 1, 2])

    def test_distinct_rows_are_their_own_cells(self):
        g = CutGrid((np.arange(1.0, 8.0), np.arange(1.0, 4.0)))
        gen = np.random.default_rng(5)
        bins = np.column_stack([gen.permutation(8), gen.integers(0, 4, 8)])
        cell_bins, first, inverse = g.cells(bins)
        np.testing.assert_array_equal(first, np.arange(8))
        np.testing.assert_array_equal(inverse, np.arange(8))
        np.testing.assert_array_equal(cell_bins, bins)

    def test_cuts_edges_and_duplicates_match_oracle(self):
        """Rows exactly on a cut, below the first and past the last cut, and
        duplicated rows, on uneven cut counts: the cells match a dict oracle,
        and rows of one cell route alike at every cut."""
        cuts = (np.array([-1.0, 0.0, 1.0]), np.array([0.5]), np.linspace(-2, 2, 9))
        g = CutGrid(cuts)
        gen = np.random.default_rng(8)
        X = gen.standard_normal((300, 3)) * 1.5
        X[:40] = X[40:80]  # duplicated rows
        X[80:90, 0] = 0.0  # on a cut
        X[90:100, 1] = 0.5
        X[100:110, 2] = 9.0  # past the last cut
        X[110:120, 0] = -7.0  # below the first cut
        bins = g.bin_indices(X)
        cell_bins, first, inverse = g.cells(bins)
        want_first, want_inverse = _cells_oracle(bins)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(inverse, want_inverse)
        np.testing.assert_array_equal(cell_bins, bins[want_first])
        assert cell_bins.shape[0] < 280
        for dim, c in enumerate(cuts):
            for t in c:
                left = X[:, dim] <= t
                np.testing.assert_array_equal(left, left[first][inverse])

    def test_twenty_dims_fall_back_to_rows(self):
        """32^20 bin vectors do not fit an int64 key: each row is its own
        cell, duplicates included."""
        g = CutGrid(tuple(np.linspace(-2, 2, 31) for _ in range(20)))
        gen = np.random.default_rng(2)
        X = gen.standard_normal((50, 20))
        X[10:20] = X[:10]
        bins = g.bin_indices(X)
        cell_bins, first, inverse = g.cells(bins)
        np.testing.assert_array_equal(first, np.arange(50))
        np.testing.assert_array_equal(inverse, np.arange(50))
        np.testing.assert_array_equal(cell_bins, bins)


class TestCsvIo:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        a = rng.standard_normal((20, 3))
        path = tmp_path / "m.csv"
        save_matrix(path, a)
        b = load_matrix(path)
        np.testing.assert_array_equal(a, b)
        save_matrix(tmp_path / "m2.csv", b)
        assert (tmp_path / "m.csv").read_text() == (tmp_path / "m2.csv").read_text()

    def test_each_value_is_written_as_its_python_float_repr(self, tmp_path):
        """Negative zero, the smallest subnormal, a value near the top of
        the range and 0.1 are written as repr(float(v)) writes them."""
        a = np.array([[-0.0, 5e-324], [1e308, 0.1], [np.float64(-2.5), 3.0]])
        path = tmp_path / "m.csv"
        save_matrix(path, a)
        assert path.read_text() == "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in a)
        assert path.read_text().splitlines()[:2] == ["-0.0,5e-324", "1e+308,0.1"]
        assert np.array_equal(np.signbit(load_matrix(path)), np.signbit(a))

    def test_load_dataset(self, tmp_path, rng):
        s0 = rng.standard_normal((10, 2))
        s1 = rng.standard_normal((12, 2))
        save_matrix(tmp_path / "a.csv", s0)
        save_matrix(tmp_path / "b.csv", s1)
        d = load_dataset(tmp_path / "a.csv", tmp_path / "b.csv")
        np.testing.assert_array_equal(d.sample0, s0)
        np.testing.assert_array_equal(d.sample1, s1)

    def test_column_count_mismatch(self, tmp_path):
        (tmp_path / "a.csv").write_text("1.0,2.0\n")
        (tmp_path / "b.csv").write_text("1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="dimension mismatch"):
            load_dataset(tmp_path / "a.csv", tmp_path / "b.csv")

    def test_ragged_row(self, tmp_path):
        (tmp_path / "a.csv").write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="ragged row 1"):
            load_matrix(tmp_path / "a.csv")

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "a.csv").write_text("1.0,x\n")
        with pytest.raises(DataError, match="non-numeric cell at row 0, col 1"):
            load_matrix(tmp_path / "a.csv")

    def test_blank_lines_are_skipped(self, tmp_path):
        (tmp_path / "a.csv").write_text("\n1.0,2.0\n\n  \n3.0,4.0\n\n")
        np.testing.assert_array_equal(load_matrix(tmp_path / "a.csv"), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_counts_file_lines(self, tmp_path, cell):
        """The row is the file line, as for a ragged or non-numeric row,
        blank lines included."""
        path = tmp_path / "a.csv"
        path.write_text(f"1,2\n\n{cell},3\n")
        with pytest.raises(DataError) as e:
            load_matrix(path)
        assert str(e.value) == f"non-finite value at row 2, col 0 in {path}"
        path.write_text("1,2\n\nx,3\n")
        with pytest.raises(DataError, match="^non-numeric cell at row 2, col 0 in "):
            load_matrix(path)

    def test_not_utf8_names_the_file(self, tmp_path):
        """The bad byte sits past the first chunk the reader decodes."""
        path = tmp_path / "a.csv"
        path.write_bytes(b"1.0,2.0\n" * 2000 + b"3.0,\xc34.0\n")
        with pytest.raises(DataError) as e:
            load_matrix(path)
        assert str(e.value) == f"{path}: not UTF-8 text (byte 0xc3: invalid continuation byte)"

    def test_empty_file(self, tmp_path):
        (tmp_path / "a.csv").write_text("")
        with pytest.raises(DataError, match="empty input"):
            load_matrix(tmp_path / "a.csv")

    def test_constant_column_at_load(self, tmp_path):
        """A constant column is valid data, so it loads; only the cut grid,
        which needs a pooled range, refuses it (batts fit and bayes build the
        grid before any work: see test_cli)."""
        (tmp_path / "a.csv").write_text("1.0,5.0\n1.0,6.0\n")
        (tmp_path / "b.csv").write_text("1.0,7.0\n")
        d = load_dataset(tmp_path / "a.csv", tmp_path / "b.csv")
        np.testing.assert_array_equal(d.sample0[:, 0], [1.0, 1.0])
        with pytest.raises(DataError, match="^constant column 0: zero range over the pooled sample$"):
            build_cut_grid(d)
