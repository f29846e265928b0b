"""Data containers, CSV round-trips, and cut-grid construction."""

import numpy as np
import pytest

from batts import CutGrid, DataError, TwoSampleDataset, build_cut_grid
from batts.data import (
    load_dataset,
    load_labeled_dataset,
    load_matrix,
    save_matrix,
)


class TestTwoSampleDataset:
    def test_basic_properties(self):
        d = TwoSampleDataset(np.zeros((3, 2)), np.ones((5, 2)))
        assert (d.n0, d.n1, d.n, d.dim) == (3, 5, 8, 2)
        assert d.zeta == pytest.approx(3 / 8)

    def test_pooled_stacks_group0_first(self):
        d = TwoSampleDataset(np.zeros((2, 1)), np.ones((3, 1)))
        np.testing.assert_array_equal(d.pooled().ravel(), [0, 0, 1, 1, 1])

    def test_swapped_exchanges_groups(self):
        d = TwoSampleDataset(np.zeros((2, 1)), np.ones((3, 1)))
        s = d.swapped()
        assert s.n0 == 3 and s.n1 == 2
        np.testing.assert_array_equal(s.sample0, d.sample1)

    def test_arrays_are_read_only(self):
        d = TwoSampleDataset(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.sample0[0, 0] = 1.0

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

    def test_row_permutation_invariance(self):
        gen = np.random.default_rng(3)
        s0 = gen.standard_normal((40, 2))
        s1 = gen.standard_normal((30, 2))
        g1 = build_cut_grid(TwoSampleDataset(s0, s1), 9)
        perm = gen.permutation(40)
        g2 = build_cut_grid(TwoSampleDataset(s0[perm], s1), 9)
        for a, b in zip(g1.cuts, g2.cuts):
            np.testing.assert_array_equal(a, b)

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


class TestCsvIo:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        a = rng.standard_normal((20, 3))
        path = tmp_path / "m.csv"
        save_matrix(path, a)
        b = load_matrix(path)
        np.testing.assert_array_equal(a, b)
        save_matrix(tmp_path / "m2.csv", b)
        assert (tmp_path / "m.csv").read_text() == (tmp_path / "m2.csv").read_text()

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

    def test_empty_file(self, tmp_path):
        (tmp_path / "a.csv").write_text("")
        with pytest.raises(DataError, match="empty input"):
            load_matrix(tmp_path / "a.csv")

    def test_labeled_dataset(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n"
        )
        d = load_labeled_dataset(tmp_path / "m.csv")
        assert d.n0 == 2 and d.n1 == 1
        np.testing.assert_array_equal(d.sample1, [[3.0, 4.0]])

    def test_labeled_dataset_bad_label(self, tmp_path):
        (tmp_path / "m.csv").write_text("1.0,2.0,2\n")
        with pytest.raises(DataError, match="0 and 1"):
            load_labeled_dataset(tmp_path / "m.csv")

    def test_constant_column_at_load(self, tmp_path):
        (tmp_path / "a.csv").write_text("1.0,5.0\n1.0,6.0\n")
        (tmp_path / "b.csv").write_text("1.0,7.0\n")
        with pytest.raises(DataError, match="constant column 0"):
            load_dataset(tmp_path / "a.csv", tmp_path / "b.csv")
