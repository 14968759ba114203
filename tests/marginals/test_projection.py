"""Tests for projection-map index arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nonnegativity import ripple
from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import (
    cell_neighbours,
    constraint_matrix,
    projection_map,
    subset_positions,
)


class TestProjectionMap:
    def test_identity_positions(self):
        pmap = projection_map(3, (0, 1, 2))
        assert np.array_equal(pmap, np.arange(8))

    def test_single_position(self):
        pmap = projection_map(2, (1,))
        # parent cells 0..3; bit 1 selects
        assert np.array_equal(pmap, [0, 0, 1, 1])

    def test_empty_positions(self):
        pmap = projection_map(2, ())
        assert np.array_equal(pmap, [0, 0, 0, 0])

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            projection_map(2, (2,))

    def test_duplicates_rejected(self):
        with pytest.raises(DimensionError):
            projection_map(3, (1, 1))

    def test_result_read_only(self):
        pmap = projection_map(3, (0,))
        with pytest.raises(ValueError):
            pmap[0] = 5

    @given(
        m=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_target_cell_hit_equally(self, m, data):
        """Projection is a balanced partition of parent cells."""
        k = data.draw(st.integers(0, m))
        positions = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(0, m - 1), min_size=k, max_size=k)
                )
            )
        )
        pmap = projection_map(m, positions)
        counts = np.bincount(pmap, minlength=1 << len(positions))
        assert np.all(counts == 1 << (m - len(positions)))


class TestSubsetPositions:
    def test_basic(self):
        assert subset_positions((2, 5, 9), (5, 9)) == (1, 2)

    def test_not_subset(self):
        with pytest.raises(DimensionError):
            subset_positions((2, 5), (3,))

    def test_empty(self):
        assert subset_positions((2, 5), ()) == ()


class TestConstraintMatrix:
    def test_rows_sum_cells(self, rng):
        cells = rng.random(16)
        mat = constraint_matrix(4, (1, 3))
        pmap = projection_map(4, (1, 3))
        expected = np.bincount(pmap, weights=cells, minlength=4)
        assert np.allclose(mat @ cells, expected)

    def test_each_column_in_one_row(self):
        mat = constraint_matrix(3, (0, 2))
        assert np.allclose(mat.sum(axis=0), 1.0)

    def test_empty_projection_is_total(self, rng):
        cells = rng.random(8)
        mat = constraint_matrix(3, ())
        assert mat.shape == (1, 8)
        assert mat @ cells == pytest.approx(cells.sum())


class TestCellNeighbours:
    def test_shape(self):
        nb = cell_neighbours(3)
        assert nb.shape == (8, 3)

    def test_neighbours_differ_in_one_bit(self):
        nb = cell_neighbours(4)
        for cell in range(16):
            for j in range(4):
                assert nb[cell, j] == cell ^ (1 << j)

    def test_symmetry(self):
        nb = cell_neighbours(3)
        for cell in range(8):
            for other in nb[cell]:
                assert cell in nb[other]


class TestMapsKeyedOnArities:
    """AttrSet equality and hashing ignore arities, so every memoised
    map must be keyed on the layout, not on attribute tuples alone."""

    def test_categorical_and_binary_tables_in_one_process(self):
        from repro.marginals.table import MarginalTable

        mixed = MarginalTable(
            AttrSet((0, 1), arities=(3, 2)), np.arange(6, dtype=float)
        )
        binary = MarginalTable((0, 1), np.arange(4, dtype=float))
        assert mixed.attrs == binary.attrs and hash(mixed.attrs) == hash(binary.attrs)
        for _ in range(2):  # second round hits warm caches in both orders
            np.testing.assert_array_equal(mixed.project((0,)).counts, [3, 5, 7])
            np.testing.assert_array_equal(mixed.project((1,)).counts, [3, 12])
            np.testing.assert_array_equal(binary.project((0,)).counts, [2, 4])
            np.testing.assert_array_equal(binary.project((1,)).counts, [1, 5])
            assert mixed.project((0,)).arities == (3,)
            assert binary.project((0,)).attrs.arities is None

    def test_ripple_uses_the_tables_own_neighbourhood(self):
        from repro.marginals.table import MarginalTable

        binary = MarginalTable((0, 1), np.array([-4.0, 6.0, 6.0, 6.0]))
        mixed = MarginalTable(
            AttrSet((0, 1), arities=(3, 2)),
            np.array([-6.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
        )
        ripple(binary, theta=1.0)
        ripple(mixed, theta=1.0)
        ripple(binary, theta=1.0)
        # binary cell 0's neighbours are cells 1 and 2 (one bit each)
        np.testing.assert_array_equal(binary.counts, [0.0, 4.0, 4.0, 6.0])
        # mixed cell 0 = (0, 0): values (1, 0), (2, 0) and (0, 1)
        np.testing.assert_array_equal(mixed.counts, [0.0, 3.0, 3.0, 3.0, 5.0, 5.0])

    def test_all_two_arities_share_the_binary_map(self):
        assert projection_map((2, 2, 2), (0, 2)) is projection_map(3, (0, 2))
        assert cell_neighbours((2, 2)) is cell_neighbours(2)
