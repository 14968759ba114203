"""Tests for mixed-radix indexing (the non-binary projection layouts)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marginals.projection import (
    cell_neighbours,
    projection_map,
    strides,
    table_size,
)
from repro.exceptions import DimensionError


class TestBasics:
    def test_table_size(self):
        assert table_size((3, 4, 2)) == 24
        assert table_size(()) == 1

    def test_strides(self):
        assert strides((3, 4, 2)) == (1, 3, 12)

    def test_binary_special_case(self):
        """With all-2 arities the map matches the binary projection."""
        binary = projection_map(4, (1, 3))
        categorical = projection_map((2, 2, 2, 2), (1, 3))
        assert np.array_equal(binary, categorical)


class TestProjectionMap:
    def test_identity(self):
        pmap = projection_map((3, 2), (0, 1))
        assert np.array_equal(pmap, np.arange(6))

    def test_single_attribute(self):
        pmap = projection_map((3, 2), (0,))
        # cells: (a0, a1) = (i%3, i//3)
        assert np.array_equal(pmap, [0, 1, 2, 0, 1, 2])

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            projection_map((3, 2), (2,))

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_balanced_partition(self, data):
        arities = tuple(
            data.draw(
                st.lists(st.integers(2, 4), min_size=1, max_size=4)
            )
        )
        k = data.draw(st.integers(0, len(arities)))
        positions = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(0, len(arities) - 1), min_size=k, max_size=k
                    )
                )
            )
        )
        pmap = projection_map(arities, positions)
        sub_size = table_size([arities[p] for p in positions])
        counts = np.bincount(pmap, minlength=sub_size)
        assert np.all(counts == table_size(arities) // sub_size)


class TestNeighbours:
    def test_degree(self):
        nb = cell_neighbours((3, 4))
        assert nb.shape == (12, (3 - 1) + (4 - 1))

    def test_binary_matches_bitflip(self):
        categorical = np.sort(cell_neighbours((2, 2, 2)), axis=1)
        binary = np.sort(cell_neighbours(3), axis=1)
        assert np.array_equal(categorical, binary)

    def test_neighbours_differ_in_one_digit(self):
        arities = (3, 2, 4)
        nb = cell_neighbours(arities)
        s = strides(arities)
        for cell in range(table_size(arities)):
            for other in nb[cell]:
                digits_a = [(cell // s[j]) % arities[j] for j in range(3)]
                digits_b = [(other // s[j]) % arities[j] for j in range(3)]
                diff = sum(a != b for a, b in zip(digits_a, digits_b))
                assert diff == 1
