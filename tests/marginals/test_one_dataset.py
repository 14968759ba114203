"""One record table: binary, categorical and synthetic records are one
:class:`Dataset`."""

import numpy as np
import pytest

from repro.categorical import CategoricalDataset
from repro.exceptions import DimensionError
from repro.kernels import PackedDataset, as_packed
from repro.marginals.dataset import BinaryDataset, Dataset
from repro.marginals.domain import Domain
from repro.synth import SyntheticRecords


def test_one_class():
    assert BinaryDataset is Dataset and CategoricalDataset is Dataset
    assert issubclass(SyntheticRecords, Dataset)


class TestSchema:
    def test_arities_default_to_binary(self):
        ds = Dataset(np.zeros((3, 4), np.uint8))
        assert ds.arities == (2, 2, 2, 2) and ds.is_binary

    def test_arities_never_inferred_from_the_records(self):
        with pytest.raises(DimensionError, match=r"columns \[1\]"):
            Dataset(np.array([[0, 3], [1, 0]]))

    def test_arities_come_from_the_domain(self):
        domain = Domain.from_arities((3, 2, 5))
        ds = Dataset(np.array([[2, 1, 4]]), domain=domain)
        assert ds.arities == (3, 2, 5) and not ds.is_binary
        with pytest.raises(DimensionError):
            Dataset(np.array([[2, 1, 4]]), (3, 2, 6), domain=domain)

    def test_range_check_names_every_bad_column(self):
        with pytest.raises(DimensionError, match=r"columns \[0, 2\]"):
            Dataset(np.array([[3, 0, 2], [0, 1, 0]]), (3, 2, 2))

    def test_negative_codes_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([[0, -1]]), (3, 3))


class TestStorage:
    def test_uint8_binary_input_is_not_copied(self):
        data = (np.random.default_rng(0).random((100, 8)) < 0.5).astype(np.uint8)
        ds = Dataset(data)
        assert np.shares_memory(ds.data, data)

    def test_codes_stored_in_smallest_unsigned_type(self):
        codes = np.array([[0, 255], [2, 3]], dtype=np.int64)
        assert Dataset(codes, (3, 256)).data.dtype == np.uint8
        assert Dataset(codes, (3, 257)).data.dtype == np.uint16

    def test_repr_keeps_shape(self):
        text = repr(Dataset(np.zeros((7, 3), np.uint8), (2, 4, 2)))
        assert "N=7" in text and "d=3" in text


class TestMarginals:
    def test_binary_tables_stay_arity_less(self):
        ds = Dataset.random(50, 4, rng=np.random.default_rng(1))
        assert ds.marginal((0, 2)).attrs.arities is None

    def test_arity2_categorical_equals_binary_bitwise(self):
        data = (np.random.default_rng(2).random((500, 6)) < 0.4).astype(np.uint8)
        binary = BinaryDataset(data)
        arity2 = CategoricalDataset(data.astype(np.int64), (2,) * 6)
        for attrs in [(0,), (1, 3), (0, 2, 4, 5)]:
            np.testing.assert_array_equal(
                binary.marginal(attrs).counts, arity2.marginal(attrs).counts
            )
        assert isinstance(as_packed(arity2), PackedDataset)

    def test_mixed_radix_cell_index(self):
        ds = Dataset(np.array([[2, 1, 0], [1, 0, 3]]), (3, 2, 4))
        # cell = a0 + 3 * a1 + 6 * a2
        assert ds.cell_index((0, 1, 2)).tolist() == [5, 19]

    def test_names_resolve_through_the_domain(self):
        domain = Domain.from_arities((3, 2, 4), names=("a", "b", "c"))
        ds = Dataset.random(300, domain, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(
            ds.marginal(("c", "a")).counts, ds.marginal((0, 2)).counts
        )
        assert ds.marginal(("a", "c")).arities == (3, 4)

    def test_random_keeps_the_seeded_recipes(self):
        bern = Dataset.random(40, 5, density=0.3, rng=np.random.default_rng(4))
        expected = np.random.default_rng(4).random((40, 5)) < 0.3
        np.testing.assert_array_equal(bern.data, expected)
        codes = Dataset.random(40, (3, 5), rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        expected = np.stack([rng.integers(0, b, size=40) for b in (3, 5)], axis=1)
        np.testing.assert_array_equal(codes.data, expected)


def test_binary_only_packing():
    with pytest.raises(DimensionError):
        Dataset(np.zeros((2, 2), np.uint8), (3, 2)).packed()
