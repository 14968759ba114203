"""Tests for the bit-sliced marginal kernels.

The load-bearing property: ``PackedDataset.marginal`` is *bitwise*
identical to ``BinaryDataset.marginal`` for every (N, d, attrs) —
both count exactly, so the assertion is ``array_equal``, never
``allclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.packed as packed_mod
from repro import obs
from repro.exceptions import DimensionError
from repro.kernels.packed import (
    DEFAULT_CHUNK_WORDS,
    PackedDataset,
    as_packed,
    pack_columns,
    popcount_words,
    unpack_columns,
)
from repro.marginals.dataset import BinaryDataset


def _random_dataset(seed: int, n: int, d: int) -> BinaryDataset:
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.05, 0.95)
    return BinaryDataset((rng.random((n, d)) < density).astype(np.uint8))


class TestPackUnpack:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 300), d=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, seed, n, d):
        data = _random_dataset(seed, n, d).data
        words = pack_columns(data)
        assert words.shape == (d, (n + 63) // 64)
        assert np.array_equal(unpack_columns(words, n), data)

    def test_padding_bits_are_zero(self):
        data = np.ones((65, 2), dtype=np.uint8)
        words = pack_columns(data)
        # 65 records -> 2 words; the upper 63 bits of word 1 must be 0
        assert words[0, 1] == 1 and words[1, 1] == 1

    def test_bit_layout(self):
        # record r, attribute j -> bit r % 64 of word r // 64 of row j
        data = np.zeros((70, 2), dtype=np.uint8)
        data[3, 0] = 1
        data[66, 1] = 1
        words = pack_columns(data)
        assert words[0, 0] == np.uint64(1) << np.uint64(3)
        assert words[1, 1] == np.uint64(1) << np.uint64(66 - 64)

    def test_rejects_one_dimensional(self):
        with pytest.raises(DimensionError):
            pack_columns(np.array([0, 1, 0]))


class TestPopcount:
    def test_counts_bits(self):
        words = np.array([0, 1, 0xFF, ~np.uint64(0)], dtype=np.uint64)
        assert popcount_words(words) == 0 + 1 + 8 + 64

    def test_fallback_lut_matches(self, monkeypatch):
        lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)
        monkeypatch.setattr(packed_mod, "_HAS_BITWISE_COUNT", False)
        monkeypatch.setattr(packed_mod, "_POPCOUNT_LUT", lut, raising=False)
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, 257, dtype=np.uint64)
        expected = sum(bin(int(w)).count("1") for w in words)
        assert popcount_words(words) == expected

    def test_fallback_marginal_identical(self, monkeypatch):
        lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)
        monkeypatch.setattr(packed_mod, "_HAS_BITWISE_COUNT", False)
        monkeypatch.setattr(packed_mod, "_POPCOUNT_LUT", lut, raising=False)
        dataset = _random_dataset(7, 500, 8)
        packed = PackedDataset.from_dataset(dataset)
        for attrs in [(0,), (1, 4), (0, 2, 5, 7)]:
            assert np.array_equal(
                packed.marginal(attrs).counts, dataset.marginal(attrs).counts
            )
        np.testing.assert_allclose(
            packed.attribute_means(), dataset.attribute_means()
        )


class TestMarginalEquality:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(0, 400),
        d=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_unpacked(self, seed, n, d, data):
        dataset = _random_dataset(seed, n, d)
        arity = data.draw(st.integers(0, min(d, 12)))
        attrs = tuple(
            data.draw(
                st.lists(
                    st.integers(0, d - 1), min_size=arity, max_size=arity, unique=True
                )
            )
        )
        packed = PackedDataset.from_dataset(dataset)
        got = packed.marginal(attrs)
        expected = dataset.marginal(attrs)
        assert got.attrs == expected.attrs
        assert np.array_equal(got.counts, expected.counts)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129, 1000])
    def test_word_boundary_sizes(self, n):
        dataset = _random_dataset(n + 1, n, 6)
        packed = PackedDataset.from_dataset(dataset)
        for attrs in [(), (0,), (1, 3), (0, 2, 4, 5)]:
            assert np.array_equal(
                packed.marginal(attrs).counts, dataset.marginal(attrs).counts
            )

    def test_chunked_streaming_equal(self):
        dataset = _random_dataset(3, 5000, 12)
        whole = PackedDataset.from_dataset(dataset)
        chunked = PackedDataset.from_dataset(dataset, chunk_words=3)
        # one transpose-histogram target, one unpack target
        for attrs in [(0, 2, 3, 6, 7), (0, 1, 2, 3, 5, 6, 7, 9, 10, 11)]:
            assert np.array_equal(
                chunked.marginal(attrs).counts, whole.marginal(attrs).counts
            )

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_wide_word_boundary_sizes(self, n):
        dataset = _random_dataset(n + 2, n, 14)
        packed = PackedDataset.from_dataset(dataset, chunk_words=2)
        for attrs in [tuple(range(9)), tuple(range(14))]:
            assert np.array_equal(
                packed.marginal(attrs).counts, dataset.marginal(attrs).counts
            )

    def test_empty_attrs_is_total(self):
        dataset = _random_dataset(0, 321, 4)
        packed = PackedDataset.from_dataset(dataset)
        assert packed.marginal(()).counts.tolist() == [321.0]

    def test_marginals_plural(self):
        dataset = _random_dataset(5, 200, 5)
        packed = PackedDataset.from_dataset(dataset)
        blocks = [(0, 1), (2, 4)]
        for got, expected in zip(packed.marginals(blocks), dataset.marginals(blocks)):
            assert np.array_equal(got.counts, expected.counts)

    def test_attribute_means(self):
        dataset = _random_dataset(9, 777, 6)
        packed = PackedDataset.from_dataset(dataset)
        np.testing.assert_allclose(
            packed.attribute_means(), dataset.attribute_means()
        )


class TestConstructionAndValidation:
    def test_from_array_rejects_non_binary(self):
        with pytest.raises(DimensionError):
            PackedDataset.from_array(np.array([[0, 2]]))

    def test_words_shape_must_match_n(self):
        with pytest.raises(DimensionError):
            PackedDataset(np.zeros((3, 2), np.uint64), num_records=300)

    def test_chunk_words_positive(self):
        with pytest.raises(DimensionError):
            PackedDataset(np.zeros((3, 1), np.uint64), 10, chunk_words=0)

    def test_words_read_only(self):
        packed = PackedDataset.from_array(np.zeros((10, 3), np.uint8))
        with pytest.raises(ValueError):
            packed.words[0, 0] = 1

    def test_unpacked_roundtrip(self):
        dataset = _random_dataset(2, 150, 7)
        packed = PackedDataset.from_dataset(dataset)
        assert np.array_equal(packed.unpacked(), dataset.data)

    def test_out_of_range_attrs_rejected(self):
        packed = PackedDataset.from_array(np.zeros((10, 3), np.uint8))
        with pytest.raises(DimensionError):
            packed.marginal((0, 3))


class TestAsPacked:
    def test_passthrough(self):
        packed = PackedDataset.from_array(np.zeros((4, 2), np.uint8))
        assert as_packed(packed) is packed

    def test_dataset_packed_is_cached(self):
        dataset = _random_dataset(1, 100, 4)
        assert dataset.packed() is dataset.packed()
        assert as_packed(dataset) is dataset.packed()
        assert dataset.packed().chunk_words == DEFAULT_CHUNK_WORDS

    def test_chunk_override_rebuilds_wrapper_not_words(self):
        dataset = _random_dataset(1, 100, 4)
        base = dataset.packed()
        tuned = dataset.packed(chunk_words=16)
        assert tuned.chunk_words == 16
        assert np.array_equal(tuned.words, base.words)

    def test_raw_array_accepted(self):
        data = np.eye(5, dtype=np.uint8)
        packed = as_packed(data)
        assert np.array_equal(
            packed.marginal((0, 1)).counts,
            BinaryDataset(data).marginal((0, 1)).counts,
        )


class TestObservability:
    def test_kernel_counters_and_spans(self):
        dataset = _random_dataset(4, 300, 5)
        with obs.session() as sess:
            packed = PackedDataset.from_dataset(dataset)
            packed.marginal((0, 2))
            packed.marginal((1, 3, 4))
            snapshot = sess.metrics.snapshot()
        assert snapshot["counters"]["kernel.packed_marginals"] == 2
