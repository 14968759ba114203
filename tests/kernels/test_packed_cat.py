"""Bit-plane packed kernels over mixed domains vs the naive extractor."""

import itertools

import numpy as np
import pytest

from repro.categorical.dataset import CategoricalDataset
from repro.kernels.packed import PackedDataset, as_packed, plane_count
from repro.marginals.domain import Domain


class TestPlaneCount:
    def test_matches_bit_length(self):
        for arity in range(2, 40):
            assert plane_count(arity) == (arity - 1).bit_length()


class TestPackedEqualsNaive:
    @pytest.mark.parametrize("trial", range(5))
    def test_random_mixed_domains(self, trial):
        """Property: every k-way marginal of a packed dataset is
        bitwise identical to the naive extractor's, across random
        mixed domains and record counts straddling word boundaries."""
        rng = np.random.default_rng(100 + trial)
        d = int(rng.integers(4, 9))
        arities = tuple(int(b) for b in rng.integers(2, 9, size=d))
        n = int(rng.integers(50, 400))
        dataset = CategoricalDataset.random(n, arities, rng=rng)
        packed = as_packed(dataset)
        assert packed.arities == arities
        for k in (1, 2, 3):
            for attrs in itertools.combinations(range(d), k):
                naive = dataset.marginal(attrs)
                fast = packed.marginal(attrs)
                assert fast.attrs == naive.attrs
                assert fast.arities == naive.arities
                np.testing.assert_array_equal(fast.counts, naive.counts)

    def test_word_boundary_sizes(self):
        rng = np.random.default_rng(0)
        for n in (63, 64, 65, 128, 129):
            dataset = CategoricalDataset.random(n, (3, 5, 2), rng=rng)
            packed = as_packed(dataset)
            for attrs in ((0,), (1, 2), (0, 1, 2)):
                np.testing.assert_array_equal(
                    packed.marginal(attrs).counts,
                    dataset.marginal(attrs).counts,
                )

    def test_unpacked_round_trip(self):
        rng = np.random.default_rng(1)
        dataset = CategoricalDataset.random(200, (4, 3, 7), rng=rng)
        packed = as_packed(dataset)
        np.testing.assert_array_equal(packed.unpacked(), dataset.data)

    def test_as_packed_passthrough(self):
        rng = np.random.default_rng(2)
        dataset = CategoricalDataset.random(64, (3, 3), rng=rng)
        packed = as_packed(dataset)
        assert as_packed(packed) is packed

    def test_domain_rides_along(self):
        dom = Domain.from_arities((3, 4))
        dataset = CategoricalDataset.random(
            100, dom, rng=np.random.default_rng(3)
        )
        packed = as_packed(dataset)
        assert isinstance(packed, PackedDataset)
        assert getattr(packed, "domain", None) == dom
