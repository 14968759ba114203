"""``as_packed`` on categorical data: never packed, so every marginal
the fit reads is the naive extractor's own ``bincount``."""

import itertools

import numpy as np

from repro.categorical import CategoricalDataset
from repro.kernels.packed import as_packed
from repro.marginals.domain import Domain


class TestPackedEqualsNaive:
    def test_as_packed_passthrough(self):
        rng = np.random.default_rng(2)
        dataset = CategoricalDataset.random(64, (3, 3, 5), rng=rng)
        packed = as_packed(dataset)
        assert packed is dataset
        assert as_packed(packed) is packed
        for attrs in itertools.combinations(range(3), 2):
            np.testing.assert_array_equal(
                packed.marginal(attrs).counts, dataset.marginal(attrs).counts
            )

    def test_domain_rides_along(self):
        dom = Domain.from_arities((3, 4))
        dataset = CategoricalDataset.random(
            100, dom, rng=np.random.default_rng(3)
        )
        packed = as_packed(dataset)
        assert packed.domain == dom
        assert packed.marginal((0, 1)).arities == (3, 4)
