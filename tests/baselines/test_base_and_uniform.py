"""Tests for the mechanism protocol and the Uniform baseline."""

import numpy as np
import pytest

from repro.baselines.uniform import UniformMethod
from repro.exceptions import PrivacyBudgetError, ReconstructionError


class TestProtocol:
    def test_marginal_before_fit_rejected(self):
        with pytest.raises(ReconstructionError):
            UniformMethod(1.0).marginal((0,))

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            UniformMethod(-1.0)

    def test_fit_returns_self(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0)
        assert mech.fit(tiny_dataset) is mech


class TestUniform:
    def test_uniform_cells(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0).fit(tiny_dataset)
        table = mech.marginal((0, 1, 2))
        assert np.allclose(table.counts, table.counts[0])

    def test_total_close_to_n(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0).fit(tiny_dataset)
        assert mech.marginal((0,)).total() == pytest.approx(500, abs=50)

    def test_attrs_sorted(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0).fit(tiny_dataset)
        assert mech.marginal((3, 1)).attrs == (1, 3)

    def test_noise_free(self, tiny_dataset):
        mech = UniformMethod(float("inf"), seed=0).fit(tiny_dataset)
        assert mech.marginal((0,)).total() == pytest.approx(500.0)

    def test_cells_follow_the_arities(self):
        from repro.categorical import CategoricalDataset

        mixed = CategoricalDataset.random(
            300, (3, 4, 2, 5), rng=np.random.default_rng(0)
        )
        mech = UniformMethod(float("inf"), seed=0).fit(mixed)
        for attrs, cells in [((0, 1), 12), ((1, 2, 3), 40), ((2,), 2)]:
            table = mech.marginal(attrs)
            assert table.counts.size == cells
            assert table.total() == pytest.approx(300.0)
