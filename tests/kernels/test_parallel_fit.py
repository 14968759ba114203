"""The parallel-fit determinism contract.

A fitted synopsis must be bit-identical no matter how many threads
executed the fan-out; the deprecated ``packed`` keyword must not
change anything relative to the seed path.
"""

import numpy as np
import pytest

import repro.kernels.fit as fit_mod
from repro import PriView, obs
from repro.categorical import CategoricalDataset, CategoricalPriView
from repro.covering.repository import best_design
from repro.kernels import fit_defaults, set_fit_defaults
from repro.kernels.executor import spawn_seed_sequences
from repro.kernels.fit import generate_noisy_views
from repro.marginals.dataset import BinaryDataset


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    return BinaryDataset((rng.random((2500, 16)) < 0.3).astype(np.uint8))


@pytest.fixture(scope="module")
def design():
    return best_design(16, 8, 3)


def _views_equal(a, b):
    assert len(a) == len(b)
    for va, vb in zip(a, b):
        assert va.attrs == vb.attrs
        assert np.array_equal(va.counts, vb.counts)


class TestGenerateNoisyViews:
    def test_worker_count_invariance(self, dataset, design):
        reference = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=1
        )
        for workers in (2, 8):
            got = generate_noisy_views(
                dataset, design.blocks, 1.0, design.num_blocks,
                root_seed=5, workers=workers,
            )
            _views_equal(reference, got)

    @pytest.mark.parametrize(
        "workers", [pytest.param(None, id="serial"), pytest.param(4, id="thread")]
    )
    def test_backend_invariance(self, dataset, design, workers):
        """In the caller's thread or on a pool, view ``i`` is the
        exact marginal of block ``i`` plus the ``i``-th spawned stream."""
        scale = design.num_blocks / 1.0
        seqs = spawn_seed_sequences(5, design.num_blocks)
        expected = [
            fit_mod._noisy_view(dataset, (block, scale, seq))
            for block, seq in zip(design.blocks, seqs)
        ]
        got = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks,
            root_seed=5, workers=workers,
        )
        _views_equal(expected, got)

    def test_views_keep_block_order(self, dataset, design):
        views = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=4
        )
        assert [view.attrs for view in views] == [
            tuple(block) for block in design.blocks
        ]

    def test_packed_source_invariance(self, dataset, design):
        raw = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=2
        )
        packed = generate_noisy_views(
            dataset.packed(), design.blocks, 1.0, design.num_blocks,
            root_seed=5, workers=2,
        )
        _views_equal(raw, packed)

    def test_infinite_epsilon_is_exact(self, dataset, design):
        views = generate_noisy_views(
            dataset, design.blocks, float("inf"), design.num_blocks,
            root_seed=0, workers=2,
        )
        for view, block in zip(views, design.blocks):
            assert np.array_equal(view.counts, dataset.marginal(block).counts)

    def test_draws_recorded_in_parent(self, dataset, design):
        with obs.session() as sess:
            with obs.budget_scope("fit", 1.0):
                generate_noisy_views(
                    dataset, design.blocks, 1.0, design.num_blocks,
                    root_seed=0, workers=2,
                )
            sess.ledger.check()
            assert sess.ledger.total_draws() == design.num_blocks


class TestPriViewIntegration:
    def test_packed_only_matches_seed_path(self, dataset, design):
        # the deprecated keyword is accepted and ignored
        legacy = PriView(1.0, design=design, seed=5).fit(dataset)
        packed = PriView(1.0, design=design, seed=5, packed=True).fit(dataset)
        _views_equal(legacy.views, packed.views)

    def test_extractor_follows_the_data(self, dataset, design):
        """Binary fits always count on the packed kernels, categorical
        fits never; data whose arities are all 2 is binary, whatever it
        is called."""
        rng = np.random.default_rng(3)
        categorical = CategoricalDataset.random(500, (3, 2, 4, 2), rng=rng)
        arity2 = CategoricalDataset(dataset.data, (2,) * dataset.num_attributes)
        with obs.session() as sess:
            PriView(1.0, design=design, seed=5).fit(dataset)
            binary_counts = sess.metrics.snapshot()["counters"]
        with obs.session() as sess:
            CategoricalPriView(1.0, seed=5).fit(categorical)
            categorical_counts = sess.metrics.snapshot()["counters"]
        with obs.session() as sess:
            synopsis = CategoricalPriView(1.0, max_cells=64, seed=5).fit(arity2)
            arity2_counts = sess.metrics.snapshot()["counters"]
        assert binary_counts["kernel.packed_marginals"] == design.num_blocks
        assert "kernel.packed_marginals" not in categorical_counts
        assert arity2_counts["kernel.packed_marginals"] == synopsis.num_views

    def test_fit_worker_invariance(self, dataset, design):
        reference = PriView(1.0, design=design, seed=5, workers=1).fit(dataset)
        for workers in (2, 8):
            got = PriView(1.0, design=design, seed=5, workers=workers).fit(dataset)
            _views_equal(reference.views, got.views)

    def test_parallel_fit_ledger_balances(self, dataset, design):
        with obs.session() as sess:
            PriView(1.0, design=design, seed=5, workers=2).fit(dataset)
            sess.ledger.check()
            snapshot = sess.metrics.snapshot()
        assert snapshot["gauges"]["fit.workers"] == 2
        assert snapshot["counters"]["kernel.packed_marginals"] == design.num_blocks

    def test_categorical_parallel_fit_ledger_balances(self):
        rng = np.random.default_rng(4)
        dataset = CategoricalDataset.random(800, (3, 5, 2, 4, 2), rng=rng)
        with obs.session() as sess:
            synopsis = CategoricalPriView(1.0, seed=5, workers=2).fit(dataset)
            sess.ledger.check()
            snapshot = sess.metrics.snapshot()
        assert snapshot["gauges"]["fit.workers"] == 2
        assert sess.ledger.total_draws() == synopsis.num_views

    def test_defaults_flow_from_config(self, dataset, design):
        previous = set_fit_defaults(workers=2)
        try:
            mechanism = PriView(1.0, design=design, seed=5)
            assert mechanism.workers == 2
            explicit = PriView(1.0, design=design, seed=5, workers=8)
            assert explicit.workers == 8
        finally:
            set_fit_defaults(**previous)
        assert fit_defaults() == previous

    def test_defaults_accept_only_workers(self):
        with pytest.raises(TypeError):
            set_fit_defaults(workers=2, packed=True)
