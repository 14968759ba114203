"""Tests for pool sizing, seed spawning and the fit's thread fan-out."""

import os
import threading

import numpy as np
import pytest

import repro.kernels.fit as fit_mod
from repro.covering.repository import best_design
from repro.kernels.executor import resolve_workers, spawn_seed_sequences
from repro.kernels.fit import generate_noisy_views
from repro.marginals.dataset import BinaryDataset


def _generators(root, n):
    return [np.random.default_rng(seq) for seq in spawn_seed_sequences(root, n)]


class TestResolveWorkers:
    @pytest.mark.parametrize("workers,expected", [(None, 1), (0, 1), (1, 1), (5, 5)])
    def test_explicit(self, workers, expected):
        assert resolve_workers(workers) == expected

    def test_negative_means_cpu_count(self):
        assert resolve_workers(-1) == max(os.cpu_count() or 1, 1)


class TestSeedSpawning:
    def test_deterministic_per_index(self):
        a = _generators(123, 4)
        b = _generators(123, 4)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.random(8), gb.random(8))

    def test_children_independent(self):
        gens = _generators(123, 3)
        draws = [g.random(8) for g in gens]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_accepts_seed_sequence(self):
        root = np.random.SeedSequence(7)
        seqs = spawn_seed_sequences(root, 2)
        assert len(seqs) == 2

    def test_prefix_stability(self):
        """The first k children don't depend on how many are spawned."""
        a = spawn_seed_sequences(9, 3)
        b = spawn_seed_sequences(9, 10)
        for sa, sb in zip(a, b):
            assert sa.generate_state(4).tolist() == sb.generate_state(4).tolist()


class TestParallelExecutor:
    """``generate_noisy_views`` maps in the caller's thread for one
    worker or one view, else over a ``ThreadPoolExecutor``."""

    @pytest.fixture
    def fit_threads(self, monkeypatch):
        seen = []
        real = fit_mod._noisy_view

        def spy(source, item):
            seen.append(threading.current_thread())
            return real(source, item)

        monkeypatch.setattr(fit_mod, "_noisy_view", spy)
        return seen

    @pytest.fixture
    def dataset(self):
        rng = np.random.default_rng(1)
        return BinaryDataset((rng.random((200, 8)) < 0.4).astype(np.uint8))

    def test_serial_runs_in_caller_thread(self, fit_threads, dataset):
        design = best_design(8, 4, 2)
        generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=1
        )
        assert len(fit_threads) == design.num_blocks
        assert all(t is threading.current_thread() for t in fit_threads)

    def test_single_item_skips_pool(self, fit_threads, dataset, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single view must not start a pool")

        monkeypatch.setattr(fit_mod, "ThreadPoolExecutor", no_pool)
        views = generate_noisy_views(
            dataset, [(0, 1, 2)], float("inf"), 1, root_seed=5, workers=4
        )
        assert np.array_equal(views[0].counts, dataset.marginal((0, 1, 2)).counts)
        assert fit_threads == [threading.current_thread()]
