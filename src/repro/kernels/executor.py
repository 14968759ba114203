"""Seed spawning and pool sizing for the fit fan-out.

Determinism is owned by the *caller*, not the pool: work item ``i``
carries its own pre-assigned RNG stream (see
:func:`spawn_seed_sequences`), so the result list is bit-identical for
any worker count and any scheduling order — the contract
``tests/kernels/test_parallel_fit.py`` locks in.
"""

from __future__ import annotations

import os

import numpy as np


def spawn_seed_sequences(root: np.random.SeedSequence | int | None, n: int):
    """``n`` independent child seed sequences of ``root``.

    Children are assigned to work items by *index*, never by worker,
    which is what makes a parallel fit reproducible across pool sizes.
    """
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    return root.spawn(n)


def resolve_workers(workers: int | None) -> int:
    """Effective pool width: ``None``/0 → 1, negative → cpu count."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return int(workers)
