"""The per-view noisy-marginal fan-out used by ``PriView.fit``.

:func:`generate_noisy_views` extracts one marginal per design block
from the fit's marginal source (see :func:`repro.kernels.as_packed`)
and adds the per-view Laplace noise, in the caller's thread for one
worker and over a thread pool otherwise.  The numpy kernels release
the GIL, so threads are the only pool.

Determinism contract
--------------------
The root seed is spawned into one independent
``np.random.SeedSequence`` child per view, assigned by *view index*.
Worker count and completion order therefore never change the
released synopsis: a fit with 1, 2 or 8 workers is bit-identical.
The streams differ from the legacy sequential path (one generator
drawn view after view), which ``PriView`` keeps as the default for
backwards compatibility.

Budget accounting happens in the caller's thread *after* the fan-out
(one ledger record per view), in view order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import obs
from repro.kernels.executor import resolve_workers, spawn_seed_sequences
from repro.marginals.table import MarginalTable


def _noisy_view(source, item) -> MarginalTable:
    """One view: exact marginal + per-view Laplace stream.

    Rebuilds through the table's own ``with_counts``, so the table
    keeps its attributes' arities (binary or categorical).
    """
    block, scale, seed_seq = item
    table = source.marginal(block)
    if scale > 0.0:
        rng = np.random.default_rng(seed_seq)
        table = table.with_counts(
            table.counts + rng.laplace(loc=0.0, scale=scale, size=table.counts.shape)
        )
    return table


def generate_noisy_views(
    source,
    blocks,
    epsilon: float,
    sensitivity: float,
    root_seed,
    workers: int | None = None,
) -> list[MarginalTable]:
    """Noisy marginal per block, deterministically, in parallel.

    Parameters
    ----------
    source:
        Anything exposing ``marginal(attrs) -> MarginalTable`` — a
        :class:`~repro.kernels.packed.PackedDataset` or a
        :class:`~repro.marginals.dataset.Dataset`.
    blocks:
        The design's view attribute sets.
    epsilon / sensitivity:
        Laplace noise of scale ``sensitivity / epsilon`` per cell;
        ``epsilon = inf`` releases exact views.
    root_seed:
        Seed material (int, ``SeedSequence`` or None) spawned into one
        child stream per view.
    workers:
        Thread-pool width; ``None``, 0 or 1 run in the caller's
        thread, negative means "one per CPU".
    """
    blocks = list(blocks)
    scale = 0.0 if np.isinf(epsilon) else sensitivity / epsilon
    seqs = spawn_seed_sequences(root_seed, len(blocks))
    items = [(block, scale, seq) for block, seq in zip(blocks, seqs)]

    def task(item):
        return _noisy_view(source, item)

    effective = resolve_workers(workers)
    obs.set_gauge("fit.workers", effective)
    if effective <= 1 or len(items) <= 1:
        views = [task(item) for item in items]
    else:
        with ThreadPoolExecutor(
            max_workers=effective, thread_name_prefix="repro-fit"
        ) as pool:
            views = list(pool.map(task, items))

    if scale > 0.0:
        for view in views:
            obs.record_draw(
                "laplace",
                epsilon=epsilon,
                sensitivity=sensitivity,
                scale=scale,
                draws=int(view.counts.size),
            )
    return views
