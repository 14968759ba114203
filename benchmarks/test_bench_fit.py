"""Benchmark the fit hot path: bit-sliced kernels vs. the seed path.

Emits ``BENCH_fit.json`` — fit wall time on a d=64, N=1M dataset for
the legacy seed path (``BinaryDataset.marginal``'s uint8 bincount, one
sequential noise stream, then ``PriView.post_process``) and for
``PriView.fit`` itself (bit-sliced popcount kernels, 8-thread pool) —
the machine-readable trajectory later performance PRs diff against.
The acceptance bar: the packed + 8-worker fit is at least **5x**
faster end-to-end, and both paths release views over identical
attribute sets with consistent totals (the noise streams legitimately
differ — see the determinism contract in ``docs/PERFORMANCE.md``).
``cpu_count`` is the host's CPU count; ``usable_cpus`` the CPUs this
process may run on, which bounds what the 8 workers can add.

d=64 ships no bundled covering design and greedy construction at that
dimension costs more than the fits being measured, so the benchmark
pins the algebraic t=2 grid/MOLS construction (w=72, instant).
"""

import json
import os
import pathlib
from time import perf_counter

import numpy as np

from repro import obs
from repro.core.priview import PriView
from repro.covering.repository import construct_design
from repro.marginals.dataset import BinaryDataset
from repro.mechanisms.laplace import noisy_marginal

N = 1_000_000
D = 64
EPSILON = 1.0
REPEATS = 3
MIN_SPEEDUP = 5.0


def _dataset() -> BinaryDataset:
    """Correlated N=1M, d=64 dataset, built in row chunks to keep the
    float temporaries small."""
    rng = np.random.default_rng(20140622)
    profiles = rng.random((4, D)) * 0.6
    rows = []
    chunk = 100_000
    for start in range(0, N, chunk):
        stop = min(start + chunk, N)
        types = rng.integers(0, 4, stop - start)
        rows.append(
            (rng.random((stop - start, D)) < profiles[types]).astype(np.uint8)
        )
    return BinaryDataset(np.concatenate(rows), name="bench-fit")


def _seed_path_fit(dataset, design, seed):
    """The fit as the seed code ran it: uint8 extraction, one
    sequential noise stream, then PriView's own post-processing."""
    rng = np.random.default_rng(seed)
    views = [
        noisy_marginal(
            dataset.marginal(block), EPSILON, sensitivity=design.num_blocks, rng=rng
        )
        for block in design.blocks
    ]
    return PriView(EPSILON, design=design, seed=seed).post_process(views)


def _time_runs(run, repeats=REPEATS):
    times, result = [], None
    for seed in range(repeats):
        start = perf_counter()
        result = run(seed)
        times.append(perf_counter() - start)
    return times, result


def test_bench_fit_packed_speedup():
    dataset = _dataset()
    design = construct_design(D, 8, 2)

    # Warm everything amortised across fits out of the measurement:
    # the cached packed form (the packed path pays the one-off pack
    # cost here) and the projection/constraint caches of both paths.
    pack_start = perf_counter()
    dataset.packed()
    pack_seconds = perf_counter() - pack_start
    _seed_path_fit(dataset, design, 0)
    PriView(EPSILON, design=design, seed=0, workers=8).fit(dataset)

    legacy_times, legacy_views = _time_runs(
        lambda seed: _seed_path_fit(dataset, design, seed)
    )
    with obs.session() as sess:
        packed_times, packed_synopsis = _time_runs(
            lambda seed: PriView(EPSILON, design=design, seed=seed, workers=8).fit(
                dataset
            )
        )
        sess.ledger.check()
        snapshot = sess.metrics.snapshot()

    legacy = float(np.median(legacy_times))
    packed = float(np.median(packed_times))
    speedup = legacy / packed

    # Same release surface: identical blocks, near-identical totals
    # (different noise streams over the same exact counts).
    assert [v.attrs for v in packed_synopsis.views] == [
        v.attrs for v in legacy_views
    ]
    total = float(dataset.num_records)
    assert abs(packed_synopsis.total_count() - total) / total < 0.01
    assert snapshot["gauges"]["fit.workers"] == 8
    assert snapshot["counters"]["kernel.packed_marginals"] >= REPEATS * design.num_blocks

    assert speedup >= MIN_SPEEDUP, (
        f"packed fit {packed:.3f}s vs legacy {legacy:.3f}s — "
        f"only {speedup:.2f}x, need {MIN_SPEEDUP}x"
    )

    payload = {
        "benchmark": f"fit_d{D}_n{N}_{design.notation}",
        "n": N,
        "d": D,
        "epsilon": EPSILON,
        "design": design.notation,
        "views": design.num_blocks,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": 8,
        "pack_seconds": pack_seconds,
        "legacy_fit_seconds": legacy_times,
        "packed_fit_seconds": packed_times,
        "legacy_median_s": legacy,
        "packed_median_s": packed,
        "legacy_ms_per_view": 1e3 * legacy / design.num_blocks,
        "packed_ms_per_view": 1e3 * packed / design.num_blocks,
        "speedup_packed_vs_legacy": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fit.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
