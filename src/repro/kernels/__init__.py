"""``repro.kernels`` — the fit hot path, made fast.

Three ingredients (see ``docs/PERFORMANCE.md`` for the full story):

* :class:`PackedDataset` — bit-sliced binary dataset (one uint64 word
  per 64 records per attribute) whose marginal kernels are bitwise
  identical to ``Dataset.marginal`` and roughly an order of
  magnitude faster, streaming over chunks of records.
  :func:`as_packed` picks a fit's marginal extractor from its data:
  a dataset whose arities are all 2 is packed, any other keeps its
  own ``bincount``.
* :func:`generate_noisy_views` — fans the per-view work of
  ``PriView.fit`` out over a thread pool with per-view
  ``SeedSequence.spawn`` child streams, so the synopsis is
  bit-identical for any worker count.
* :mod:`repro.kernels.indexcache` — introspection over the shared
  subset→index-map caches every projection, consistency pass and
  constraint builder draws from.

Front-ends set the process-wide fit ``workers`` through
:func:`set_fit_defaults` (the CLI's ``run --workers``).
"""

from repro.kernels.config import fit_defaults, set_fit_defaults
from repro.kernels.executor import resolve_workers, spawn_seed_sequences
from repro.kernels.fit import generate_noisy_views
from repro.kernels.packed import (
    DEFAULT_CHUNK_WORDS,
    PackedDataset,
    as_packed,
    bit_histogram,
    pack_columns,
    popcount_words,
    unpack_columns,
    unpacked_histogram,
)
from repro.kernels import indexcache

__all__ = [
    "DEFAULT_CHUNK_WORDS",
    "PackedDataset",
    "as_packed",
    "bit_histogram",
    "fit_defaults",
    "generate_noisy_views",
    "indexcache",
    "pack_columns",
    "popcount_words",
    "resolve_workers",
    "set_fit_defaults",
    "spawn_seed_sequences",
    "unpack_columns",
    "unpacked_histogram",
]
