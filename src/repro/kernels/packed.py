"""Bit-sliced binary datasets and their marginal kernels.

A :class:`PackedDataset` stores each of the ``d`` binary attribute
columns as a row of ``ceil(N / 64)`` uint64 words — record ``r``'s
value for attribute ``j`` is bit ``r % 64`` of word ``r // 64`` of row
``j`` (little-endian bit order).  This is 8x smaller than the uint8
matrix and lets the marginal kernel touch 64 records per machine word.

The ℓ-way marginal over ``attrs`` has two kernels, picked by width:

1. **Transpose histogram** (``1 <= ℓ <= 8``, the common case —
   covering designs use views of width at most 8).  The packed bytes
   of the ℓ attribute columns are interleaved so that every group of 8
   bytes is an 8x8 bit matrix (attribute x record) inside one uint64;
   three vectorized mask/shift steps (the classic 8x8 bit-matrix
   transpose) flip every group at once, after which byte ``i`` of each
   word *is* record ``i``'s cell index.  One ``np.bincount`` over the
   byte view finishes the marginal.  Cost is ~25 ufunc passes over
   ``N`` bytes per view — independent of ``2**ℓ``.
2. **Unpack + bincount** (every other width, including the 0-way
   total).  Each chunk of words is unpacked back to one byte per
   record and attribute, the cell index is built by shifting bit ``j``
   into place, and one ``np.bincount`` counts it.  Cost grows linearly
   in ℓ, not in ``2**ℓ``.

Both kernels stream over chunks of words (:data:`DEFAULT_CHUNK_WORDS`)
so their working sets stay cache-resident at any ``N``.

Only binary data is packed: a :class:`~repro.marginals.dataset.Dataset`
whose arities are all 2.  Any other dataset keeps its own ``bincount``
extractor, which beats bit-plane packing for multi-valued codes
(:func:`as_packed` passes it through).

The result is **bitwise identical** to
:meth:`repro.marginals.dataset.Dataset.marginal` (both count
exactly, in int-exact arithmetic) — property-tested in
``tests/kernels/test_packed.py``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable

#: Words per streaming chunk.  1024 words keeps the transpose
#: histogram's working set (~3 buffers of ``8 * chunk`` bytes, ~24 KiB)
#: and the unpack kernel's (one byte per record and attribute, ~1 MiB
#: at ℓ = 16) inside L2.  Measured best or tied-best from N=200k to
#: N=1M; larger chunks spill to L3/DRAM and cost 10-50%.
DEFAULT_CHUNK_WORDS = 1024

#: 8x8 bit-matrix transpose as three vectorized mask/shift steps
#: (Hacker's Delight §7-3): each ``(keep, move, shift)`` swaps the
#: off-diagonal blocks at one granularity, so bit ``8a + b`` of every
#: uint64 ends up at position ``8b + a``.
_TRANSPOSE_STEPS = (
    (np.uint64(0xAA55AA55AA55AA55), np.uint64(0x00AA00AA00AA00AA), np.uint64(7)),
    (np.uint64(0xCCCC3333CCCC3333), np.uint64(0x0000CCCC0000CCCC), np.uint64(14)),
    (np.uint64(0xF0F0F0F00F0F0F0F), np.uint64(0x00000000F0F0F0F0), np.uint64(28)),
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

if not _HAS_BITWISE_COUNT:  # pragma: no cover - exercised via monkeypatch
    _POPCOUNT_LUT = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint64
    )


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across a uint64 array.

    Uses ``np.bitwise_count`` (numpy >= 2.0) when available, falling
    back to an 8-bit lookup table over the byte view otherwise — same
    result, roughly 3x slower, no extra dependency.
    """
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum(dtype=np.uint64))
    return int(_POPCOUNT_LUT[words.view(np.uint8)].sum(dtype=np.uint64))


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a contiguous 2-D uint64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.uint64)
    return (
        _POPCOUNT_LUT[words.view(np.uint8)]
        .reshape(words.shape[0], -1)
        .sum(axis=1, dtype=np.uint64)
    )


def pack_columns(data: np.ndarray) -> np.ndarray:
    """Pack an ``(N, d)`` 0/1 matrix into ``(d, ceil(N/64))`` words.

    Bit ``r % 64`` (little-endian) of word ``r // 64`` of row ``j``
    holds record ``r``'s value for attribute ``j``; the final word is
    zero-padded past ``N``.
    """
    arr = np.asarray(data, dtype=np.uint8)
    if arr.ndim != 2:
        raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    nwords = (n + 63) // 64
    bits = np.packbits(np.ascontiguousarray(arr.T), axis=1, bitorder="little")
    nbytes = nwords * 8
    if bits.shape[1] < nbytes:
        bits = np.concatenate(
            [bits, np.zeros((d, nbytes - bits.shape[1]), np.uint8)], axis=1
        )
    return np.ascontiguousarray(bits).view(np.uint64)


def unpack_columns(words: np.ndarray, num_records: int) -> np.ndarray:
    """Inverse of :func:`pack_columns`: back to an ``(N, d)`` matrix."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(bits[:, :num_records].T)


def bit_histogram(
    rows: np.ndarray,
    num_records: int,
    chunk_words: int = DEFAULT_CHUNK_WORDS,
) -> np.ndarray:
    """Counts over the ``2**m`` binary codes of ``m`` packed bit rows.

    ``rows`` is an ``(m, ceil(N/64))`` uint64 array (``m <= 8``) whose
    padding bits past ``N`` are zero; code bit ``j`` of record ``r`` is
    bit ``r`` of row ``j``.  This is the transpose-histogram kernel
    behind every packed marginal of at most 8 attributes: interleave
    the packed bytes into 8x8 bit matrices, transpose each with
    :data:`_TRANSPOSE_STEPS`, and bincount the resulting per-record
    code bytes.  Padding records land on code 0 and are subtracted.
    """
    m = rows.shape[0]
    if not 0 < m <= 8:
        raise DimensionError(f"bit_histogram needs 1..8 rows, got {m}")
    counts = np.zeros(1 << m, dtype=np.int64)
    nwords = rows.shape[1]
    for start in range(0, nwords, chunk_words):
        stop = min(start + chunk_words, nwords)
        cols = np.ascontiguousarray(rows[:, start:stop]).view(np.uint8)
        interleaved = np.zeros((cols.shape[1], 8), dtype=np.uint8)
        interleaved[:, :m] = cols.T
        w = interleaved.view(np.uint64).ravel()
        for keep, move, shift in _TRANSPOSE_STEPS:
            w = (w & keep) | ((w & move) << shift) | ((w >> shift) & move)
        counts += np.bincount(w.view(np.uint8), minlength=counts.size)
    counts[0] -= nwords * 64 - num_records
    return counts.astype(np.float64)


def unpacked_histogram(
    rows: np.ndarray,
    num_records: int,
    chunk_words: int = DEFAULT_CHUNK_WORDS,
) -> np.ndarray:
    """:func:`bit_histogram` for any number of rows, by unpacking.

    Each chunk of words is unpacked to one byte per record and row,
    trimmed to the real records (so no padding correction), and the
    per-record code ``sum_j bit_j << j`` is bincounted.  With no rows
    every record has code 0, so the result is ``[N]``.
    """
    m = rows.shape[0]
    counts = np.zeros(1 << m, dtype=np.int64)
    nwords = rows.shape[1]
    for start in range(0, nwords, chunk_words):
        stop = min(start + chunk_words, nwords)
        width = min(stop * 64, num_records) - start * 64
        bits = np.unpackbits(
            np.ascontiguousarray(rows[:, start:stop]).view(np.uint8),
            axis=1,
            bitorder="little",
        )[:, :width]
        code = np.zeros(width, dtype=np.intp)
        for j in range(m):
            code |= bits[j].astype(np.intp) << j
        counts += np.bincount(code, minlength=counts.size)
    return counts.astype(np.float64)


class PackedDataset:
    """A bit-sliced ``N x d`` binary dataset.

    Drop-in for a binary :class:`~repro.marginals.dataset.Dataset` in
    every marginal-extraction role: exposes ``num_records``,
    ``num_attributes``, ``arities``, ``marginal``, ``marginals`` and
    ``attribute_means`` with identical (bitwise) results, at ~1/8th
    the memory and typically an order of magnitude faster extraction.
    Each attribute is one packed bit-plane; a marginal over at most 8
    attributes takes :func:`bit_histogram`, any other width
    :func:`unpacked_histogram` (see the module docstring).

    Parameters
    ----------
    words:
        ``(d, ceil(N/64))`` uint64 array as built by
        :func:`pack_columns`.  Padding bits past ``N`` must be zero.
    num_records:
        ``N`` — recoverable neither from ``words``' shape alone nor
        from its content (trailing all-zero records are legal).
    name:
        Human-readable name used in reports.
    chunk_words:
        Streaming chunk width for the marginal kernels (see module
        docstring); mostly a tuning/testing knob.
    """

    def __init__(
        self,
        words: np.ndarray,
        num_records: int,
        name: str = "packed",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise DimensionError(f"words must be 2-D, got shape {words.shape}")
        if num_records < 0 or words.shape[1] != (num_records + 63) // 64:
            raise DimensionError(
                f"words shape {words.shape} inconsistent with N={num_records}"
            )
        if chunk_words < 1:
            raise DimensionError(f"chunk_words must be >= 1, got {chunk_words}")
        self._words = words
        self._num_records = int(num_records)
        self.name = name
        self.chunk_words = int(chunk_words)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(
        cls,
        data,
        name: str = "packed",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedDataset":
        """Pack an ``(N, d)`` array of 0/1 values."""
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise DimensionError("data must contain only 0/1 values")
        with obs.span("kernel.pack"):
            words = pack_columns(arr)
        return cls(words, arr.shape[0], name=name, chunk_words=chunk_words)

    @classmethod
    def from_dataset(
        cls,
        dataset,
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedDataset":
        """Pack a binary :class:`~repro.marginals.dataset.Dataset`
        (values already validated)."""
        with obs.span("kernel.pack"):
            words = pack_columns(dataset.data)
        return cls(
            words,
            dataset.num_records,
            name=dataset.name,
            chunk_words=chunk_words,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        """The ``(d, ceil(N/64))`` uint64 words (read-only view)."""
        view = self._words.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        """``N``, the number of tuples."""
        return self._num_records

    @property
    def num_attributes(self) -> int:
        """``d``, the number of attributes."""
        return self._words.shape[0]

    @property
    def arities(self) -> tuple[int, ...]:
        """Every attribute is binary: ``(2,) * d``."""
        return (2,) * self.num_attributes

    @property
    def num_words(self) -> int:
        """Words per column, ``ceil(N / 64)``."""
        return self._words.shape[1]

    def __len__(self) -> int:
        return self._num_records

    def __repr__(self) -> str:
        return (
            f"PackedDataset(name={self.name!r}, N={self.num_records}, "
            f"d={self.num_attributes})"
        )

    def unpacked(self) -> np.ndarray:
        """The dataset back as an ``(N, d)`` uint8 matrix."""
        return unpack_columns(self._words, self._num_records)

    def attribute_means(self) -> np.ndarray:
        """Per-attribute fraction of ones; handy for sanity checks."""
        if self._num_records == 0:
            return np.zeros(self.num_attributes)
        return popcount_rows(self._words).astype(np.float64) / self._num_records

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def cell_counts(self, attrs) -> np.ndarray:
        """Exact cell counts of the marginal over ``attrs``.

        Counted in ``kernel.packed_marginals`` but not wrapped in a
        span: at a few milliseconds per view a span would cost ~1% of
        an instrumented fit, and the fit's ``noisy_views`` span
        already times the extraction.
        """
        attrs = AttrSet(attrs, self.num_attributes)
        rows = self._words[list(attrs)]
        if 0 < len(attrs) <= 8:
            counts = bit_histogram(rows, self._num_records, self.chunk_words)
        else:
            counts = unpacked_histogram(rows, self._num_records, self.chunk_words)
        obs.incr("kernel.packed_marginals")
        return counts

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``.

        Bitwise identical to ``Dataset.marginal`` on the same binary
        records.
        """
        attrs = AttrSet(attrs, self.num_attributes)
        return MarginalTable(attrs, self.cell_counts(attrs))

    def marginals(self, attr_sets) -> list[MarginalTable]:
        """Exact marginals for every attribute set in ``attr_sets``."""
        return [self.marginal(attrs) for attrs in attr_sets]


def as_packed(dataset, chunk_words: int = DEFAULT_CHUNK_WORDS):
    """The marginal source a fit reads ``dataset`` through.

    This is the one place the extractor is chosen, from the data:

    * a :class:`PackedDataset` passes through;
    * a :class:`~repro.marginals.dataset.Dataset` whose arities are all
      2 returns its packed form, built once and cached by its
      ``packed`` method;
    * any other ``Dataset`` passes through unchanged and counts with
      its own ``bincount``;
    * a raw 0/1 array is packed.
    """
    if isinstance(dataset, PackedDataset):
        return dataset
    if isinstance(dataset, Dataset):
        return dataset.packed(chunk_words) if dataset.is_binary else dataset
    return PackedDataset.from_array(np.asarray(dataset), chunk_words=chunk_words)
