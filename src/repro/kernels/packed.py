"""Bit-sliced datasets and popcount marginal kernels.

A :class:`PackedDataset` stores each of the ``d`` binary attribute
columns as a row of ``ceil(N / 64)`` uint64 words — record ``r``'s
value for attribute ``j`` is bit ``r % 64`` of word ``r // 64`` of row
``j`` (little-endian bit order).  This is 8x smaller than the uint8
matrix and lets the marginal kernel touch 64 records per machine word.

The ℓ-way marginal over ``attrs`` has two kernels:

1. **Transpose histogram** (``ℓ <= 8``, the common case — covering
   designs use views of width at most 8).  The packed bytes of the ℓ
   attribute columns are interleaved so that every group of 8 bytes is
   an 8x8 bit matrix (attribute x record) inside one uint64; three
   vectorized mask/shift steps (the classic 8x8 bit-matrix transpose)
   flip every group at once, after which byte ``i`` of each word *is*
   record ``i``'s cell index.  One ``np.bincount`` over the byte view
   finishes the marginal.  Cost is ~25 ufunc passes over ``N`` bytes
   per view — independent of ``2**ℓ`` — which beats both the uint8
   gather+bincount path and any per-subset popcount scheme.
2. **Subset (zeta) counts + Möbius** (``ℓ > 8``, and the public
   :meth:`PackedDataset.subset_counts` API).  For every ``S ⊆ attrs``
   count the records whose attributes in ``S`` are all 1 via a
   level-synchronous walk of the subset lattice — all ``C(ℓ, k)``
   size-``k`` subsets AND-combined from their size-``k-1`` parents in
   one vectorized ``bitwise_and`` per level, one batched row popcount
   (``np.bitwise_count``) each — then recover the ``2**ℓ`` cells by
   the superset-Möbius transform.

Both kernels stream over chunks of words (:data:`DEFAULT_CHUNK_WORDS`)
so their working sets stay cache-resident at any ``N``.

Attributes with more than two values are stored as several bit-planes
of their codes and folded into mixed-radix cells on top of the
transpose histogram (see :class:`PackedDataset`).

The result is **bitwise identical** to
:meth:`repro.marginals.dataset.BinaryDataset.marginal` and
:meth:`repro.categorical.dataset.CategoricalDataset.marginal` (all
count exactly, in int-exact arithmetic) — property-tested in
``tests/kernels/test_packed.py`` and ``tests/kernels/test_packed_cat.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import obs
from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import as_domain
from repro.marginals.projection import strides, table_size
from repro.marginals.table import MarginalTable

#: Words per streaming chunk.  1024 words keeps both kernels' working
#: sets inside L2: the transpose histogram touches ~3 buffers of
#: ``8 * chunk`` bytes (~24 KiB), the zeta walk one 8 KiB mask per
#: subset at the widest lattice level (C(8, 4) = 70 → ~560 KiB).
#: Measured best or tied-best from N=200k to N=1M; larger chunks spill
#: to L3/DRAM and cost 10-50%.
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


@functools.lru_cache(maxsize=128)
def _lattice_levels(arity: int):
    """Combination-lattice wiring for the level-synchronous walk.

    For each level ``k >= 2``: ``(parent_index, new_rank, subset_bits)``
    arrays over the ``C(arity, k)`` size-``k`` subsets, where each
    subset extends parent ``parent_index`` (a row of level ``k-1``) by
    the attribute rank ``new_rank`` (always above the parent's maximum
    rank, so every subset is built exactly once).
    """
    levels = []
    prev = [(1 << j, j) for j in range(arity)]
    for _k in range(2, arity + 1):
        parent_index, new_rank, subset_bits, current = [], [], [], []
        for pi, (pbits, pmax) in enumerate(prev):
            for j in range(pmax + 1, arity):
                parent_index.append(pi)
                new_rank.append(j)
                subset_bits.append(pbits | (1 << j))
                current.append((pbits | (1 << j), j))
        levels.append(
            (
                np.asarray(parent_index),
                np.asarray(new_rank),
                np.asarray(subset_bits),
            )
        )
        prev = current
    return tuple(levels)


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


def moebius_from_subset_counts(zeta: np.ndarray) -> np.ndarray:
    """Contingency cells from subset ("all ones") counts, in place.

    ``zeta[S]`` (subset encoded with attribute rank ``j`` as bit ``j``)
    counts records whose attributes in ``S`` are all 1, others free.
    The inverse superset-Möbius transform turns this into the cell
    counts under the library's cell convention.
    """
    size = zeta.size
    arity = size.bit_length() - 1
    idx = np.arange(size)
    for j in range(arity):
        bit = 1 << j
        lo = idx[(idx & bit) == 0]
        zeta[lo] -= zeta[lo | bit]
    return zeta


def bit_histogram(
    rows: np.ndarray,
    num_records: int,
    chunk_words: int = DEFAULT_CHUNK_WORDS,
) -> np.ndarray:
    """Counts over the ``2**m`` binary codes of ``m`` packed bit rows.

    ``rows`` is an ``(m, ceil(N/64))`` uint64 array (``m <= 8``) whose
    padding bits past ``N`` are zero; code bit ``j`` of record ``r`` is
    bit ``r`` of row ``j``.  This is the transpose-histogram kernel
    behind every packed marginal of at most 8 bit-planes: interleave the
    packed bytes into 8x8 bit matrices, transpose each with
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


def plane_count(arity: int) -> int:
    """Bit-planes needed for codes in ``range(arity)`` (1 for binary)."""
    return max(1, (int(arity) - 1).bit_length())


@functools.lru_cache(maxsize=4096)
def _code_fold(sel_arities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Map binary bit-plane codes onto mixed-radix cells.

    For selected arities ``(b_0, ..., b_{m-1})`` with plane widths
    ``nb_j``, returns ``(valid, cell)``: the binary codes whose every
    digit is in range, and the mixed-radix cell each folds onto.  For
    arity-2 attributes the fold is the identity.
    """
    nbits = [plane_count(b) for b in sel_arities]
    codes = np.arange(1 << sum(nbits), dtype=np.int64)
    cell = np.zeros(codes.size, dtype=np.int64)
    ok = np.ones(codes.size, dtype=bool)
    offset = 0
    for b, nb, stride in zip(sel_arities, nbits, strides(sel_arities)):
        digit = (codes >> offset) & ((1 << nb) - 1)
        ok &= digit < b
        cell += digit * stride
        offset += nb
    valid = np.flatnonzero(ok)
    out_cell = cell[valid]
    valid.setflags(write=False)
    out_cell.setflags(write=False)
    return valid, out_cell


class PackedDataset:
    """A bit-sliced ``N x d`` dataset.

    Drop-in for :class:`~repro.marginals.dataset.BinaryDataset` (and,
    with a ``domain``, for
    :class:`~repro.categorical.dataset.CategoricalDataset`) in every
    marginal-extraction role: exposes ``num_records``,
    ``num_attributes``, ``marginal``, ``marginals`` and
    ``attribute_means`` with identical (bitwise) results, at ~1/8th
    the memory and typically an order of magnitude faster extraction.

    An attribute of arity ``b`` is stored as ``plane_count(b)`` packed
    bit-planes of its code (LSB first), so a binary attribute is one
    row and an all-binary dataset is one row per attribute.  For a
    target whose planes total at most 8 bits, one
    :func:`bit_histogram` pass counts the binary-coded cells and a
    cached fold collapses each code onto its mixed-radix cell (the
    identity for arity-2 attributes); the invalid codes
    (``digit_j >= b_j``) hold zero records by construction.  Wider
    all-binary targets take the zeta/Möbius path; wider targets with
    a non-binary attribute fall back to a chunked unpack +
    ``bincount`` — still streaming, still exact.

    Parameters
    ----------
    words:
        ``(planes, ceil(N/64))`` uint64 array as built by
        :func:`pack_columns` (one row per attribute when binary).
        Padding bits past ``N`` must be zero.
    num_records:
        ``N`` — recoverable neither from ``words``' shape alone nor
        from its content (trailing all-zero records are legal).
    name:
        Human-readable name used in reports.
    chunk_words:
        Streaming chunk width for the marginal kernel (see module
        docstring); mostly a tuning/testing knob.
    domain:
        Optional :class:`~repro.marginals.domain.Domain` (or anything
        :func:`~repro.marginals.domain.as_domain` accepts) giving the
        attribute arities.  ``None`` means every attribute is binary;
        with a domain, marginals carry its arities.
    """

    def __init__(
        self,
        words: np.ndarray,
        num_records: int,
        name: str = "packed",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
        domain=None,
    ):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise DimensionError(f"words must be 2-D, got shape {words.shape}")
        self.domain = None if domain is None else as_domain(domain)
        nbits = (
            [1] * words.shape[0]
            if self.domain is None
            else [plane_count(b) for b in self.domain.arities]
        )
        if words.shape[0] != sum(nbits):
            raise DimensionError(
                f"words shape {words.shape} inconsistent with domain "
                f"{self.domain!r} ({sum(nbits)} bit-planes)"
            )
        if num_records < 0 or words.shape[1] != (num_records + 63) // 64:
            raise DimensionError(
                f"words shape {words.shape} inconsistent with N={num_records}"
            )
        if chunk_words < 1:
            raise DimensionError(f"chunk_words must be >= 1, got {chunk_words}")
        self._words = words
        self._num_records = int(num_records)
        self._nbits = tuple(nbits)
        self._offsets = tuple(int(o) for o in np.cumsum([0] + nbits[:-1]))
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
        domain=None,
    ) -> "PackedDataset":
        """Pack an ``(N, d)`` array of 0/1 values, or of integer codes
        in ``range(arity)`` per attribute when a ``domain`` is given."""
        arr = np.asarray(data, dtype=np.uint8 if domain is None else np.int64)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        if domain is None:
            if arr.size and arr.max() > 1:
                raise DimensionError("data must contain only 0/1 values")
            planes = arr
        else:
            domain = as_domain(domain)
            if arr.shape[1] != domain.num_attributes:
                raise DimensionError(
                    f"data has {arr.shape[1]} columns, domain has "
                    f"{domain.num_attributes} attributes"
                )
            columns = []
            for j, b in enumerate(domain.arities):
                column = arr[:, j]
                if column.size and (column.min() < 0 or column.max() >= b):
                    raise DimensionError(
                        f"column {j} has values outside range({b})"
                    )
                columns.extend((column >> k) & 1 for k in range(plane_count(b)))
            planes = np.zeros((arr.shape[0], 0), dtype=np.uint8)
            if columns:
                planes = np.stack(columns, axis=1).astype(np.uint8)
        with obs.span("kernel.pack"):
            words = pack_columns(planes)
        return cls(
            words, arr.shape[0], name=name, chunk_words=chunk_words, domain=domain
        )

    @classmethod
    def from_dataset(
        cls,
        dataset,
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedDataset":
        """Pack a :class:`BinaryDataset` (values already validated)."""
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
        """The ``(planes, ceil(N/64))`` uint64 words (read-only view)."""
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
        return len(self._nbits)

    @property
    def arities(self) -> tuple[int, ...]:
        """Per-attribute arities (all 2 without a domain)."""
        return (2,) * len(self._nbits) if self.domain is None else self.domain.arities

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
        """The dataset back as an ``(N, d)`` matrix: uint8 bits without
        a domain, int64 codes with one."""
        bits = unpack_columns(self._words, self._num_records)
        if self.domain is None:
            return bits
        out = np.zeros((self._num_records, self.num_attributes), dtype=np.int64)
        for j, (offset, nb) in enumerate(zip(self._offsets, self._nbits)):
            for k in range(nb):
                out[:, j] |= bits[:, offset + k].astype(np.int64) << k
        return out

    def attribute_means(self) -> np.ndarray:
        """Per-attribute fraction of ones (binary datasets); handy for
        sanity checks."""
        if self._num_records == 0:
            return np.zeros(self.num_attributes)
        return popcount_rows(self._words).astype(np.float64) / self._num_records

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def _attr_set(self, attrs) -> AttrSet:
        """``attrs`` validated, carrying the domain's arities if any."""
        attrs = AttrSet(attrs, self.num_attributes)
        if self.domain is None:
            return attrs
        return attrs.with_arities(self.domain.arities[a] for a in attrs)

    def _plane_rows(self, attrs: AttrSet) -> list[int]:
        """Bit-plane row indices (LSB-first, attr-major) for ``attrs``."""
        return [
            self._offsets[a] + k for a in attrs for k in range(self._nbits[a])
        ]

    def subset_counts(self, attrs) -> np.ndarray:
        """Zeta counts: entry ``S`` counts records with ``attrs[S]`` all 1.

        Subsets are encoded with attribute rank ``j`` (within the
        sorted ``attrs``) as bit ``j``.  Entry 0 is ``N``.  Binary
        attributes only.
        """
        attrs = self._attr_set(attrs)
        if not attrs.is_binary:
            raise DimensionError(
                f"subset counts need binary attributes, got {attrs!r}"
            )
        rows = self._plane_rows(attrs)
        arity = len(attrs)
        zeta = np.zeros(1 << arity, dtype=np.uint64)
        if arity == 0:
            zeta[0] = self._num_records
            return zeta.astype(np.float64)
        nwords = self.num_words
        chunk = self.chunk_words
        levels = _lattice_levels(arity)
        singleton_bits = np.asarray([1 << j for j in range(arity)])
        for start in range(0, nwords, chunk):
            stop = min(start + chunk, nwords)
            # Level 1: the attribute columns themselves, as one
            # contiguous (arity, width) block (fancy indexing copies).
            cols = self._words[rows, start:stop]
            zeta[singleton_bits] += popcount_rows(cols)
            masks = cols
            for parent_index, new_rank, subset_bits in levels:
                # All size-k subsets off their size-(k-1) parents in a
                # single vectorized AND; subset bits are unique within
                # a level, so plain fancy-index accumulation is safe.
                masks = np.bitwise_and(masks[parent_index], cols[new_rank])
                zeta[subset_bits] += popcount_rows(masks)
        zeta = zeta.astype(np.float64)
        zeta[0] = self._num_records
        return zeta

    def cell_counts(self, attrs) -> np.ndarray:
        """Exact cell counts of the marginal over ``attrs``."""
        attrs = self._attr_set(attrs)
        rows = self._plane_rows(attrs)
        with obs.span("kernel.marginal"):
            if 0 < len(rows) <= 8:
                counts = bit_histogram(
                    self._words[rows], self._num_records, self.chunk_words
                )
                if not attrs.is_binary:
                    valid, cell = _code_fold(attrs.arities)
                    folded = np.zeros(attrs.size)
                    np.add.at(folded, cell, counts[valid])
                    counts = folded
            elif attrs.is_binary:
                counts = moebius_from_subset_counts(self.subset_counts(attrs))
            else:
                counts = self._wide_counts(rows, attrs.arities)
        obs.incr("kernel.packed_marginals")
        return counts

    def _wide_counts(self, rows, sel_arities) -> np.ndarray:
        """Chunked unpack + bincount for non-binary targets wider than
        8 planes."""
        cell_strides = strides(sel_arities)
        nbits = [plane_count(b) for b in sel_arities]
        counts = np.zeros(table_size(sel_arities), dtype=np.int64)
        plane_rows = self._words[rows]
        for start in range(0, self.num_words, self.chunk_words):
            stop = min(start + self.chunk_words, self.num_words)
            lo, hi = start * 64, min(stop * 64, self._num_records)
            bits = np.unpackbits(
                np.ascontiguousarray(plane_rows[:, start:stop]).view(np.uint8),
                axis=1,
                bitorder="little",
            )[:, : hi - lo].astype(np.int64)
            idx = np.zeros(bits.shape[1], dtype=np.int64)
            row = 0
            for nb, stride in zip(nbits, cell_strides):
                for k in range(nb):
                    idx += (bits[row + k] << k) * stride
                row += nb
            counts += np.bincount(idx, minlength=counts.size)
        return counts.astype(np.float64)

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``.

        Bitwise identical to ``BinaryDataset.marginal`` (or, with a
        domain, ``CategoricalDataset.marginal``) on the same records.
        """
        attrs = self._attr_set(attrs)
        return MarginalTable(attrs, self.cell_counts(attrs))

    def marginals(self, attr_sets) -> list[MarginalTable]:
        """Exact marginals for every attribute set in ``attr_sets``."""
        return [self.marginal(attrs) for attrs in attr_sets]


def as_packed(dataset, chunk_words: int = DEFAULT_CHUNK_WORDS):
    """``dataset`` as a :class:`PackedDataset` (pass-through if already).

    :class:`BinaryDataset` and
    :class:`~repro.categorical.dataset.CategoricalDataset` instances
    cache the packed form on first use (their ``packed`` method), so
    repeated fits don't re-pack.
    """
    if isinstance(dataset, PackedDataset):
        return dataset
    packer = getattr(dataset, "packed", None)
    if packer is not None:
        return packer(chunk_words=chunk_words)
    return PackedDataset.from_array(
        np.asarray(getattr(dataset, "data", dataset)), chunk_words=chunk_words
    )
