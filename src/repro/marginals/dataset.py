"""Datasets: the ``D`` of the problem definition.

A :class:`Dataset` wraps an ``(N, d)`` matrix of integer codes, where
attribute ``j`` takes values in ``range(arities[j])``, and computes
exact marginal tables.  A binary attribute is simply an arity-2
attribute (paper Section 4.7), so binary, categorical and synthetic
records are all one class; ``BinaryDataset`` and
``CategoricalDataset`` are plain aliases of it.  Marginal extraction
is the only primitive that touches raw records; every mechanism in
this library goes through it (or through
:class:`~repro.marginals.contingency.FullContingencyTable` for small
``d``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import Domain
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable


class Dataset:
    """An ``N x d`` dataset; attribute ``j`` takes values in
    ``range(arities[j])``.

    Parameters
    ----------
    data:
        Array-like of shape ``(N, d)`` with integer codes.
    arities:
        Per-attribute arities.  Taken from ``domain`` when one is
        given, otherwise every attribute has arity 2.  They are never
        inferred from the data: the schema must not depend on the
        private records.
    name:
        Optional human-readable name used in experiment reports.
    domain:
        Optional :class:`~repro.marginals.domain.Domain` schema (names,
        kinds, bin edges) for the same attributes; its arities must
        match.  Fitted synopses and record-level synthesis carry it
        forward, and :meth:`marginal` then accepts attribute names.

    Codes are stored in the smallest unsigned type that holds every
    arity, so a uint8 0/1 matrix is kept without a copy.
    """

    def __init__(
        self, data, arities=None, name: str = "dataset", domain: Domain | None = None
    ):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        if arities is None:
            arities = domain.arities if domain is not None else (2,) * arr.shape[1]
        self.arities = tuple(int(b) for b in arities)
        if arr.shape[1] != len(self.arities):
            raise DimensionError(
                f"data has {arr.shape[1]} columns but {len(self.arities)} "
                "arities were given"
            )
        if any(b < 2 for b in self.arities):
            raise DimensionError(f"arities must be >= 2, got {self.arities}")
        if domain is not None and tuple(domain.arities) != self.arities:
            raise DimensionError(
                f"domain arities {tuple(domain.arities)} do not match "
                f"dataset arities {self.arities}"
            )
        if arr.dtype.kind not in "biu":
            arr = arr.astype(np.int64)
        if arr.size:
            if arr.dtype.kind == "i" and arr.min() < 0:
                raise DimensionError("data must not contain negative codes")
            # One whole-matrix max settles the common case; the
            # per-column check runs only when some code could be out
            # of its attribute's range.
            if arr.max() >= min(self.arities):
                bad = np.flatnonzero(arr.max(axis=0) >= np.array(self.arities))
                if bad.size:
                    raise DimensionError(
                        f"columns {bad.tolist()} have codes outside their "
                        f"arities {[self.arities[j] for j in bad]}"
                    )
        self._data = arr.astype(
            np.min_scalar_type(max(self.arities, default=2) - 1), copy=False
        )
        self.is_binary = all(b == 2 for b in self.arities)
        self.name = name
        self.domain = domain
        self._packed = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_transactions(
        cls, transactions, num_attributes: int, name: str = "dataset"
    ) -> "Dataset":
        """Build a binary dataset from an iterable of item-id collections.

        Item ids outside ``range(num_attributes)`` are ignored, which is
        how the paper's preprocessing keeps only the top pages /
        categories.
        """
        lengths = []
        flat: list[int] = []
        for txn in transactions:
            items = list(txn)
            lengths.append(len(items))
            flat.extend(items)
        data = np.zeros((len(lengths), num_attributes), dtype=np.int64)
        if flat:
            items_arr = np.asarray(flat, dtype=np.int64)
            rows = np.repeat(np.arange(len(lengths)), lengths)
            keep = (items_arr >= 0) & (items_arr < num_attributes)
            # Scatter-add, then clamp: an item repeated inside one
            # transaction still yields a single 1 in that row.
            np.add.at(data, (rows[keep], items_arr[keep]), 1)
            np.minimum(data, 1, out=data)
        return cls(data.astype(np.uint8), name=name)

    @classmethod
    def from_columns(cls, columns, domain, name: str = "dataset") -> "Dataset":
        """Encode raw attribute values through a Domain's binning.

        ``columns`` is a name-keyed mapping or a positional sequence of
        per-attribute value arrays; each is encoded into codes with
        :meth:`repro.marginals.domain.Attribute.encode` (numeric
        attributes are binned, labelled attributes looked up).
        """
        return cls(domain.encode_records(columns), name=name, domain=domain)

    @classmethod
    def random(
        cls,
        num_records: int,
        attributes,
        density: float = 0.5,
        rng: np.random.Generator | None = None,
        name: str = "random",
    ) -> "Dataset":
        """IID random data, mainly for tests.

        An int ``attributes`` gives that many Bernoulli(``density``)
        binary attributes.  A sequence of arities, or a
        :class:`~repro.marginals.domain.Domain` (then attached), gives
        uniform codes per attribute.
        """
        rng = rng or np.random.default_rng()
        if isinstance(attributes, (int, np.integer)):
            data = (rng.random((num_records, attributes)) < density).astype(np.uint8)
            return cls(data, name=name)
        domain = attributes if isinstance(attributes, Domain) else None
        arities = tuple(int(b) for b in (domain.arities if domain else attributes))
        columns = [rng.integers(0, b, size=num_records) for b in arities]
        return cls(np.stack(columns, axis=1), arities, name=name, domain=domain)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying ``(N, d)`` code matrix (read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        """``N``, the number of tuples."""
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        """``d``, the number of attributes."""
        return self._data.shape[1]

    def __len__(self) -> int:
        return self.num_records

    def __repr__(self) -> str:
        arities = "" if self.is_binary else f", arities={self.arities}"
        return (
            f"{type(self).__name__}(name={self.name!r}, N={self.num_records}, "
            f"d={self.num_attributes}{arities})"
        )

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def _attr_set(self, attrs) -> AttrSet:
        """Canonical ``attrs``; names resolve through the domain, and
        non-binary attributes carry their arities."""
        if self.domain is not None:
            attrs = [self.domain.index(a) if isinstance(a, str) else a for a in attrs]
        attrs = AttrSet(attrs, self.num_attributes)
        if self.is_binary:
            return attrs
        return attrs.with_arities(self.arities[a] for a in attrs)

    def cell_index(self, attrs) -> np.ndarray:
        """Per-record mixed-radix cell index within the marginal over
        ``attrs`` (bit ``j`` is attribute ``attrs[j]`` when binary)."""
        attrs = self._attr_set(attrs)
        weights = np.array(strides(attrs.arities or (2,) * len(attrs)), np.int64)
        return self._data[:, list(attrs)].astype(np.int64) @ weights

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``."""
        attrs = self._attr_set(attrs)
        counts = np.bincount(self.cell_index(attrs), minlength=attrs.size)
        return MarginalTable(attrs, counts.astype(np.float64))

    def marginals(self, attr_sets) -> list[MarginalTable]:
        """Exact marginals for every attribute set in ``attr_sets``."""
        return [self.marginal(attrs) for attrs in attr_sets]

    def attribute_means(self) -> np.ndarray:
        """Per-attribute mean code (the fraction of ones when binary)."""
        if self.num_records == 0:
            return np.zeros(self.num_attributes)
        return self._data.mean(axis=0)

    # ------------------------------------------------------------------
    # Bit-sliced acceleration
    # ------------------------------------------------------------------
    def packed(self, chunk_words: int | None = None):
        """This binary dataset as a :class:`repro.kernels.PackedDataset`.

        The packed form is built once and cached (the raw matrix is
        immutable from the outside), so repeated fits don't re-pack —
        every fit reads binary data through it
        (:func:`repro.kernels.as_packed`).  Its ``marginal`` is bitwise
        identical to :meth:`marginal`, typically ~10x faster.
        """
        from repro.kernels.packed import PackedDataset

        if not self.is_binary:
            raise DimensionError(
                f"only binary data packs; arities are {self.arities}"
            )
        if self._packed is None:
            self._packed = PackedDataset.from_dataset(self)
        if chunk_words is not None and chunk_words != self._packed.chunk_words:
            self._packed = PackedDataset(
                self._packed.words,
                self.num_records,
                name=self.name,
                chunk_words=chunk_words,
            )
        return self._packed


def require_binary(dataset, purpose: str) -> None:
    """Raise :class:`DimensionError` naming every attribute of
    ``dataset`` whose arity is not 2, for a binary-only ``purpose``."""
    bad = [j for j, b in enumerate(dataset.arities) if b != 2]
    if bad:
        raise DimensionError(
            f"{purpose} needs binary attributes; attributes {bad} have "
            f"arities {[dataset.arities[j] for j in bad]}"
        )


#: Names kept for the many callers that spell out the attribute kind.
BinaryDataset = Dataset
CategoricalDataset = Dataset
