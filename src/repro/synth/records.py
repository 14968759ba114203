"""The synthetic record population and what analysts do with it.

:class:`SyntheticRecords` is a :class:`~repro.marginals.dataset.Dataset`
— in PrivSyn's sense a synthetic population is just another dataset —
whose :class:`~repro.marginals.domain.Domain` gives the codes meaning.
It answers the record-level questions a marginal synopsis cannot:
arbitrary filters, per-record export to CSV/JSON-lines, joins into
downstream tooling — all pure post-processing over an already
published artifact.
"""

from __future__ import annotations

import csv
import json
import os
import pathlib

import numpy as np

from repro.exceptions import SynthesisError
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain


class SyntheticRecords(Dataset):
    """A synthesised population over a mixed-type domain.

    ``meta`` carries the synthesiser's telemetry (accepted-error
    history, round and move counters).
    """

    def __init__(self, data, domain: Domain, meta: dict | None = None):
        super().__init__(data, name="synthetic", domain=domain)
        self.meta = {} if meta is None else meta

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def count(self, **conditions) -> int:
        """Records matching every ``name=value`` condition.

        Values may be integer codes, attribute labels, or — for
        numeric attributes — raw values (binned through the domain).
        """
        mask = np.ones(self.num_records, dtype=bool)
        for name, value in conditions.items():
            j = self.domain.index(name)
            code = int(self.domain[j].encode(np.asarray([value]))[0])
            mask &= self.data[:, j] == code
        return int(mask.sum())

    def fraction(self, **conditions) -> float:
        """``count(...) / N`` (0.0 on an empty population)."""
        if self.num_records == 0:
            return 0.0
        return self.count(**conditions) / self.num_records

    # ------------------------------------------------------------------
    # Sampling / decoding
    # ------------------------------------------------------------------
    def sample(self, k: int, seed=None) -> np.ndarray:
        """``k`` record rows drawn with replacement (codes, ``(k, d)``)."""
        if k < 0:
            raise SynthesisError(f"sample size must be >= 0, got {k}")
        if self.num_records == 0:
            raise SynthesisError("cannot sample from an empty population")
        rng = np.random.default_rng(seed)
        return self.data[rng.integers(0, self.num_records, size=int(k))]

    def decode(self) -> dict[str, np.ndarray]:
        """Per-attribute decoded columns (labels / bin midpoints)."""
        return self.domain.decode_records(self.data)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _rows(self, decode: bool):
        """Record rows as lists of plain values, in domain order."""
        if decode:
            columns = self.decode()
            return zip(*(columns[n].tolist() for n in self.domain.names))
        return self.data.tolist()

    def to_csv(self, path: str | os.PathLike, decode: bool = True) -> pathlib.Path:
        """Write the population as CSV (decoded values by default)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.domain.names)
            writer.writerows(self._rows(decode))
        return path

    def to_jsonl(self, path: str | os.PathLike, decode: bool = True) -> pathlib.Path:
        """Write the population as JSON-lines, one object per record."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.domain.names
        with open(path, "w") as handle:
            for row in self._rows(decode):
                handle.write(json.dumps(dict(zip(names, row))) + "\n")
        return path
