"""Persisting datasets (compressed .npz).

Binary data is bit-packed; any other code matrix is stored as is.
Every file records the dataset's ``arities`` and, when it has one, its
domain as JSON.  Files without ``arities`` — every file written before
they were stored — load as binary.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.exceptions import DatasetError
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> pathlib.Path:
    """Write a dataset to ``path`` (.npz; binary data bit-packed)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = {
        "num_attributes": dataset.num_attributes,
        "name": np.array(dataset.name),
        "arities": np.array(dataset.arities, dtype=np.int64),
    }
    if dataset.is_binary:
        fields["packed"] = np.packbits(dataset.data, axis=1)
    else:
        fields["codes"] = dataset.data
    if dataset.domain is not None:
        fields["domain"] = np.array(json.dumps(dataset.domain.to_json()))
    np.savez_compressed(path, **fields)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Load a dataset written by :func:`save_dataset`."""
    path = pathlib.Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise DatasetError(f"missing dataset file {path}")
    with np.load(path, allow_pickle=False) as archive:
        d = int(archive["num_attributes"])
        name = str(archive["name"])
        arities = archive["arities"] if "arities" in archive else None
        domain = None
        if "domain" in archive:
            domain = Domain.from_json(json.loads(str(archive["domain"])))
        if "packed" in archive:
            data = np.unpackbits(archive["packed"], axis=1)[:, :d]
        else:
            data = archive["codes"]
    return Dataset(data, arities, name=name, domain=domain)
