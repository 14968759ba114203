"""The registry manifest: schema and atomic JSON persistence.

One ``manifest.json`` per store root records every published dataset,
its ordered versions, and its pin.  The file is only ever replaced
atomically (see :mod:`repro.store.artifacts`), so readers parse either
the previous or the next complete registry state — never a partial
write — and therefore need no lock.

Schema (``manifest_version`` 1)::

    {"manifest_version": 1,
     "datasets": {
       "<name>": {
         "pinned": null | <int>,
         "versions": [
           {"version": 1, "sha256": "...", "size_bytes": 12345,
            "epsilon": 1.0, "num_attributes": 32, "num_views": 72,
            "design": "C_2(8, 72)", "total_count": 200000.0,
            "created_at": "2026-08-06T12:00:00Z",
            "fit_seconds": 1.25, "extra": {...}}, ...]}}}

``versions`` is append-ordered; ``version`` numbers are assigned by
the registry, strictly increasing, and never reused (pruning old
versions does not renumber the survivors).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.exceptions import StoreError, UnknownEntryError
from repro.store.artifacts import atomic_write_bytes

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class VersionInfo:
    """One published synopsis version and its recorded metadata."""

    name: str
    version: int
    sha256: str
    size_bytes: int
    epsilon: float | None = None
    num_attributes: int | None = None
    num_views: int | None = None
    design: str | None = None
    total_count: float | None = None
    created_at: str | None = None
    fit_seconds: float | None = None
    #: serialized Domain schema (``Domain.to_json()``) when the
    #: synopsis carries one — lets ``store ls``/clients see the
    #: record-level schema without opening the artifact
    domain: dict | None = None
    extra: dict = field(default_factory=dict)

    @property
    def spec(self) -> str:
        """The ``name@version`` string resolving back to this entry."""
        return f"{self.name}@{self.version}"

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "sha256": self.sha256,
            "size_bytes": self.size_bytes,
            "epsilon": self.epsilon,
            "num_attributes": self.num_attributes,
            "num_views": self.num_views,
            "design": self.design,
            "total_count": self.total_count,
            "created_at": self.created_at,
            "fit_seconds": self.fit_seconds,
            "domain": self.domain,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, name: str, blob: dict) -> "VersionInfo":
        try:
            return cls(
                name=name,
                version=int(blob["version"]),
                sha256=str(blob["sha256"]),
                size_bytes=int(blob["size_bytes"]),
                epsilon=blob.get("epsilon"),
                num_attributes=blob.get("num_attributes"),
                num_views=blob.get("num_views"),
                design=blob.get("design"),
                total_count=blob.get("total_count"),
                created_at=blob.get("created_at"),
                fit_seconds=blob.get("fit_seconds"),
                domain=blob.get("domain"),
                extra=dict(blob.get("extra") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"malformed manifest entry for {name!r}: {exc}"
            ) from exc


@dataclass
class DatasetEntry:
    """All versions published under one dataset name."""

    name: str
    versions: list[VersionInfo] = field(default_factory=list)
    pinned: int | None = None

    @property
    def latest(self) -> VersionInfo:
        if not self.versions:
            raise StoreError(f"dataset {self.name!r} has no versions")
        return self.versions[-1]

    @property
    def default(self) -> VersionInfo:
        """What bare ``name`` / ``name@latest`` resolves to: the pinned
        version when a pin is set, the newest otherwise."""
        if self.pinned is not None:
            return self.get(self.pinned)
        return self.latest

    def get(self, version: int) -> VersionInfo:
        for info in self.versions:
            if info.version == version:
                return info
        raise UnknownEntryError(
            f"dataset {self.name!r} has no version {version} "
            f"(available: {[v.version for v in self.versions]})"
        )

    def next_version(self) -> int:
        return self.versions[-1].version + 1 if self.versions else 1

    def to_json(self) -> dict:
        return {
            "pinned": self.pinned,
            "versions": [v.to_json() for v in self.versions],
        }

    @classmethod
    def from_json(cls, name: str, blob: dict) -> "DatasetEntry":
        versions = [
            VersionInfo.from_json(name, v) for v in blob.get("versions", [])
        ]
        pinned = blob.get("pinned")
        return cls(
            name=name,
            versions=versions,
            pinned=int(pinned) if pinned is not None else None,
        )


@dataclass
class Manifest:
    """The full registry state, as parsed from ``manifest.json``."""

    datasets: dict[str, DatasetEntry] = field(default_factory=dict)

    def entry(self, name: str) -> DatasetEntry:
        try:
            return self.datasets[name]
        except KeyError:
            raise UnknownEntryError(
                f"unknown dataset {name!r} "
                f"(published: {sorted(self.datasets) or 'none'})"
            ) from None

    def ensure(self, name: str) -> DatasetEntry:
        entry = self.datasets.get(name)
        if entry is None:
            entry = self.datasets[name] = DatasetEntry(name)
        return entry

    @property
    def num_entries(self) -> int:
        """Total published versions across every dataset."""
        return sum(len(e.versions) for e in self.datasets.values())

    @property
    def total_bytes(self) -> int:
        """Recorded artifact bytes, counting shared objects once."""
        seen: dict[str, int] = {}
        for entry in self.datasets.values():
            for info in entry.versions:
                seen[info.sha256] = info.size_bytes
        return sum(seen.values())

    def referenced_digests(self) -> set[str]:
        return {
            info.sha256
            for entry in self.datasets.values()
            for info in entry.versions
        }

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "datasets": {
                name: entry.to_json()
                for name, entry in sorted(self.datasets.items())
            },
        }

    def dump(self, path: str | os.PathLike) -> None:
        """Atomically replace the manifest file with this state."""
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True)
        atomic_write_bytes(path, payload.encode("utf-8"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Manifest":
        """Parse ``manifest.json``; a missing file is an empty registry."""
        path = pathlib.Path(path)
        try:
            blob = json.loads(path.read_text())
        except FileNotFoundError:
            return cls()
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt manifest {path}: {exc}") from exc
        version = blob.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise StoreError(
                f"manifest {path} has manifest_version {version!r}; this "
                f"library reads version {MANIFEST_VERSION}"
            )
        datasets = {
            name: DatasetEntry.from_json(name, entry)
            for name, entry in blob.get("datasets", {}).items()
        }
        return cls(datasets=datasets)
