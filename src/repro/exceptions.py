"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DimensionError(ReproError):
    """An attribute index or attribute set is incompatible with the data."""


class PrivacyBudgetError(ReproError):
    """A privacy budget was exhausted, negative, or misused."""


class DesignError(ReproError):
    """A covering design is malformed or cannot be constructed."""


class ReconstructionError(ReproError):
    """A marginal reconstruction failed to produce a usable table."""


class DatasetError(ReproError):
    """A dataset file is missing or malformed."""


class SynopsisFormatError(DatasetError):
    """A synopsis file uses an on-disk format this library cannot read.

    Raised in particular for *forward* incompatibility: a file written
    by a newer library version than the one loading it.
    """


class SynopsisIntegrityError(DatasetError):
    """A synopsis artifact failed an integrity check.

    The file exists but its bytes do not decode, or a recorded sha256
    digest does not match the payload — the artifact is corrupt and
    must not be served.
    """


class StoreError(ReproError):
    """A synopsis-store operation failed (unknown entry, bad spec,
    lock timeout, ...)."""


class UnknownEntryError(StoreError):
    """A store spec names a dataset or version that is not published."""


class LedgerError(ReproError):
    """A privacy-budget ledger audit failed or the ledger was misused."""


class SynthesisError(ReproError):
    """Record-level synthesis could not run (no views, bad domain,
    invalid sampling request)."""


class QueryError(ReproError):
    """A served marginal query was malformed or unanswerable."""


class NotFoundError(QueryError):
    """A served request names a route, dataset or version the server
    does not host (HTTP 404)."""


class QueryTimeoutError(QueryError):
    """A served marginal query missed its deadline."""


class RemoteQueryError(QueryError):
    """A query rejected by a remote marginal server.

    Carries the structured error body the server returned so callers
    can branch on the original error type and correlate with server
    logs via the request/trace ids, instead of string-matching a
    flattened message.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int,
        error_type: str | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.request_id = request_id
        self.trace_id = trace_id


class RemoteQueryTimeoutError(RemoteQueryError, QueryTimeoutError):
    """A remote marginal query missed its server-side deadline."""
