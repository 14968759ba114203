"""Process-wide defaults for the fit kernels.

``PriView`` resolves its ``workers`` constructor default here, so
front-ends (the CLI's ``run --workers`` flag, test harnesses) can
switch every fit in the process onto per-view spawned noise streams
and a thread pool without threading parameters through each
experiment driver.
"""

from __future__ import annotations

from repro.exceptions import ReproError

_DEFAULTS: dict = {"workers": None}


def set_fit_defaults(workers: int | None) -> dict:
    """Set the process-wide fit ``workers``; returns the previous defaults.

    ``workers=None`` (the initial default) selects the legacy
    sequential noise stream; any integer switches fits onto
    per-view spawned streams (see ``docs/PERFORMANCE.md``).
    """
    if workers is not None and not isinstance(workers, int):
        raise ReproError(f"workers must be an int or None, got {workers!r}")
    previous = dict(_DEFAULTS)
    _DEFAULTS["workers"] = workers
    return previous


def fit_defaults() -> dict:
    """A copy of the current process-wide fit defaults."""
    return dict(_DEFAULTS)
