"""In-memory span tracer that wraps the program's layer functions.

The benchmark never edits the program: it replaces a function or
method attribute with a wrapper that records a span around each call
(:meth:`Tracer.wrap`), or times each step of a generator the program
consumes (:meth:`Tracer.traced_iter`).  Spans nest per thread; a span
opened on a thread with nothing open (a pool worker) is a *foreign*
child of the span its submitter is blocked in — found through the
request's trace context when the program installs one, else the main
thread's innermost open span.

A layer's self time is its span's duration minus what its children
cover.  Same-thread children are subtracted by duration, foreign
children by the union of their intervals, and the foreign subtrees'
own self times are scaled by ``union / sum`` so that, per root span,
the self times add up to the root's wall time even when pool threads
overlap.  Totals are kept per layer name; raw spans are kept in memory
(bounded) and written out as JSON lines by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter

#: Raw spans kept for the dump; totals keep counting past it.
MAX_RAW_SPANS = 100_000


class _Span:
    __slots__ = (
        "seq", "name", "start", "child", "foreign", "sink", "parent",
        "foreign_root",
    )


def _union(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class Tracer:
    """Per-layer self-time accounting over wrapped calls.

    ``context_key`` (optional) returns a hashable id of the request the
    calling thread works for, or None; spans marked as anchors register
    their thread's stack under that id so pool-thread spans can find
    their blocked parent.
    """

    def __init__(self, context_key=None):
        self._context_key = context_key
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._anchors: dict = {}
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every total and raw span recorded so far."""
        with self._lock:
            self.self_s: dict[str, float] = {}
            self.calls: dict[str, int] = {}
            self.root_s = 0.0
            self.roots = 0
            self.raw: list[tuple] = []
            self._seq = 0

    def summary(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "root_s": self.root_s,
                "roots": self.roots,
                "raw_spans": len(self.raw),
            }

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines, then the summary line."""
        summary = self.summary()
        with self._lock:
            raw = list(self.raw)
        with open(path, "w", encoding="utf-8") as handle:
            for seq, parent, name, thread, start, end in raw:
                handle.write(json.dumps({
                    "span": seq, "parent": parent, "name": name,
                    "thread": thread, "start": start, "end": end,
                }) + "\n")
            handle.write(json.dumps({"summary": summary}) + "\n")

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, anchor: bool) -> _Span:
        stack = self._stack()
        span = _Span()
        span.name = name
        span.child = 0.0
        span.foreign = None
        span.foreign_root = False
        if stack:
            span.parent = stack[-1]
            span.sink = span.parent.sink
        else:
            parent = None
            key = self._context_key() if self._context_key else None
            host = self._anchors.get(key) if key is not None else None
            if host is None and stack is not self._main_stack:
                host = self._main_stack
            if host:
                try:
                    parent = host[-1]
                except IndexError:  # the host thread just closed it
                    parent = None
            span.parent = parent
            span.foreign_root = parent is not None
            span.sink = {}
        with self._lock:
            self._seq += 1
            span.seq = self._seq
        if anchor and self._context_key is not None:
            key = self._context_key()
            if key is not None:
                self._anchors[key] = stack
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: _Span, anchor: bool) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        if anchor and self._context_key is not None:
            self._anchors.pop(self._context_key(), None)
        duration = end - span.start
        self_s = duration - span.child
        if span.foreign:
            intervals = [(s, e) for s, e, _ in span.foreign]
            union = _union(intervals, span.start, end)
            total = sum(e - s for s, e in intervals)
            self_s -= union
            scale = union / total if total > 0 else 0.0
            for _, _, sink in span.foreign:
                for name, value in sink.items():
                    span.sink[name] = span.sink.get(name, 0.0) + value * scale
        sink = span.sink
        sink[span.name] = sink.get(span.name, 0.0) + max(self_s, 0.0)
        parent = span.parent
        if parent is not None and not span.foreign_root:
            parent.child += duration
        elif span.foreign_root:
            if parent.foreign is None:
                parent.foreign = []
            parent.foreign.append((span.start, end, sink))
        with self._lock:
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            if len(self.raw) < MAX_RAW_SPANS:
                self.raw.append((
                    span.seq, parent.seq if parent is not None else None,
                    span.name, threading.get_ident(), span.start, end,
                ))
            if parent is None:
                self.roots += 1
                self.root_s += duration
                for name, value in sink.items():
                    self.self_s[name] = self.self_s.get(name, 0.0) + value

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, anchor: bool = False):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        inner = getattr(owner, attr)
        if getattr(inner, "__perfbench_span__", None):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        tracer = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, anchor)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._close(span, anchor)

        wrapper.__perfbench_span__ = name
        setattr(owner, attr, wrapper)
        return inner

    def wrap_iter(self, owner, attr: str, name: str):
        """Replace a generator function ``owner.attr`` so that every step
        of the iterator it returns is one span named ``name``."""
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            return tracer.traced_iter(inner(*args, **kwargs), name)

        wrapper.__perfbench_span__ = name
        setattr(owner, attr, wrapper)
        return inner

    def traced_iter(self, iterable, name: str):
        """Yield from ``iterable``, timing each ``next`` as one span."""
        iterator = iter(iterable)
        while True:
            span = self._open(name, False)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span, False)
            yield item

    def leaf_iter(self, iterable, name: str):
        """Like :meth:`traced_iter` for per-record leaf steps.

        Records no raw span per step and charges the time straight to
        the enclosing span, which keeps a 600k-step iterator cheap.
        Must be consumed inside an open span on this thread.
        """
        iterator = iter(iterable)
        stack = self._stack()
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    parent = stack[-1]
                    parent.child += elapsed
                    parent.sink[name] = parent.sink.get(name, 0.0) + elapsed
                yield item
        finally:
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
