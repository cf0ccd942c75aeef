"""Tracing spans: nestable, thread-safe wall-time measurement.

The tracer answers the question every perf PR starts with — *where does
the time go?* — for a pipeline whose cost structure is the paper's whole
argument (profiling latency in Figs 8-11, transition costs in Table V,
the breakdown in Fig 14).  Usage::

    from repro.obs import span

    with span("calibrate.optimize", tables=4) as sp:
        ...
        sp.set(iterations=12)

Spans nest: a span opened while another is active on the same thread
records that span as its parent, so the exporter can rebuild the call
tree (``calibrate`` -> ``calibrate.sample`` -> ...).  Each thread keeps
its own stack; the finished-record list is guarded by a lock, so
concurrent threads can trace freely.

Tracing is **disabled by default**.  When disabled, :func:`span` returns
a shared no-op object — no allocation, no clock reads, no locking — so
instrumented hot paths cost nothing.  Enable it for the whole process
with the ``REPRO_TRACE=1`` environment variable, or for a block with the
:func:`tracing` context manager.

:func:`timed` is the always-on sibling: it measures wall time whether or
not tracing is enabled (two clock reads) and *additionally* records a
span when it is.  The legacy ``last_elapsed_seconds``-style attributes
across :mod:`repro.core` are thin aliases over its ``.seconds``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecord",
    "Timer",
    "Tracer",
    "get_tracer",
    "span",
    "timed",
    "tracing",
    "tracing_enabled",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes:
        name: dotted span name (``"calibrate.sample"``).
        span_id: unique id within the tracer.
        parent_id: enclosing span's id, or None for a root span.
        depth: nesting depth (0 for roots).
        start: ``time.perf_counter()`` at entry.
        end: ``time.perf_counter()`` at exit.
        attributes: caller-supplied key/values (bytes moved, rows, ...).
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    start: float
    end: float
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (one JSONL record)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": self.attributes,
        }


class Span:
    """A live span; use as a context manager.

    Exception-safe: the span is recorded (with an ``error`` attribute)
    even when the body raises, and the exception propagates.
    """

    __slots__ = ("tracer", "name", "attributes", "span_id", "parent_id", "depth", "_start")

    def __init__(self, tracer: Tracer, name: str, attributes: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id = 0
        self.parent_id: int | None = None
        self.depth = 0
        self._start = 0.0

    def set(self, **attrs) -> Span:
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attrs)
        return self

    def __enter__(self) -> Span:
        self.tracer._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if exc is not None:
            self.attributes["error"] = repr(exc)
        self.tracer._pop(self, end)
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> _NoopSpan:
        return self

    def __enter__(self) -> _NoopSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans; one global instance serves the library.

    Args:
        enabled: whether :meth:`span` records anything.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._next_id = 1
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_obj: Span) -> None:
        stack = self._stack()
        with self._lock:
            span_obj.span_id = self._next_id
            self._next_id += 1
        if stack:
            span_obj.parent_id = stack[-1].span_id
            span_obj.depth = len(stack)
        stack.append(span_obj)

    def _pop(self, span_obj: Span, end: float) -> None:
        stack = self._stack()
        # Pop back to (and including) this span even if inner spans were
        # leaked by a non-context-manager misuse.
        while stack:
            top = stack.pop()
            if top is span_obj:
                break
        record = SpanRecord(
            name=span_obj.name,
            span_id=span_obj.span_id,
            parent_id=span_obj.parent_id,
            depth=span_obj.depth,
            start=span_obj._start,
            end=end,
            attributes=span_obj.attributes,
        )
        with self._lock:
            self._records.append(record)

    # -- inspection -----------------------------------------------------

    def records(self) -> list[SpanRecord]:
        """Snapshot of all finished spans (oldest first)."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        """Drop every recorded span (id counter keeps increasing)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


_TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0"))


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


class tracing:
    """Context manager scoping tracing on (or off) — handy in tests."""

    def __init__(self, enabled: bool = True) -> None:
        self._target = enabled
        self._previous = False

    def __enter__(self) -> Tracer:
        self._previous = _TRACER.enabled
        _TRACER.enabled = self._target
        return _TRACER

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TRACER.enabled = self._previous
        return False


def span(name: str, **attributes) -> Span | _NoopSpan:
    """Open a span on the global tracer (no-op while tracing is off)."""
    if not _TRACER.enabled:
        return _NOOP_SPAN
    return Span(_TRACER, name, attributes)


class Timer:
    """Always-on stopwatch that doubles as a span when tracing is on.

    Attributes:
        seconds: wall time of the body; valid after the ``with`` exits.
    """

    __slots__ = ("name", "_attributes", "_span", "_start", "seconds")

    def __init__(self, name: str, **attributes) -> None:
        self.name = name
        self._attributes = attributes
        self._span: Span | _NoopSpan = _NOOP_SPAN
        self._start = 0.0
        self.seconds = 0.0

    def set(self, **attrs) -> Timer:
        """Forward attributes to the underlying span (if recording)."""
        self._span.set(**attrs)
        return self

    def __enter__(self) -> Timer:
        self._span = span(self.name, **self._attributes)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start
        self._span.__exit__(exc_type, exc, tb)
        return False


def timed(name: str, **attributes) -> Timer:
    """Measure wall time unconditionally; record a span when tracing."""
    return Timer(name, **attributes)
