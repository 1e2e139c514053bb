"""Hierarchical tracing spans for the generation/validation pipeline.

A :class:`Span` records one timed region of pipeline work -- wall time,
outcome (ok/error) and free-form key/value attributes -- and nests under
whatever span was active when it started, so one generation run yields a
tree mirroring the library dependency graph the generator walked.  Spans
are collected by a thread-safe :class:`Tracer` with pluggable sinks:

* :class:`RingBufferSink` -- bounded in-memory store of finished root
  spans, renderable as an indented tree,
* :class:`LogfmtSink` -- one logfmt line per finished span on a stream
  (stderr by default),
* :class:`JsonLinesSink` -- one JSON object per finished span appended to
  a file or stream.

The module-level :func:`span` helper reads the process-global tracer and
costs a single attribute check when tracing is disabled, keeping the
instrumented hot paths effectively free by default.
"""

from __future__ import annotations

import contextvars
import json
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, TextIO

from repro.obs.propagation import new_span_id

#: Outcome values a span can end with.
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass
class Span:
    """One timed, attributed region of work, nested under a parent span.

    ``span_id`` is a random W3C Trace Context span id (16 lowercase hex
    chars) -- span *names* repeat freely (every library build is an
    ``xsdgen.library`` span), so sinks that flatten the tree emit
    ``id``/``parent_id`` (:meth:`to_record`) to keep the tree losslessly
    reconstructable.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    started_at: float = 0.0
    ended_at: float | None = None
    status: str = STATUS_OK
    error: str | None = None
    children: list["Span"] = field(default_factory=list)
    parent: "Span | None" = field(default=None, repr=False, compare=False)
    span_id: str = field(default_factory=new_span_id, compare=False)
    #: CPU nanoseconds (``time.thread_time_ns`` delta) the opening thread
    #: spent inside the span.  Valid because a span context manager enters
    #: and exits on one thread; ``None`` while the span is still open.
    cpu_ns: int | None = field(default=None, compare=False)

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds (0.0 while the span is still open)."""
        if self.ended_at is None:
            return 0.0
        return (self.ended_at - self.started_at) * 1000.0

    @property
    def cpu_ms(self) -> float:
        """Thread CPU time in milliseconds (0.0 while the span is open).

        Wall time counts scheduler waits and blocking I/O; CPU time only
        counts cycles this thread actually burned, so ``duration_ms -
        cpu_ms`` exposes time spent waiting (lock contention, disk, the
        GIL) — the quantity profiles need to tell "slow code" from
        "starved code".
        """
        if self.cpu_ns is None:
            return 0.0
        return self.cpu_ns / 1e6

    @property
    def finished(self) -> bool:
        """True once the span has ended."""
        return self.ended_at is not None

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) key/value attributes; returns self."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Yield ``(span, depth)`` pairs, pre-order, starting at self."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span_, depth = stack.pop()
            yield span_, depth
            for child in reversed(span_.children):
                stack.append((child, depth + 1))

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (self included) with the given name."""
        return [s for s, _ in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (children inlined, parent omitted)."""
        data = self._fields()
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def to_record(self) -> dict[str, Any]:
        """The one-span-per-line JSONL record: :meth:`to_dict` without
        ``children``, plus ``id``, ``parent_id`` and the ``parent`` name."""
        record = self._fields()
        parent = self.parent
        record["id"] = self.span_id
        record["parent_id"] = parent.span_id if parent is not None else None
        # The parent *name* stays for human grepping; names are ambiguous
        # (many spans share one), so tree reconstruction uses the ids.
        record["parent"] = parent.name if parent is not None else None
        return record

    def _fields(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
            "cpu_ms": round(self.cpu_ms, 3),
            "status": self.status,
        }
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.error is not None:
            data["error"] = self.error
        return data


class _NoopSpan:
    """Stand-in yielded while tracing is disabled; absorbs attribute writes."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


class _NoopSpanContext:
    """Reusable, re-entrant context manager yielding the no-op span."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopSpanContext()


class SpanSink:
    """Base class for span/log consumers attached to a :class:`Tracer`."""

    def on_span_end(self, span: Span) -> None:
        """Called once per span, when it finishes (children before parents)."""

    def on_log(self, logger_name: str, level: str, message: str) -> None:
        """Called for log records routed through the obs logging bridge."""

    def on_provenance(self, record: dict[str, Any]) -> None:
        """Called per provenance record by ``ProvenanceIndex.export``."""


class RingBufferSink(SpanSink):
    """Keeps the last ``capacity`` finished *root* spans in memory.

    Children stay reachable through their root, so the buffer holds whole
    trees; :meth:`render_tree` formats them for human consumption.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self.roots: deque[Span] = deque(maxlen=capacity)

    def on_span_end(self, span: Span) -> None:
        if span.parent is None:
            self.roots.append(span)

    def spans(self) -> list[Span]:
        """Every buffered span, roots first within each tree."""
        collected: list[Span] = []
        for root in self.roots:
            collected.extend(s for s, _ in root.walk())
        return collected

    def render_tree(self) -> str:
        """The buffered span trees as indented text, one line per span."""
        lines: list[str] = []
        for root in self.roots:
            for span_, depth in root.walk():
                lines.append("  " * depth + _span_summary(span_))
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop all buffered spans."""
        self.roots.clear()


def _span_summary(span: Span) -> str:
    parts = [span.name, f"{span.duration_ms:.2f}ms", span.status]
    parts.extend(f"{key}={value}" for key, value in span.attributes.items())
    if span.error:
        parts.append(f"error={span.error!r}")
    return " ".join(parts)


def _logfmt_value(value: Any) -> str:
    text = str(value)
    if " " in text or '"' in text or "=" in text or not text:
        return json.dumps(text)
    return text


def _logfmt_line(pairs: list[tuple[str, Any]]) -> str:
    return " ".join(f"{key}={_logfmt_value(value)}" for key, value in pairs)


class LogfmtSink(SpanSink):
    """Writes one logfmt line per finished span (and per log record)."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self._stream = stream

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def on_span_end(self, span: Span) -> None:
        pairs: list[tuple[str, Any]] = [
            ("span", span.name),
            ("dur_ms", f"{span.duration_ms:.3f}"),
            ("cpu_ms", f"{span.cpu_ms:.3f}"),
            ("status", span.status),
        ]
        pairs.extend(span.attributes.items())
        if span.error:
            pairs.append(("error", span.error))
        self.stream.write(_logfmt_line(pairs) + "\n")

    def on_log(self, logger_name: str, level: str, message: str) -> None:
        pairs = [("log", logger_name), ("level", level), ("msg", message)]
        self.stream.write(_logfmt_line(pairs) + "\n")

    def on_provenance(self, record: dict[str, Any]) -> None:
        pairs = [("provenance", record.get("target_path", ""))]
        pairs.extend((key, value) for key, value in sorted(record.items()) if key != "target_path")
        self.stream.write(_logfmt_line(pairs) + "\n")


class JsonLinesSink(SpanSink):
    """Appends one JSON object per finished span to a file or stream."""

    def __init__(self, target: str | Path | TextIO) -> None:
        if isinstance(target, (str, Path)):
            self.path: Path | None = Path(target)
            self._stream: TextIO | None = None
        else:
            self.path = None
            self._stream = target
        self._lock = threading.Lock()

    def _write(self, payload: dict[str, Any]) -> None:
        line = json.dumps(payload, sort_keys=True)
        with self._lock:
            if self._stream is not None:
                self._stream.write(line + "\n")
            else:
                assert self.path is not None
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(line + "\n")

    def on_span_end(self, span: Span) -> None:
        self._write(span.to_record())

    def on_provenance(self, record: dict[str, Any]) -> None:
        """Append one provenance record (see ``ProvenanceIndex.export``)."""
        self._write({"provenance": record})

    def on_log(self, logger_name: str, level: str, message: str) -> None:
        self._write({"log": logger_name, "level": level, "msg": message})


class Tracer:
    """Thread-safe span collector with pluggable sinks.

    The active span is tracked per-context via :mod:`contextvars`, so
    nesting is correct across threads (and coroutines) without locking on
    the hot path; the lock only guards sink fan-out and sink mutation.
    """

    def __init__(self, enabled: bool = True, sinks: list[SpanSink] | None = None) -> None:
        self.enabled = enabled
        self._sinks: list[SpanSink] = list(sinks or [])
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_obs_current_span", default=None
        )

    # -- sinks -------------------------------------------------------------------

    @property
    def sinks(self) -> list[SpanSink]:
        """The attached sinks (copy; use add/remove to mutate)."""
        with self._lock:
            return list(self._sinks)

    def add_sink(self, sink: SpanSink) -> SpanSink:
        """Attach a sink; returns it for chaining."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: SpanSink) -> None:
        """Detach a sink (no error when absent)."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def clear_sinks(self) -> None:
        """Detach every sink."""
        with self._lock:
            self._sinks.clear()

    def ring_buffer(self) -> RingBufferSink | None:
        """The first attached ring-buffer sink, if any."""
        with self._lock:
            for sink in self._sinks:
                if isinstance(sink, RingBufferSink):
                    return sink
        return None

    # -- spans -------------------------------------------------------------------

    def current_span(self) -> Span | None:
        """The span active in this context, or None."""
        return self._current.get()

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of whatever span is currently active."""
        parent = self._current.get()
        span_ = Span(name=name, attributes=dict(attributes), parent=parent)
        span_.started_at = time.perf_counter()
        cpu_started = time.thread_time_ns()
        token = self._current.set(span_)
        try:
            yield span_
        except BaseException as error:
            span_.status = STATUS_ERROR
            span_.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            span_.cpu_ns = time.thread_time_ns() - cpu_started
            span_.ended_at = time.perf_counter()
            self._current.reset(token)
            if parent is not None:
                parent.children.append(span_)
            self._emit(span_)

    def _emit(self, span_: Span) -> None:
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            sink.on_span_end(span_)

    def emit_log(self, logger_name: str, level: str, message: str) -> None:
        """Fan a log record out to every sink (used by the logging bridge)."""
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            sink.on_log(logger_name, level, message)


#: The process-global tracer; disabled until :func:`repro.obs.configure`.
_global_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-global tracer; returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


def span(name: str, **attributes: Any):
    """A span on the global tracer; a shared no-op when tracing is off.

    This is the instrumentation entry point used throughout the pipeline:
    ``with span("xsdgen.library", library=name): ...``.  The disabled path
    allocates nothing.
    """
    tracer = _global_tracer
    if not tracer.enabled:
        return _NOOP_CONTEXT
    return tracer.span(name, **attributes)
