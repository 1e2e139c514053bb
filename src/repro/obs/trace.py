"""Hierarchical tracing spans for the generation/validation pipeline.

A :class:`Span` records one timed region of pipeline work -- wall time,
outcome (ok/error) and free-form key/value attributes -- and nests under
whatever span was active when it started, so one generation run yields a
tree mirroring the library dependency graph the generator walked.  The
:class:`Tracer` keeps the last finished root spans in a bounded ring
(:attr:`Tracer.roots`), renders them as an indented tree
(:meth:`Tracer.render_tree`), and :meth:`Span.to_record` is the one
flat JSON record of a span.

The module-level :func:`span` helper reads the process-global tracer and
costs a single attribute check when tracing is disabled, keeping the
instrumented hot paths effectively free by default.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.propagation import new_span_id

#: Outcome values a span can end with.
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass
class Span:
    """One timed, attributed region of work, nested under a parent span.

    ``span_id`` is a random W3C Trace Context span id (16 lowercase hex
    chars) -- span *names* repeat freely (every library build is an
    ``xsdgen.library`` span), so flat records carry ``id``/``parent_id``
    (:meth:`to_record`) to keep the tree losslessly reconstructable.
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

    def to_record(self) -> dict[str, Any]:
        """The one-span JSON record: name, timings, status, attributes and
        error, plus ``id``, ``parent_id`` and the ``parent`` name."""
        record: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
            "cpu_ms": round(self.cpu_ms, 3),
            "status": self.status,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.error is not None:
            record["error"] = self.error
        parent = self.parent
        record["id"] = self.span_id
        record["parent_id"] = parent.span_id if parent is not None else None
        # The parent *name* stays for human grepping; names are ambiguous
        # (many spans share one), so tree reconstruction uses the ids.
        record["parent"] = parent.name if parent is not None else None
        return record


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


def _span_summary(span: Span) -> str:
    parts = [span.name, f"{span.duration_ms:.2f}ms", span.status]
    parts.extend(f"{key}={value}" for key, value in span.attributes.items())
    if span.error:
        parts.append(f"error={span.error!r}")
    return " ".join(parts)


class Tracer:
    """Span collector that keeps finished root spans in :attr:`roots`.

    The active span is tracked per-context via :mod:`contextvars`, so
    nesting is correct across threads (and coroutines) without locking.
    :attr:`roots` is a bounded deque (the ring) that
    :func:`repro.obs.configure` makes; children stay reachable through
    their root, so the ring holds whole trees.  While it is ``None``
    spans still nest and time, and only their callers keep them.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.roots: deque[Span] | None = None
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_obs_current_span", default=None
        )

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
            else:
                # One read: configure() on another thread may swap the ring.
                roots = self.roots
                if roots is not None:
                    roots.append(span_)

    def render_tree(self) -> str:
        """The ring's span trees as indented text, one line per span."""
        lines: list[str] = []
        for root in self.roots or ():
            for span_, depth in root.walk():
                lines.append("  " * depth + _span_summary(span_))
        return "\n".join(lines)


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
