"""W3C Trace Context propagation: ``traceparent`` / ``tracestate`` headers.

Implements the wire half of distributed tracing for the serve daemon and
its clients, per the `W3C Trace Context
<https://www.w3.org/TR/trace-context/>`_ recommendation:

* :func:`parse_traceparent` / :func:`render_traceparent` -- the
  ``00-<trace-id>-<parent-id>-<flags>`` header, strictly validated
  (length, lowercase hex, all-zero ids rejected) but forward-compatible:
  an unknown version with extra fields still yields the leading four,
  exactly as the spec's "parse to the extent possible" rule asks;
* :func:`parse_tracestate` / :func:`render_tracestate` -- the ordered
  vendor ``key=value`` list, entry count and length bounded per spec;
* :class:`TraceContext` -- one request's correlation identity: the
  128-bit trace id shared by every span of a distributed request, the
  16-hex id of the *direct parent* span, and the sampled flag;
* a :mod:`contextvars` slot (:func:`current_trace_context` /
  :func:`use_trace_context`) so code deep in the pipeline -- metric
  exemplars, access logs, slow-trace captures -- can read the active
  trace identity without threading it through every call.  The serve
  daemon sets it on the connection thread that runs the request; code
  that hops threads carries it in a ``contextvars.copy_context()``
  snapshot.

Stdlib-only; ids come from :func:`os.urandom` (the spec requires random,
not sequential, ids).
"""

from __future__ import annotations

import contextvars
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

__all__ = [
    "TRACEPARENT_HEADER",
    "TRACESTATE_HEADER",
    "TraceContext",
    "current_trace_context",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "parse_tracestate",
    "render_traceparent",
    "render_tracestate",
    "use_trace_context",
]

#: Canonical header names (HTTP header lookup is case-insensitive).
TRACEPARENT_HEADER = "traceparent"
TRACESTATE_HEADER = "tracestate"

#: The flag bit signalling "the caller recorded this trace".
FLAG_SAMPLED = 0x01

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
_SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")
_VERSION_RE = re.compile(r"^[0-9a-f]{2}$")
_FLAGS_RE = re.compile(r"^[0-9a-f]{2}$")
#: ``tracestate`` keys: lowercase identifier, optionally ``tenant@vendor``.
_STATE_KEY_RE = re.compile(r"^[a-z0-9][a-z0-9_\-*/]{0,255}(@[a-z][a-z0-9_\-*/]{0,13})?$")

#: Spec bounds for tracestate: at most 32 list members.
MAX_TRACESTATE_ENTRIES = 32


def new_trace_id() -> str:
    """A fresh random 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh random 64-bit span (parent) id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One request's W3C trace identity.

    ``trace_id`` is shared by every span of the distributed request;
    ``parent_id`` names the span that *caused* the current work (the
    caller's span on an incoming request, our own span on an outgoing
    one).  ``tracestate`` keeps the vendor list intact for pass-through.
    """

    trace_id: str
    parent_id: str
    sampled: bool = True
    tracestate: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @classmethod
    def new(cls, *, sampled: bool = True) -> "TraceContext":
        """Originate a fresh trace (new trace id, new parent id)."""
        return cls(trace_id=new_trace_id(), parent_id=new_span_id(), sampled=sampled)

    def child(self) -> "TraceContext":
        """The context an outgoing call should carry: same trace, new parent."""
        return replace(self, parent_id=new_span_id())

    def to_traceparent(self) -> str:
        """This context as a ``traceparent`` header value."""
        return render_traceparent(self)


def parse_traceparent(header: str | None) -> TraceContext | None:
    """A :class:`TraceContext` from a ``traceparent`` header, or ``None``.

    Strict on the parts that matter for correlation (id lengths, hex
    case, the all-zero invalid ids) and lenient on the rest: a version
    above ``00`` may carry extra dash-separated fields which are ignored,
    per the spec's forward-compatibility rule.  Version ``ff`` is
    explicitly invalid.
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, parent_id, flags = parts[0], parts[1], parts[2], parts[3]
    if not _VERSION_RE.match(version) or version == "ff":
        return None
    if version == "00" and len(parts) != 4:
        return None
    if not _TRACE_ID_RE.match(trace_id) or trace_id == "0" * 32:
        return None
    if not _SPAN_ID_RE.match(parent_id) or parent_id == "0" * 16:
        return None
    if not _FLAGS_RE.match(flags):
        return None
    return TraceContext(
        trace_id=trace_id,
        parent_id=parent_id,
        sampled=bool(int(flags, 16) & FLAG_SAMPLED),
    )


def render_traceparent(context: TraceContext) -> str:
    """``context`` as a version-00 ``traceparent`` header value."""
    flags = FLAG_SAMPLED if context.sampled else 0x00
    return f"00-{context.trace_id}-{context.parent_id}-{flags:02x}"


def parse_tracestate(header: str | None) -> tuple[tuple[str, str], ...]:
    """The ordered ``(key, value)`` entries of a ``tracestate`` header.

    Malformed entries are dropped (the spec allows discarding the whole
    header on defects; keeping the valid prefix preserves more vendor
    context), duplicate keys keep their first occurrence, and the list
    is truncated at the spec's 32-member bound.
    """
    if not header:
        return ()
    entries: list[tuple[str, str]] = []
    seen: set[str] = set()
    for raw in header.split(","):
        member = raw.strip()
        if not member:
            continue  # empty members are allowed and ignored
        key, sep, value = member.partition("=")
        if not sep or not value or not _STATE_KEY_RE.match(key):
            continue
        if "," in value or "=" in value or key in seen:
            continue
        seen.add(key)
        entries.append((key, value))
        if len(entries) >= MAX_TRACESTATE_ENTRIES:
            break
    return tuple(entries)


def render_tracestate(entries: tuple[tuple[str, str], ...] | list[tuple[str, str]]) -> str:
    """``entries`` as a ``tracestate`` header value (empty string when none)."""
    return ",".join(f"{key}={value}" for key, value in entries)


#: The ambient trace identity of the current execution context.  Rides
#: ``contextvars.copy_context()`` snapshots, so a thread hop that runs
#: its work inside one preserves it without extra plumbing.
_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_obs_trace_context", default=None
)


def current_trace_context() -> TraceContext | None:
    """The trace context active in this execution context, or ``None``."""
    return _current.get()


@contextmanager
def use_trace_context(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``context`` the ambient trace identity for the enclosed block."""
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)
