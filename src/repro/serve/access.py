"""Structured request logging and slow-request capture for ``upcc serve``.

Two thread-safe stores the HTTP layer writes into, both built on
:class:`repro.obs.jsonl.JsonlRing`:

* :class:`AccessLog` -- one JSON object per finished request (method,
  path, status, ``duration_ms``, ``queue_wait_ms``, request id, root
  span id, trace id), kept in the ring surfaced by ``GET /stats`` and
  appended to a size-rotated JSON-lines file when a path is configured.
  Request ids come from :func:`new_request_id` (or the client's
  ``X-Request-Id``) and are echoed back on every response, so one id
  follows a request from client log to access log to span capture.

* :class:`SlowRequestStore` -- a bounded on-disk ring of full span trees
  for requests slower than ``--slow-ms``.  Each capture writes a JSONL
  file (one span per line, ids preserved -- the ``upcc trace`` shape) and
  a Chrome trace-event JSON (:func:`repro.obs.prof.render_trace_events`)
  that loads straight into Perfetto; the oldest captures are deleted once
  ``keep`` is exceeded.  ``GET /slow`` lists the ring's index.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any

from repro.obs.jsonl import JsonlRing
from repro.obs.logging_bridge import get_logger
from repro.obs.prof import render_trace_events
from repro.obs.query import capture_summary
from repro.obs.trace import Span

__all__ = ["AccessLog", "SlowRequestStore", "new_request_id"]

_log = get_logger("repro.serve")

#: Keys every access-log record carries, in emission order.
ACCESS_LOG_FIELDS = (
    "ts", "method", "path", "status", "duration_ms", "queue_wait_ms",
    "request_id", "span_id", "trace_id",
)


def new_request_id() -> str:
    """A fresh request id: 12 hex chars, unique for practical purposes."""
    return os.urandom(6).hex()


class AccessLog(JsonlRing):
    """The access log: a :class:`~repro.obs.jsonl.JsonlRing` of request records.

    ``path=None`` keeps only the ring (the daemon default until
    ``--access-log`` is passed); the ring is always on because ``/stats``
    serves it, and a log reopened on existing files refills it.
    """

    def log(
        self,
        *,
        method: str,
        path: str,
        status: int,
        duration_ms: float,
        queue_wait_ms: float = 0.0,
        request_id: str = "",
        span_id: str | None = None,
        trace_id: str = "",
    ) -> dict[str, Any]:
        """Record one finished request; returns the record."""
        record: dict[str, Any] = {
            "ts": round(time.time(), 3),
            "method": method,
            "path": path,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "queue_wait_ms": round(queue_wait_ms, 3),
            "request_id": request_id,
            "span_id": span_id,
            "trace_id": trace_id,
        }
        self.append(record)
        return record


class SlowRequestStore:
    """Bounded on-disk ring of captured slow-request span trees.

    One capture produces ``slow-<seq>-<request id>.jsonl`` (one
    :meth:`~repro.obs.trace.Span.to_record` per line) and the matching
    ``.trace.json`` Chrome trace-event file.  ``keep`` bounds the number
    of *captures* in the directory; exceeding it deletes the oldest pair.
    Captures an earlier store left in the directory are indexed on
    construction, oldest first, so the bound holds across restarts.  All
    methods are thread-safe -- several connection threads can cross the
    threshold at once.
    """

    def __init__(self, directory: str | Path, keep: int = 32) -> None:
        self.directory = Path(directory)
        self.keep = max(1, keep)
        #: Newest-last index of captures (what ``GET /slow`` serves).
        self._index = JsonlRing(ring=self.keep)
        # next() on a count is atomic, so capture threads need no lock.
        self._seq = itertools.count(self._recover() + 1)

    def _recover(self) -> int:
        """Index the ``slow-<seq>-<id>`` pairs already on disk, by ``seq``;
        returns the highest ``seq`` (0 for none)."""
        bases: dict[int, str] = {}
        for path in self.directory.glob("slow-*"):
            base = path.name.removesuffix(".trace.json").removesuffix(".jsonl")
            parts = base.split("-", 2)
            if len(parts) == 3 and parts[1].isdigit():
                bases[int(parts[1])] = base
        for seq in sorted(bases):
            base = bases[seq]
            # A capture without a readable root span is indexed all the
            # same, so that eviction still deletes its files.
            summary = capture_summary(self.directory / f"{base}.jsonl") or {}
            self._append({
                "request_id": base.split("-", 2)[2],
                "trace_id": summary.get("trace_id", ""),
                "endpoint": summary.get("endpoint", ""),
                "duration_ms": summary.get("duration_ms", 0.0),
                # The threshold of an earlier capture was not recorded.
                "threshold_ms": None,
                "spans": summary.get("spans", 0),
                "captured_at": summary.get("ts", 0.0),
                "jsonl": f"{base}.jsonl",
                "trace": f"{base}.trace.json",
            })
        return max(bases, default=0)

    def _append(self, entry: dict[str, Any]) -> None:
        """Index ``entry``, deleting the files of the capture it evicts."""
        evicted = self._index.append(entry)
        if evicted is not None:
            for name in (evicted["jsonl"], evicted["trace"]):
                try:
                    (self.directory / name).unlink()
                except OSError:
                    pass

    def capture(
        self,
        root: Span,
        *,
        request_id: str,
        threshold_ms: float = 0.0,
        trace_id: str = "",
    ) -> dict[str, Any]:
        """Persist ``root``'s full span tree; returns the index entry."""
        self.directory.mkdir(parents=True, exist_ok=True)
        base = f"slow-{next(self._seq):06d}-{request_id or root.span_id}"
        jsonl_path = self.directory / f"{base}.jsonl"
        trace_path = self.directory / f"{base}.trace.json"
        span_lines = [
            json.dumps(span_.to_record(), sort_keys=True) for span_, _ in root.walk()
        ]
        jsonl_path.write_text("\n".join(span_lines) + "\n", encoding="utf-8")
        trace_path.write_text(render_trace_events([root]), encoding="utf-8")
        entry = {
            "request_id": request_id,
            "trace_id": trace_id,
            "endpoint": root.attributes.get("endpoint", ""),
            "duration_ms": round(root.duration_ms, 3),
            "threshold_ms": threshold_ms,
            "spans": len(span_lines),
            "captured_at": round(time.time(), 3),
            "jsonl": jsonl_path.name,
            "trace": trace_path.name,
        }
        self._append(entry)
        _log.info(
            "captured slow request %s (%.1fms > %.1fms) -> %s",
            request_id, entry["duration_ms"], threshold_ms, trace_path,
        )
        return entry

    def list(self) -> list[dict[str, Any]]:
        """Index entries, oldest first (what ``GET /slow`` returns)."""
        return self._index.recent()

    def __len__(self) -> int:
        return len(self._index.ring)
