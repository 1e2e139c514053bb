"""Structured request logging and slow-request capture for ``upcc serve``.

Two small, thread-safe stores the HTTP layer writes into:

* :class:`AccessLog` -- one JSON object per finished request (method,
  path, status, ``duration_ms``, ``queue_wait_ms``, worker, request id,
  root span id), appended to a JSON-lines file when a path is configured
  and always kept in a bounded in-memory ring surfaced by ``GET /stats``.
  Request ids come from :func:`new_request_id` (or the client's
  ``X-Request-Id``) and are echoed back on every response, so one id
  follows a request from client log to access log to span capture.

* :class:`SlowRequestStore` -- a bounded on-disk ring of full span trees
  for requests slower than ``--slow-ms``.  Each capture writes a JSONL
  file (one span per line, ids preserved -- the ``upcc trace`` shape) and
  a Chrome trace-event JSON (:func:`repro.obs.prof.to_trace_events`) that
  loads straight into Perfetto; the oldest captures are deleted once
  ``keep`` is exceeded.  ``GET /slow`` lists the ring's index.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Any

from repro.obs.logging_bridge import get_logger
from repro.obs.prof import to_trace_events
from repro.obs.trace import Span

__all__ = ["AccessLog", "SlowRequestStore", "new_request_id"]

_log = get_logger("repro.serve")

#: Keys every access-log record carries, in emission order.
ACCESS_LOG_FIELDS = (
    "ts", "method", "path", "status", "duration_ms", "queue_wait_ms",
    "worker", "request_id", "span_id", "trace_id",
)


def new_request_id() -> str:
    """A fresh request id: 12 hex chars, unique for practical purposes."""
    return uuid.uuid4().hex[:12]


class AccessLog:
    """JSON-lines access log plus an in-memory ring of recent requests.

    ``path=None`` keeps only the ring (the daemon default until
    ``--access-log`` is passed); the ring is always on because ``/stats``
    serves it.  Writes append-and-flush under a lock, so concurrent
    connection threads never interleave partial lines.

    ``max_bytes`` bounds the live file: once an append pushes it past the
    limit, the file rotates to ``<name>.1`` (older generations shift to
    ``.2`` .. ``.<keep_rolled>``, the oldest is deleted), so a
    long-running daemon's disk use stays at roughly
    ``max_bytes * (keep_rolled + 1)``.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        ring: int = 256,
        max_bytes: int | None = None,
        keep_rolled: int = 3,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.ring: deque[dict[str, Any]] = deque(maxlen=max(1, ring))
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self.keep_rolled = max(1, keep_rolled)
        self.lines_written = 0
        self.rotations = 0
        self._bytes = 0
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._bytes = self.path.stat().st_size
            except OSError:
                self._bytes = 0

    def _rotate_locked(self) -> None:
        """Shift ``name`` -> ``name.1`` -> ... -> ``name.keep_rolled``."""
        assert self.path is not None
        oldest = self.path.with_name(f"{self.path.name}.{self.keep_rolled}")
        try:
            oldest.unlink()
        except OSError:
            pass
        for index in range(self.keep_rolled - 1, 0, -1):
            source = self.path.with_name(f"{self.path.name}.{index}")
            if source.exists():
                try:
                    source.rename(self.path.with_name(f"{self.path.name}.{index + 1}"))
                except OSError as error:
                    _log.warning("access log rotation failed: %s", error)
        try:
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        except OSError as error:
            # The live file is still in place: keep _bytes so the next
            # append retries rotation instead of letting the file grow
            # past max_bytes forever behind a reset counter.
            _log.warning("access log rotation failed: %s", error)
            return
        self._bytes = 0
        self.rotations += 1

    def log(
        self,
        *,
        method: str,
        path: str,
        status: int,
        duration_ms: float,
        queue_wait_ms: float = 0.0,
        worker: str = "inline",
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
            "worker": worker,
            "request_id": request_id,
            "span_id": span_id,
            "trace_id": trace_id,
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.ring.append(record)
            if self.path is not None:
                try:
                    with self.path.open("a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
                    self.lines_written += 1
                    # Size accounting must match what stat() would say:
                    # encoded bytes, not characters.
                    self._bytes += len(line.encode("utf-8")) + 1
                    if self.max_bytes is not None and self._bytes > self.max_bytes:
                        self._rotate_locked()
                except OSError as error:
                    _log.warning("access log write failed: %s", error)
            else:
                self.lines_written += 1
        return record

    def recent(self) -> list[dict[str, Any]]:
        """The ring's records, oldest first (copies, JSON-ready)."""
        with self._lock:
            return [dict(record) for record in self.ring]


class SlowRequestStore:
    """Bounded on-disk ring of captured slow-request span trees.

    One capture produces ``<stamp>-<request id>.jsonl`` (one span per
    line with ``id``/``parent_id``, reconstructable) and the matching
    ``.trace.json`` Chrome trace-event file.  ``keep`` bounds the number
    of *captures* in the directory; exceeding it deletes the oldest pair.
    Captures an earlier store left in the directory are indexed on
    construction, oldest first, so the bound holds across restarts.  All
    methods are thread-safe -- multiple workers can cross the threshold
    at once.
    """

    def __init__(self, directory: str | Path, keep: int = 32) -> None:
        self.directory = Path(directory)
        self.keep = max(1, keep)
        self._lock = threading.Lock()
        self._seq = 0
        #: Newest-last index of captures (what ``GET /slow`` serves).
        self._index: deque[dict[str, Any]] = deque(maxlen=self.keep)
        self._recover()

    def _recover(self) -> None:
        """Index the ``slow-<seq>-<id>`` pairs already on disk, by ``seq``."""
        bases: dict[int, str] = {}
        for path in self.directory.glob("slow-*"):
            base = path.name.removesuffix(".trace.json").removesuffix(".jsonl")
            parts = base.split("-", 2)
            if len(parts) == 3 and parts[1].isdigit():
                bases[int(parts[1])] = base
        for seq in sorted(bases):
            self._seq = seq
            self._append(self._recovered_entry(bases[seq]))

    def _recovered_entry(self, base: str) -> dict[str, Any]:
        """The index entry of an earlier capture, read back from its JSONL;
        its threshold was not recorded, so it reads ``None``."""
        jsonl_path = self.directory / f"{base}.jsonl"
        try:
            spans = [json.loads(line) for line in
                     jsonl_path.read_text(encoding="utf-8").splitlines() if line]
            captured_at = jsonl_path.stat().st_mtime
        except (OSError, ValueError):
            spans, captured_at = [], 0.0
        root = next((span for span in spans if span.get("parent_id") is None), {})
        attributes = root.get("attributes", {})
        return {
            "request_id": base.split("-", 2)[2],
            "trace_id": attributes.get("trace_id", ""),
            "endpoint": attributes.get("endpoint", ""),
            "duration_ms": root.get("duration_ms", 0.0),
            "threshold_ms": None,
            "spans": len(spans),
            "captured_at": round(captured_at, 3),
            "jsonl": f"{base}.jsonl",
            "trace": f"{base}.trace.json",
        }

    def _append(self, entry: dict[str, Any]) -> None:
        """Index ``entry``, deleting the files of the capture it evicts."""
        with self._lock:
            evicted = None
            if len(self._index) == self._index.maxlen:
                evicted = self._index[0]
            self._index.append(entry)
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
        endpoint: str = "",
        threshold_ms: float = 0.0,
        trace_id: str = "",
    ) -> dict[str, Any]:
        """Persist ``root``'s full span tree; returns the index entry."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._seq += 1
            stamp = f"{self._seq:06d}"
        base = f"slow-{stamp}-{request_id or root.span_id}"
        jsonl_path = self.directory / f"{base}.jsonl"
        trace_path = self.directory / f"{base}.trace.json"
        span_lines = []
        for span_, _depth in root.walk():
            payload = span_.to_dict()
            payload.pop("children", None)
            payload["id"] = span_.span_id
            payload["parent_id"] = (
                span_.parent.span_id if span_.parent is not None else None
            )
            span_lines.append(json.dumps(payload, sort_keys=True))
        jsonl_path.write_text("\n".join(span_lines) + "\n", encoding="utf-8")
        trace_path.write_text(
            json.dumps(to_trace_events([root]), sort_keys=True), encoding="utf-8"
        )
        entry = {
            "request_id": request_id,
            "trace_id": trace_id,
            "endpoint": endpoint or root.attributes.get("endpoint", ""),
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
        with self._lock:
            return [dict(entry) for entry in self._index]

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)
