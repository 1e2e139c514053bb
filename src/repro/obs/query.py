"""Offline telemetry queries over the serve daemon's on-disk artifacts.

``upcc serve`` leaves three JSON-lines trails behind: the access log
(``--access-log``, plus rotated ``.1 .. .N`` generations), the
slow-request capture directory (``--slow-dir``, one span-tree JSONL per
capture), and the SLO alert log (``--alert-log``, rotated like the
access log).  This module is the read side: filter any of them by trace
id, request id, status code (or a ``4xx``/``5xx`` class), and time
window -- the ``upcc obs query`` subcommand, so chasing "what happened
to trace X?" works after the daemon is gone, with nothing but the files.

All readers are tolerant: malformed lines are skipped, missing files
yield empty results rather than raising, and the rotated generations of
the access log and the alert log are read oldest-first so output stays
in chronological order.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.obs.jsonl import generation_paths, read_jsonl

#: The access log's files, oldest first (see :func:`generation_paths`).
access_log_paths = generation_paths

__all__ = [
    "access_log_paths",
    "add_arguments",
    "capture_summary",
    "parse_when",
    "query_jsonl",
    "query_slow_captures",
    "read_jsonl",
    "record_matches",
    "run",
    "status_matches",
    "main",
]


def parse_when(text: str | None) -> float | None:
    """A CLI time bound: unix seconds or ISO-8601; ``None`` passes through.

    Naive ISO timestamps are taken as UTC -- the access log's ``ts`` is
    ``time.time()``, so bounds must live on the same clock.
    """
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        pass
    try:
        moment = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(
            f"not a unix timestamp or ISO-8601 instant: {text!r}"
        ) from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def status_matches(status: Any, pattern: str) -> bool:
    """True when ``status`` matches ``pattern`` (exact code or ``4xx``/``5xx``)."""
    code = str(status)
    if pattern.endswith("xx") and len(pattern) == 3:
        return len(code) == 3 and code[0] == pattern[0]
    return code == pattern


def record_matches(
    record: dict[str, Any],
    *,
    status: str | None = None,
    since: float | None = None,
    until: float | None = None,
    **exact: str | None,
) -> bool:
    """True when ``record`` passes every filter that is not ``None``:
    ``status`` by :func:`status_matches`, ``ts`` inside ``[since, until]``,
    and each ``exact`` key by equality."""
    for key, wanted in exact.items():
        if wanted is not None and record.get(key) != wanted:
            return False
    if status is not None and not status_matches(record.get("status", ""), status):
        return False
    ts = record.get("ts")
    if since is not None and (not isinstance(ts, (int, float)) or ts < since):
        return False
    if until is not None and (not isinstance(ts, (int, float)) or ts > until):
        return False
    return True


def capture_summary(path: str | Path) -> dict[str, Any] | None:
    """The summary of one ``slow-<seq>-<request id>.jsonl`` capture, or
    ``None`` when it has no root span.

    Request id comes from the file name; trace id, endpoint and status
    from the root span's attributes; then the root's duration, the span
    count, and the file name for drill-down with ``upcc trace``.
    """
    path = Path(path)
    spans = list(read_jsonl(path))
    root = next((span for span in spans if span.get("parent_id") is None), None)
    if root is None:
        return None
    attributes = root.get("attributes", {})
    try:
        # Spans carry durations, not wall-clock instants; the file's
        # mtime is the capture moment and serves as the record ts.
        captured_at = path.stat().st_mtime
    except OSError:
        captured_at = 0.0
    parts = path.stem.split("-", 2)
    return {
        "request_id": parts[2] if len(parts) == 3 else "",
        "trace_id": attributes.get("trace_id", ""),
        "endpoint": attributes.get("endpoint", ""),
        "status": attributes.get("status"),
        "duration_ms": root.get("duration_ms"),
        "spans": len(spans),
        "ts": round(captured_at, 3),
        "jsonl": path.name,
    }


def query_jsonl(
    path: str | Path, *, limit: int | None = None, **filters: Any
) -> list[dict[str, Any]]:
    """Records of a :class:`~repro.obs.jsonl.JsonlRing` file (the access
    log or the alert log, rotated generations included) that pass
    :func:`record_matches` with ``filters``, oldest first; ``limit``
    keeps the newest."""
    matches = [
        record
        for file_path in generation_paths(path)
        for record in read_jsonl(file_path)
        if record_matches(record, **filters)
    ]
    return matches[-limit:] if limit else matches


def query_slow_captures(
    directory: str | Path, *, limit: int | None = None, **filters: Any
) -> list[dict[str, Any]]:
    """:func:`capture_summary` of each slow capture that passes
    :func:`record_matches` with ``filters``, oldest first; ``limit``
    keeps the newest."""
    summaries = [
        summary
        for summary in map(capture_summary, sorted(Path(directory).glob("slow-*.jsonl")))
        if summary is not None and record_matches(summary, **filters)
    ]
    return summaries[-limit:] if limit else summaries


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Define the ``upcc obs query`` options on ``parser``."""
    parser.add_argument("--access-log", metavar="FILE", help="access log JSONL (rotated generations are included)")
    parser.add_argument("--slow-dir", metavar="DIR", help="slow-request capture directory")
    parser.add_argument("--alerts", metavar="FILE", help="SLO alert log JSONL (rotated generations are included)")
    parser.add_argument("--trace-id", help="exact 32-hex W3C trace id")
    parser.add_argument("--request-id", help="exact request id")
    parser.add_argument("--status", help="exact status code (e.g. 503) or class (4xx, 5xx)")
    parser.add_argument("--slo", help="alert filter: SLO name")
    parser.add_argument("--state", choices=["firing", "resolved"], help="alert filter: state")
    parser.add_argument("--since", metavar="WHEN", help="lower time bound (unix seconds or ISO-8601, UTC)")
    parser.add_argument("--until", metavar="WHEN", help="upper time bound (unix seconds or ISO-8601, UTC)")
    parser.add_argument("--limit", type=int, default=0, metavar="N", help="keep only the newest N matches per source")
    parser.add_argument("--json", action="store_true", help="emit one JSON document instead of JSON lines")


def run(args: argparse.Namespace) -> int:
    """Run ``upcc obs query`` on options parsed by :func:`add_arguments`."""
    if not (args.access_log or args.slow_dir or args.alerts):
        print(
            "error: nothing to query -- pass --access-log, --slow-dir, "
            "and/or --alerts",
            file=sys.stderr,
        )
        return 2
    try:
        since = parse_when(args.since)
        until = parse_when(args.until)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.limit < 0:
        print(f"error: --limit must be 0 or more, not {args.limit}", file=sys.stderr)
        return 2

    limit = args.limit or None
    results: dict[str, list[dict[str, Any]]] = {}
    if args.access_log:
        results["access"] = query_jsonl(
            args.access_log, trace_id=args.trace_id, request_id=args.request_id,
            status=args.status, since=since, until=until, limit=limit,
        )
    if args.slow_dir:
        results["slow"] = query_slow_captures(
            args.slow_dir, trace_id=args.trace_id, request_id=args.request_id,
            status=args.status, since=since, until=until, limit=limit,
        )
    if args.alerts:
        results["alerts"] = query_jsonl(
            args.alerts, slo=args.slo, state=args.state,
            since=since, until=until, limit=limit,
        )

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for source, records in results.items():
            for record in records:
                print(json.dumps({"source": source, **record}, sort_keys=True))
    total = sum(len(records) for records in results.values())
    print(
        f"{total} match(es) across {len(results)} source(s)", file=sys.stderr
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI: ``upcc obs query`` -- filter serve telemetry files offline."""
    parser = argparse.ArgumentParser(
        prog="upcc obs query",
        description="filter serve access logs, slow captures, and alert "
        "logs by trace id, request id, status, or time window",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
