"""``upcc top``: a curses-free terminal dashboard for a running daemon.

Polls ``GET /stats`` and ``GET /metrics`` on an interval and redraws one
screenful in place (plain ANSI clear-and-home, no :mod:`curses`), showing
the numbers an operator watches during a load event:

* throughput -- requests/s over the last poll interval (delta of
  ``serve.requests_total`` between frames) and cumulative totals,
* tails -- p50/p90/p99 of ``serve.request_ms`` estimated from the scraped
  cumulative bucket series (:func:`repro.obs.export.quantile_from_buckets`),
* saturation -- queue depth vs capacity, in-flight jobs, rejects,
* caches -- model/generation/compilation entries and model hit rate,
* runtime -- RSS, thread count, open fds, GC collections, uptime,
* SLOs -- per-objective burn rates and alert state from ``GET /alerts``
  (omitted gracefully against daemons without the endpoint),
* the tail of the access-log ring (method, path, status, latency).

``--once`` renders a single frame without clearing the screen (useful in
scripts and asserted by the test suite); ``--json`` dumps the raw
snapshot instead of the board.  In loop mode a poll failure does not kill
the board: the loop reconnects with exponential backoff (a restarting
daemon comes back into view by itself) and only gives up after
``--max-poll-failures`` consecutive misses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from repro.obs.export import parse_prometheus_text, quantile_from_buckets
from repro.serve.loadgen import request_json, request_text

__all__ = ["add_arguments", "fetch_snapshot", "render_board", "run", "main"]

#: ANSI: clear screen, cursor home (the whole "UI framework").
_CLEAR = "\x1b[2J\x1b[H"


def fetch_snapshot(url: str, *, timeout_s: float = 10.0) -> dict[str, Any]:
    """One combined /stats + /metrics poll, reduced to board facts."""
    status, stats = request_json(url, "/stats", timeout_s=timeout_s)
    if status != 200:
        raise RuntimeError(f"GET /stats returned {status}")
    metrics_status, text = request_text(url, "/metrics", timeout_s=timeout_s)
    if metrics_status != 200:
        raise RuntimeError(f"GET /metrics returned {metrics_status}")
    families = parse_prometheus_text(text)

    def family_total(name: str) -> float:
        family = families.get(name)
        return sum(family.values()) if family is not None else 0.0

    def gauge_value(name: str) -> float:
        family = families.get(name)
        values = family.values() if family is not None else []
        return values[-1] if values else 0.0

    latency = families.get("serve_request_ms")
    buckets = latency.buckets() if latency is not None else []
    quantiles = {
        f"p{q:g}": round(quantile_from_buckets(buckets, q), 3)
        for q in (50.0, 90.0, 99.0)
    } if buckets and buckets[-1][1] > 0 else {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    # SLO burn rates ride along when the daemon serves /alerts; older
    # daemons (or a race during restart) simply leave the panel empty.
    slo: dict[str, Any] = {"statuses": [], "alerts": []}
    try:
        alerts_status, alerts_payload = request_json(
            url, "/alerts", timeout_s=timeout_s
        )
        if alerts_status == 200 and isinstance(alerts_payload, dict):
            slo = {
                "statuses": alerts_payload.get("statuses", []),
                "alerts": alerts_payload.get("alerts", [])[-4:],
            }
    except (OSError, ValueError):
        pass

    server = stats.get("server", {})
    caches = stats.get("caches", {})
    hits = family_total("serve_model_cache_hits_total")
    misses = family_total("serve_model_cache_misses_total")
    lookups = hits + misses
    return {
        "polled_at": time.monotonic(),
        "uptime_s": stats.get("uptime_s", 0.0),
        "requests_total": family_total("serve_requests_total"),
        "rejected_total": family_total("serve_rejected_total"),
        "slow_total": family_total("serve_slow_requests_total"),
        "latency_ms": quantiles,
        "queue_depth": server.get("queue_depth", 0),
        "queue_size": server.get("queue_size", 0),
        "inflight": server.get("inflight", 0),
        "workers": server.get("workers", 0),
        "draining": server.get("draining", False),
        "caches": {
            "models": caches.get("models", 0),
            "generation": caches.get("generation_entries", 0),
            "compilation": caches.get("compilation_entries", 0),
            "model_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        },
        "runtime": {
            "rss_bytes": int(gauge_value("runtime_rss_bytes")),
            "threads": int(gauge_value("runtime_threads")),
            "open_fds": int(gauge_value("runtime_open_fds")),
            "gc_collections": int(family_total("runtime_gc_collections")),
        },
        "slo": slo,
        "recent_requests": stats.get("recent_requests", [])[-8:],
    }


def _fmt_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def render_board(
    snapshot: dict[str, Any],
    previous: dict[str, Any] | None = None,
    *,
    url: str = "",
) -> str:
    """One dashboard frame as plain text (no ANSI; the loop adds that)."""
    if previous is not None:
        dt = snapshot["polled_at"] - previous["polled_at"]
        dreq = snapshot["requests_total"] - previous["requests_total"]
        rps = dreq / dt if dt > 0 else 0.0
        rps_label = f"{rps:8.1f} req/s (last {dt:.1f}s)"
    else:
        uptime = snapshot["uptime_s"] or 1.0
        rps_label = f"{snapshot['requests_total'] / uptime:8.1f} req/s (lifetime)"
    latency = snapshot["latency_ms"]
    caches = snapshot["caches"]
    runtime = snapshot["runtime"]
    state = "DRAINING" if snapshot["draining"] else "serving"
    lines = [
        f"upcc top -- {url}  [{state}]  uptime {snapshot['uptime_s']:.0f}s",
        "",
        f"  throughput  {rps_label}   total={int(snapshot['requests_total'])} "
        f"rejected={int(snapshot['rejected_total'])} slow={int(snapshot['slow_total'])}",
        f"  latency ms  p50={latency['p50']:<9g} p90={latency['p90']:<9g} "
        f"p99={latency['p99']:<9g}",
        f"  saturation  queue {snapshot['queue_depth']}/{snapshot['queue_size']}   "
        f"inflight {snapshot['inflight']}/{snapshot['workers']} workers",
        f"  caches      models={caches['models']} generation={caches['generation']} "
        f"compilation={caches['compilation']} model_hit_rate={caches['model_hit_rate']:.1%}",
        f"  runtime     rss={_fmt_bytes(runtime['rss_bytes'])} "
        f"threads={runtime['threads']} fds={runtime['open_fds']} "
        f"gc={runtime['gc_collections']}",
    ]
    statuses = snapshot.get("slo", {}).get("statuses", [])
    for index, status in enumerate(statuses):
        label = "slo        " if index == 0 else "           "
        state = status.get("state", "?")
        marker = state.upper() if state == "firing" else state
        lines.append(
            f"  {label} {status.get('name', '?'):<18} [{marker}] "
            f"burn fast={status.get('burn_fast', 0.0):g} "
            f"slow={status.get('burn_slow', 0.0):g} "
            f"budget={status.get('budget_remaining', 0.0):.1%}"
        )
    alerts = snapshot.get("slo", {}).get("alerts", [])
    if alerts:
        lines.append("  alerts:")
        for alert in alerts:
            lines.append(
                f"    {alert.get('state', '?'):<8} {alert.get('slo', '?'):<18} "
                f"{alert.get('message', '')}"
            )
    lines += [
        "",
        "  recent requests:",
    ]
    recent = snapshot["recent_requests"]
    if recent:
        for record in recent:
            lines.append(
                f"    {record.get('method', '?'):>4} {record.get('path', '?'):<12} "
                f"{record.get('status', 0):>3}  {record.get('duration_ms', 0.0):>9.2f}ms  "
                f"wait {record.get('queue_wait_ms', 0.0):>7.2f}ms  "
                f"{record.get('request_id', '')}"
            )
    else:
        lines.append("    (none yet)")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Define the ``upcc top`` options on ``parser``."""
    parser.add_argument("--url", required=True, help="server base URL, e.g. http://127.0.0.1:8437")
    parser.add_argument("--interval", type=float, default=2.0, help="poll period in seconds (default 2)")
    parser.add_argument("--once", action="store_true", help="render a single frame and exit")
    parser.add_argument("--count", type=int, default=0, help="stop after N frames (0 = until interrupted)")
    parser.add_argument("--json", action="store_true", help="emit the raw snapshot as JSON instead of the board")
    parser.add_argument(
        "--max-poll-failures", type=int, default=10,
        help="consecutive poll failures before giving up in loop mode "
             "(default 10; --once always fails on the first)",
    )


def run(args: argparse.Namespace) -> int:
    """The dashboard loop on options parsed by :func:`add_arguments`: poll,
    render, clear, repeat (or one frame with ``--once``)."""
    previous: dict[str, Any] | None = None
    frames = 0
    failures = 0
    try:
        while True:
            try:
                snapshot = fetch_snapshot(args.url, timeout_s=max(1.0, args.interval * 2))
            except (OSError, RuntimeError, ValueError) as error:
                failures += 1
                # --once is a probe: report and exit.  The live board
                # instead backs off and reconnects -- a daemon restart
                # should not kill the operator's screen.
                if args.once or failures >= max(1, args.max_poll_failures):
                    print(f"error: cannot poll {args.url}: {error}", file=sys.stderr)
                    return 1
                backoff = min(30.0, max(0.1, args.interval) * (2 ** (failures - 1)))
                print(
                    f"poll failed ({error}); retrying in {backoff:.1f}s "
                    f"[{failures}/{args.max_poll_failures}]",
                    file=sys.stderr,
                )
                time.sleep(backoff)
                continue
            failures = 0
            if args.json:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            else:
                frame = render_board(snapshot, previous, url=args.url)
                if args.once:
                    print(frame)
                else:
                    print(f"{_CLEAR}{frame}", flush=True)
            frames += 1
            previous = snapshot
            if args.once or (args.count and frames >= args.count):
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        print()
        return 0


def main(argv: list[str] | None = None) -> int:
    """CLI: ``upcc top`` -- the live dashboard."""
    parser = argparse.ArgumentParser(
        prog="upcc top",
        description="live terminal dashboard for a running upcc serve daemon",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
