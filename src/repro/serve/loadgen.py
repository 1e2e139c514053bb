"""Stdlib load generator for the ``upcc serve`` daemon.

Drives concurrent request streams against a running server and reports
throughput (req/s) and tail latency (p50/p95/p99).  Doubles as:

* the CI smoke driver -- ``python -m repro.serve.loadgen --url URL
  --requests 50 --concurrency 8`` boots its own easybiz workload (one
  ``/generate``, then a barrage of ``/validate``) against an already
  running server and exits non-zero on any dropped response, and
* the measurement core of ``benchmarks/bench_serve_throughput.py``
  (via :func:`run_load`).

Each worker thread holds one keep-alive :class:`http.client.HTTPConnection`
and replays the request loop; ``503`` (backpressure) responses are retried
with a short linear backoff and counted separately -- a load test that
outruns the queue is *supposed* to see 503s, and the report distinguishes
"shed and retried" from "failed".

Every logical request originates a W3C ``traceparent`` header (a fresh
trace id, the same one across 503 retries), so a load run is observable
end to end: the ids land in the server's access log, slow captures, and
latency exemplars, and :class:`LoadResult.trace_ids` records what was
sent for round-trip assertions.  ``--error-rate`` injects malformed
request bodies at a deterministic cadence -- the resulting 400s exercise
SLO burn-rate alerting without needing a broken server.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.obs.propagation import TRACEPARENT_HEADER, TraceContext

__all__ = [
    "LoadResult",
    "request_json",
    "request_text",
    "run_load",
    "scrape_server_quantiles",
    "main",
]


@dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    requests: int  #: responses received (any status)
    ok: int  #: 2xx responses
    retried_503: int  #: backpressure shed-and-retry events
    failed: int  #: non-2xx final outcomes (incl. exhausted retries)
    dropped: int  #: requests that got *no* response (connection died)
    elapsed_s: float
    latencies_ms: list[float] = field(default_factory=list)
    injected_errors: int = 0  #: deliberately malformed requests sent
    trace_ids: list[str] = field(default_factory=list)  #: originated trace ids

    @property
    def rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def percentile(self, q: float) -> float:
        """The q-th latency percentile in ms (q in 0..100); 0 when empty."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
        return ordered[index]

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "retried_503": self.retried_503,
            "failed": self.failed,
            "dropped": self.dropped,
            "elapsed_s": round(self.elapsed_s, 4),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.percentile(50), 3),
            "p95_ms": round(self.percentile(95), 3),
            "p99_ms": round(self.percentile(99), 3),
            "injected_errors": self.injected_errors,
            "trace_ids_sampled": self.trace_ids[:5],
        }


def request_json(
    url: str,
    path: str,
    payload: dict | None = None,
    *,
    method: str | None = None,
    timeout_s: float = 60.0,
) -> tuple[int, dict]:
    """One JSON request on a fresh connection; ``(status, parsed body)``."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=timeout_s
    )
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection.request(
            method or ("POST" if payload is not None else "GET"),
            path,
            body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def request_text(
    url: str, path: str, *, timeout_s: float = 30.0
) -> tuple[int, str]:
    """One GET on a fresh connection; ``(status, body text)``."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=timeout_s
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


def scrape_server_quantiles(
    url: str,
    *,
    metric: str = "serve_request_ms",
    labels: dict[str, str] | None = None,
    quantiles: tuple[float, ...] = (50.0, 95.0, 99.0),
    timeout_s: float = 30.0,
) -> dict[str, float] | None:
    """Server-side latency quantiles scraped from ``GET /metrics``.

    Parses the Prometheus exposition and estimates quantiles from the
    cumulative bucket series, so the numbers are the *server's* view of
    latency (no client/network time) -- the counterpart to
    :meth:`LoadResult.percentile`.  ``labels`` restricts to one series
    (e.g. ``{"endpoint": "validate"}``); by default bucket counts are
    summed across all series of the family.  None when the endpoint or
    metric is unavailable.
    """
    from repro.obs.export import parse_prometheus_text, quantile_from_buckets

    try:
        status, text = request_text(url, "/metrics", timeout_s=timeout_s)
    except (OSError, http.client.HTTPException):
        return None
    if status != 200:
        return None
    try:
        families = parse_prometheus_text(text)
    except ValueError:
        return None
    family = families.get(metric)
    if family is None or family.type != "histogram":
        return None
    buckets = family.buckets(labels)
    if not buckets or buckets[-1][1] <= 0:
        return None
    return {
        f"p{format(q, 'g')}": round(quantile_from_buckets(buckets, q), 3)
        for q in quantiles
    }


def run_load(
    url: str,
    path: str,
    payload: dict,
    *,
    requests: int,
    concurrency: int,
    timeout_s: float = 60.0,
    max_retries: int = 50,
    trace: bool = True,
    error_rate: float = 0.0,
) -> LoadResult:
    """Fire ``requests`` POSTs at ``url``+``path`` from ``concurrency`` threads.

    Every worker reuses one keep-alive connection; 503 responses back off
    (5 ms * attempt) and retry up to ``max_retries`` times.  The payload is
    serialized once -- the wire bytes are identical across requests, so
    the server's warm paths are exercised, not JSON encoding.

    With ``trace`` (the default) every logical request carries a freshly
    originated ``traceparent``; 503 retries reuse the same trace id, so
    one trace follows one logical request through the shed-and-retry
    dance.  ``error_rate`` in ``(0, 1]`` replaces the body of every
    ``round(1/error_rate)``-th request with malformed JSON -- a
    deterministic 400 stream for exercising SLO alerting.
    """
    parts = urlsplit(url)
    body = json.dumps(payload).encode("utf-8")
    error_body = b'{"malformed'
    inject_every = round(1.0 / error_rate) if error_rate > 0 else 0
    lock = threading.Lock()
    counters = {
        "ok": 0, "retried": 0, "failed": 0, "dropped": 0, "responses": 0,
        "injected": 0,
    }
    latencies: list[float] = []
    trace_ids: list[str] = []
    remaining = iter(range(requests))

    def next_request() -> int | None:
        with lock:
            return next(remaining, None)

    def worker() -> None:
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=timeout_s
        )
        try:
            while (index := next_request()) is not None:
                inject = inject_every > 0 and index % inject_every == 0
                headers = {"Content-Type": "application/json"}
                if trace:
                    context = TraceContext.new()
                    headers[TRACEPARENT_HEADER] = context.to_traceparent()
                    with lock:
                        trace_ids.append(context.trace_id)
                started = time.perf_counter()
                status = None
                for attempt in range(max_retries + 1):
                    try:
                        connection.request(
                            "POST", path,
                            body=error_body if inject else body,
                            headers=headers,
                        )
                        response = connection.getresponse()
                        response.read()
                        status = response.status
                    except (OSError, http.client.HTTPException):
                        # The server never drops an admitted request, so a
                        # dead connection here is a real finding; reconnect
                        # for the next request but record the drop.
                        connection.close()
                        connection = http.client.HTTPConnection(
                            parts.hostname, parts.port, timeout=timeout_s
                        )
                        break
                    if status != 503:
                        break
                    with lock:
                        counters["retried"] += 1
                    time.sleep(0.005 * (attempt + 1))
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                with lock:
                    if status is None:
                        counters["dropped"] += 1
                        continue
                    counters["responses"] += 1
                    latencies.append(elapsed_ms)
                    if inject:
                        counters["injected"] += 1
                    if 200 <= status < 300:
                        counters["ok"] += 1
                    else:
                        counters["failed"] += 1
        finally:
            connection.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"loadgen-{index}", daemon=True)
        for index in range(max(1, concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - started
    return LoadResult(
        requests=counters["responses"],
        ok=counters["ok"],
        retried_503=counters["retried"],
        failed=counters["failed"],
        dropped=counters["dropped"],
        elapsed_s=elapsed_s,
        latencies_ms=latencies,
        injected_errors=counters["injected"],
        trace_ids=trace_ids,
    )


def _easybiz_workload(url: str, documents: int) -> tuple[str, dict]:
    """Register the easybiz schemas on the server; a ready /validate payload.

    Builds the catalog model in-process, POSTs it to ``/generate``, derives
    a sample instance from the returned schemas, and returns ``(schema set
    id, validate payload)`` -- everything the barrage needs.
    """
    from repro.catalog import build_easybiz_model
    from repro.instances import InstanceGenerator
    from repro.xmi import write_xmi
    from repro.xsd.parser import parse_schema
    from repro.xsd.validator import SchemaSet

    catalog = build_easybiz_model()
    xmi_text = write_xmi(catalog.model.model, None)
    status, generated = request_json(
        url,
        "/generate",
        {"xmi": xmi_text, "library": catalog.doc_library.name, "root": "HoardingPermit"},
    )
    if status != 200:
        raise RuntimeError(f"/generate failed with {status}: {generated.get('error')}")
    schema_set = SchemaSet(
        [parse_schema(text) for text in generated["schemas"].values()]
    )
    instance = InstanceGenerator(schema_set).generate_string("HoardingPermit")
    payload = {
        "schema_set": generated["schema_set"],
        "documents": [
            {"name": f"doc{index}.xml", "xml": instance} for index in range(documents)
        ],
    }
    return generated["schema_set"], payload


def main(argv: list[str] | None = None) -> int:
    """CLI: self-contained easybiz load run against a live server."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="drive load against a running upcc serve daemon",
    )
    parser.add_argument("--url", required=True, help="server base URL, e.g. http://127.0.0.1:8437")
    parser.add_argument("--requests", type=int, default=100, help="total /validate requests (default 100)")
    parser.add_argument("--concurrency", type=int, default=8, help="worker threads (default 8)")
    parser.add_argument("--documents", type=int, default=4, help="instance documents per request (default 4)")
    parser.add_argument("--timeout", type=float, default=60.0, help="per-request timeout in seconds")
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")
    parser.add_argument(
        "--error-rate", type=float, default=0.0,
        help="fraction of requests sent with malformed bodies (expected 400s, "
             "for SLO alert drills; default 0)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="do not originate traceparent headers",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.error_rate <= 1.0:
        print("error: --error-rate must be in [0, 1]", file=sys.stderr)
        return 2

    status, health = request_json(args.url, "/healthz", timeout_s=args.timeout)
    if status != 200:
        print(f"error: {args.url}/healthz returned {status}: {health}", file=sys.stderr)
        return 1
    _set_id, payload = _easybiz_workload(args.url, max(1, args.documents))
    result = run_load(
        args.url,
        "/validate",
        payload,
        requests=args.requests,
        concurrency=args.concurrency,
        timeout_s=args.timeout,
        trace=not args.no_trace,
        error_rate=args.error_rate,
    )
    server_side = scrape_server_quantiles(
        args.url, labels={"endpoint": "validate"}, timeout_s=args.timeout
    )
    summary = result.to_json()
    if server_side is not None:
        summary["server_p50_ms"] = server_side["p50"]
        summary["server_p95_ms"] = server_side["p95"]
        summary["server_p99_ms"] = server_side["p99"]
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"{summary['requests']} responses in {summary['elapsed_s']}s "
            f"({summary['rps']} req/s); ok={summary['ok']} failed={summary['failed']} "
            f"dropped={summary['dropped']} retried_503={summary['retried_503']} "
            f"injected_errors={summary['injected_errors']}"
        )
        if result.trace_ids:
            print(f"first trace id: {result.trace_ids[0]}")
        print(
            f"latency ms: p50={summary['p50_ms']} p95={summary['p95_ms']} "
            f"p99={summary['p99_ms']}"
        )
        if server_side is not None:
            print(
                f"server-side /validate ms (from /metrics buckets): "
                f"p50={server_side['p50']} p95={server_side['p95']} "
                f"p99={server_side['p99']}"
            )
    # Injected errors come back as 400s by design; only unexpected
    # failures (or a shortfall of OK responses) fail the run.
    expected_ok = args.requests - result.injected_errors
    unexpected_failed = result.failed - result.injected_errors
    if result.dropped or unexpected_failed > 0 or result.ok != expected_ok:
        print("error: load run saw failed or dropped responses", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
