"""The ``upcc serve`` HTTP daemon: admission control, backpressure, graceful drain.

Stdlib only.  A :class:`ThreadingHTTPServer` accepts connections, and each
connection thread runs the request it parsed; there is no worker pool.
The work endpoints (``/generate``, ``/validate``, ``/explain``) first take
a run slot from one lock-and-condition counter in :class:`UpccServer`:
at most ``workers`` run at once and at most ``queue_size`` wait, first
come, first served.  Overflow, and any request arriving while draining,
gets ``503`` with ``Retry-After``; a request whose timeout passes while
it waits gets ``504`` at its deadline and never runs, and one whose
timeout passes while it runs gets ``504`` when its work returns.
``/healthz``, ``/stats``, ``/metrics``, ``/slow`` and ``/alerts`` bypass
admission, so they stay responsive while every slot is busy.

Graceful drain (:meth:`UpccServer.drain`, wired to ``SIGTERM``/``SIGINT``
by the CLI): stop admitting work, wait on the counter until no request
runs or waits, then shut the listener down.  Connection threads are
non-daemon and ``server_close`` joins them, so every admitted request
gets its response bytes written before the process exits -- zero dropped
responses, asserted by ``tests/test_serve.py``.

Observability: every request runs under a ``serve.request`` span on its
connection thread, so pipeline child spans parent under it and its
``cpu_ms`` includes the work.  Each request records
``serve.requests_total{endpoint=..}``,
``serve.responses_total{code=..}``, ``serve.request_ms{endpoint=..}`` (from
before the body read to after the socket write),
``serve.stage_ms{endpoint=..,stage=read|decode|queue|work|log|encode|write|other}``
(which sum to ``serve.request_ms``; ``queue`` is the admission wait),
``serve.queue_depth`` and ``serve.rejected_total{reason=..}``.  Incoming
W3C ``traceparent``/``tracestate`` headers are adopted: the trace id is
echoed on the response, stamped on the access-log record and the
serve.request span, attached as an OpenMetrics exemplar to the latency
bucket the request landed in, and recorded on any slow-trace capture --
one id correlates client log, access log, ``/metrics`` and ``/slow``.
An :class:`repro.obs.slo.SloEngine` (default objectives, or ``--slo``)
evaluates burn rates on the runtime collector's cadence and serves
``GET /alerts``.
"""

from __future__ import annotations

import json
import re
import select
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.obs.export import OPENMETRICS_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE
from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import (
    Exemplar,
    counter,
    describe,
    gauge,
    get_registry,
    histogram,
)
from repro.obs.propagation import (
    TRACEPARENT_HEADER,
    TRACESTATE_HEADER,
    TraceContext,
    parse_traceparent,
    parse_tracestate,
    render_tracestate,
    use_trace_context,
)
from repro.obs.query import record_matches
from repro.obs.runtime import RuntimeCollector
from repro.obs.slo import AlertLog, DEFAULT_SLOS, SloEngine, load_slo_specs
from repro.obs.trace import Span, get_tracer, span
from repro.serve.access import AccessLog, SlowRequestStore, new_request_id
from repro.serve.app import ServeApp

__all__ = ["ServeConfig", "UpccServer"]

_log = get_logger("repro.serve")

describe("serve.requests_total", "Requests handled, by endpoint.")
describe("serve.responses_total", "Responses sent, by HTTP status code.")
describe("serve.rejected_total",
         "Requests refused at admission (backpressure, draining) or abandoned at the deadline.")
describe("serve.request_ms",
         "Whole-request latency in milliseconds (body read to socket write), by endpoint.")
describe("serve.stage_ms",
         "Milliseconds per request stage (read, decode, queue, work, log, encode, "
         "write, other), by endpoint; a request's stages sum to its serve.request_ms.")
describe("serve.queue_depth", "Work requests currently waiting for a run slot.")
describe("serve.slow_requests_total",
         "Requests over the --slow-ms threshold whose span tree was captured.")
describe("serve.model_cache_hits", "Model cache lookups served from memory.")
describe("serve.model_cache_misses", "Model cache lookups that had to load and parse XMI.")
describe("runtime.rss_bytes", "Resident set size of the serving process in bytes.")
describe("runtime.threads", "Live Python threads in the serving process.")
describe("runtime.open_fds", "Open file descriptors (absent where unmeasurable).")
describe("runtime.gc_collections", "Garbage collections per GC generation.")
describe("runtime.uptime_s", "Seconds since the runtime collector started.")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (all have serving-friendly defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port from ``UpccServer.port``
    workers: int = 4  #: requests that run their work at once
    queue_size: int = 64  #: requests that may wait for a run slot (more get 503)
    timeout_s: float = 30.0  #: per-request ceiling before the client gets a 504
    drain_timeout_s: float = 10.0
    max_body_bytes: int = 32 * 1024 * 1024
    access_log: str | None = None  #: JSON-lines access-log path (None = ring only)
    slow_ms: float | None = None  #: capture span trees of requests slower than this
    slow_dir: str = "slow-traces"  #: where slow-request captures land
    slow_keep: int = 32  #: bounded on-disk ring size for slow captures
    runtime_interval_s: float = 5.0  #: runtime-gauge sampling period
    access_log_max_bytes: int | None = None  #: rotate the access log past this size
    access_log_keep: int = 3  #: rolled access-log generations kept after rotation
    slo_file: str | None = None  #: JSON SloSpec file (None = DEFAULT_SLOS)
    alert_log: str | None = None  #: JSONL alert-ring path (None = memory only)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("ServeConfig needs workers >= 1")
        if self.queue_size < 1:
            raise ValueError("ServeConfig needs queue_size >= 1")


class _Handler(BaseHTTPRequestHandler):
    """Connection-thread side: routing, framing, admission control."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection (set by the stdlib's
    # StreamRequestHandler.setup): with Nagle on, a small response written
    # behind another unacknowledged segment waits out the client's
    # delayed-ACK timer (~40 ms) on keep-alive connections.
    disable_nagle_algorithm = True
    # Backstop so an idle keep-alive (or dead) client can't pin its
    # connection thread forever -- drain joins these threads.
    timeout = 5
    server_version = "upcc-serve"
    sys_version = ""

    @property
    def upcc(self) -> "UpccServer":
        return self.server.upcc_server  # type: ignore[attr-defined]

    # Route BaseHTTPRequestHandler's stderr chatter through the obs logger.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    #: Set per request (client-provided ``X-Request-Id`` or a fresh one)
    #: and echoed on every response.
    _request_id: str = ""
    #: The caller's W3C trace context (``traceparent``/``tracestate``
    #: headers), or None for untraced requests.  Echoed on the response,
    #: stamped on the access log, the serve.request span and the latency
    #: exemplar, so one trace id follows the request everywhere.
    _trace_context: TraceContext | None = None
    #: perf_counter() at the start of the request (before the body read).
    _started: float = 0.0
    #: Milliseconds per request stage, observed into serve.stage_ms once
    #: the response is written.
    _stages: dict[str, float]

    def _begin_request(self) -> None:
        self._started = time.perf_counter()
        self._stages = {}
        incoming = self.headers.get("X-Request-Id", "").strip()
        self._request_id = incoming[:64] if incoming else new_request_id()
        context = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        if context is not None:
            state = parse_tracestate(self.headers.get(TRACESTATE_HEADER))
            if state:
                context = replace(context, tracestate=state)
        self._trace_context = context

    def _span_attributes(self, endpoint: str) -> dict[str, Any]:
        """The serve.request span's attributes, trace identity included."""
        attributes: dict[str, Any] = {"endpoint": endpoint}
        if self._trace_context is not None:
            attributes["trace_id"] = self._trace_context.trace_id
            attributes["parent_span"] = self._trace_context.parent_id
        return attributes

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._begin_request()
        url = urlsplit(self.path)
        params = {key: values[0] for key, values in parse_qs(url.query).items()}
        if url.path == "/healthz":
            self._respond("healthz", lambda: self.upcc.app.health(self.upcc.draining))
        elif url.path == "/stats":
            self._respond("stats", self.upcc.app.stats)
        elif url.path == "/metrics":
            # Bypasses admission (like /healthz) so scrapes stay
            # responsive while every run slot is busy.  Exemplars are an
            # OpenMetrics-only feature the classic 0.0.4 parser rejects,
            # so they are served only to scrapers that Accept the
            # OpenMetrics content type.
            openmetrics = (
                "application/openmetrics-text" in self.headers.get("Accept", "")
            )
            work_started = time.perf_counter()
            body = get_registry().render_prometheus(openmetrics=openmetrics)
            self._timed("work", work_started)
            self._reply(
                "metrics", 200, body,
                OPENMETRICS_CONTENT_TYPE if openmetrics else PROMETHEUS_CONTENT_TYPE,
            )
        elif url.path == "/slow":
            self._respond("slow", lambda: self.upcc.slow_requests(
                trace_id=params.get("trace_id"),
                request_id=params.get("request_id"),
            ))
        elif url.path == "/alerts":
            self._respond("alerts", self.upcc.alerts)
        elif url.path == "/explain":
            self._respond("explain", lambda: self.upcc.app.explain(params), admit=True)
        else:
            self._not_found(url.path)

    def do_POST(self) -> None:  # noqa: N802
        self._begin_request()
        url = urlsplit(self.path)
        if url.path == "/generate":
            endpoint, handler = "generate", self.upcc.app.generate
        elif url.path == "/validate":
            endpoint, handler = "validate", self.upcc.app.validate
        else:
            self._not_found(url.path)
            return
        try:
            payload = self._read_json()
        except _BadRequest as error:
            # Malformed requests are real traffic: count, log and time
            # them (SLO objectives watch these), so an error burst is
            # visible in the same trails as successes.
            if error.close:
                # The body's framing is unknown: nothing after it on this
                # connection can be parsed as the next request.
                self.close_connection = True
            self._reply(endpoint, error.status, {"error": str(error)})
            return
        self._respond(endpoint, lambda: handler(payload), admit=True)

    def _not_found(self, path: str) -> None:
        # One fixed label: a raw path would give every probe its own series.
        self._reply("unknown", 404, {"error": f"no such endpoint: {self.command} {path}"})

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Answer a fault the stdlib finds before routing (request line,
        version, method, header size) as JSON through :meth:`_reply`, so it
        is counted, logged and timed like every other response.

        A bad request line or an unsupported version is a 400, any method
        but GET and POST a 405 (without a body for HEAD, whose answers
        carry none); the connection closes either way.
        """
        # Headers may not have been read, so _begin_request cannot run.
        self._started = time.perf_counter()
        self._stages = {}
        self._request_id = new_request_id()
        self._trace_context = None
        if not self.command:
            # The request line did not parse: no method or path to log.
            self.command, self.path = "", ""
        if self.request_version == "HTTP/0.9":
            # The version was never read; the answer still needs a status line.
            self.request_version = self.protocol_version
        self.close_connection = True
        headers = None
        if code == 501:
            code, headers = 405, {"Allow": "GET, POST"}
            message = f"method {self.command!r} not allowed"
        elif code == 505:
            code = 400
        error = message or self.responses.get(code, ("error",))[0]
        payload = "" if self.command == "HEAD" else {"error": error}
        self._reply("unknown", int(code), payload, headers=headers)

    # -- plumbing --------------------------------------------------------------

    def _timed(self, stage: str, started: float) -> float:
        """Record ``stage`` as running from ``started`` until now; returns now."""
        now = time.perf_counter()
        self._stages[stage] = (now - started) * 1000.0
        return now

    def _read_json(self) -> Any:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _BadRequest(411, "Content-Length required", close=True)
        # Decimal digits only: int() would also take "-1" (rfile.read(-1)
        # then blocks until the client hangs up), "+5" and " 5 ".
        if not _DECIMAL.fullmatch(length_header):
            raise _BadRequest(
                400, f"invalid Content-Length {length_header[:32]!r}", close=True
            )
        length = int(length_header)
        if length > self.upcc.config.max_body_bytes:
            raise _BadRequest(
                413, f"request body exceeds {self.upcc.config.max_body_bytes} bytes",
                close=True,
            )
        started = time.perf_counter()
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise _BadRequest(
                400, f"request body not received in full within {self.timeout}s",
                close=True,
            ) from None
        started = self._timed("read", started)
        if len(body) < length:
            raise _BadRequest(
                400,
                f"request body is shorter than its Content-Length "
                f"({len(body)} of {length} bytes)",
                close=True,
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(400, f"request body is not valid JSON: {error}") from None
        self._timed("decode", started)
        return payload

    def _respond(
        self, endpoint: str, fn: Callable[[], tuple[int, Any]], admit: bool = False
    ) -> None:
        """Run ``fn`` on this thread under the serve.request span, then reply.

        Work endpoints (``admit``) first take a run slot from the server's
        admission counter; the endpoints that bypass it stay responsive
        while every slot is busy.
        """
        upcc = self.upcc
        with use_trace_context(self._trace_context):
            with span("serve.request", **self._span_attributes(endpoint)) as request_span:
                started = time.perf_counter()
                deadline = started + upcc.config.timeout_s
                refusal = upcc.admit(deadline) if admit else None
                if admit:
                    started = self._timed("queue", started)
                if refusal is not None:
                    status, payload = refusal
                else:
                    try:
                        status, payload = fn()
                    except Exception as error:  # noqa: BLE001 -- answer, don't drop
                        _log.exception("unhandled error serving /%s", endpoint)
                        status, payload = 500, {
                            "error": f"internal error: {error.__class__.__name__}: {error}"
                        }
                    finally:
                        if admit:
                            upcc.release()
                    finished = self._timed("work", started)
                    if admit and finished > deadline:
                        status, payload = upcc.timed_out()
                request_span.set(status=status)
        headers = {"Retry-After": "1"} if status == 503 else None
        self._reply(endpoint, status, payload, headers=headers, request_span=request_span)

    def _reply(
        self,
        endpoint: str,
        status: int,
        payload: dict | str,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
        request_span: Any = None,
    ) -> None:
        """Count, log, encode and send one response, then time the request.

        ``serve.request_ms`` and ``serve.stage_ms`` are observed after the
        socket write, so they cover everything the client waits for.  The
        stages tile the request: whatever no named stage covers (routing,
        counting) is observed as stage ``other``.
        """
        self._count(endpoint, status)
        started = time.perf_counter()
        self._access(status, request_span=request_span)
        started = self._timed("log", started)
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = _encode_json(payload)
        self._timed("encode", started)
        self._send_bytes(status, body, content_type, headers)
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        exemplar = None
        if self._trace_context is not None:
            exemplar = Exemplar(
                self._trace_context.trace_id, self._request_id, elapsed_ms
            )
        histogram("serve.request_ms", endpoint=endpoint).observe(elapsed_ms, exemplar)
        self._stages["other"] = max(0.0, elapsed_ms - sum(self._stages.values()))
        for stage, stage_ms in self._stages.items():
            histogram("serve.stage_ms", endpoint=endpoint, stage=stage).observe(stage_ms)

    def _count(self, endpoint: str, status: int) -> None:
        counter("serve.requests_total", endpoint=endpoint).inc()
        counter("serve.responses_total", code=status).inc()

    def _access(self, status: int, request_span: Any = None) -> None:
        """Write the request's access-log record and, past the slow
        threshold, hand its span tree to the capture store."""
        duration_ms = (time.perf_counter() - self._started) * 1000.0
        real_span = request_span if isinstance(request_span, Span) else None
        trace_id = (
            self._trace_context.trace_id if self._trace_context is not None else ""
        )
        self.upcc.access.log(
            method=self.command,
            path=self.path,
            status=status,
            duration_ms=duration_ms,
            queue_wait_ms=self._stages.get("queue", 0.0),
            request_id=self._request_id,
            span_id=real_span.span_id if real_span is not None else None,
            trace_id=trace_id,
        )
        if real_span is not None:
            self.upcc.maybe_capture_slow(
                real_span, self._request_id, trace_id=trace_id
            )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id:
            self.send_header("X-Request-Id", self._request_id)
        if self._trace_context is not None:
            # Echo the caller's trace identity so the client can confirm
            # the correlation took (and log the id it should query by).
            self.send_header(TRACEPARENT_HEADER, self._trace_context.to_traceparent())
            if self._trace_context.tracestate:
                self.send_header(
                    TRACESTATE_HEADER,
                    render_tracestate(self._trace_context.tracestate),
                )
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.upcc.draining:
            # Nudge keep-alive clients off so drain's thread joins finish.
            self.close_connection = True
        if self.close_connection:
            self.send_header("Connection", "close")
        # Status line, headers and body leave in one write: a body sent as
        # a second small segment would wait for the client to ACK the first.
        head = b""
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            head = b"".join(self._headers_buffer)
            self._headers_buffer = []
        started = time.perf_counter()
        self.wfile.write(head + body)
        self._timed("write", started)


_DECIMAL = re.compile(r"[0-9]+")


def _encode_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


class _BadRequest(Exception):
    """A client fault answered with ``status``; ``close`` when the request's
    framing is broken and the connection cannot carry another request."""

    def __init__(self, status: int, message: str, close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


class _HttpServer(ThreadingHTTPServer):
    # Non-daemon connection threads + block_on_close: server_close() joins
    # them, so drain cannot finish before every response is written.
    daemon_threads = False
    block_on_close = True
    # The default listen(5) backlog rejects bursts that admission is
    # designed to absorb (as 503s); admit the burst, answer it properly.
    request_queue_size = 128
    upcc_server: "UpccServer"


class UpccServer:
    """The long-running daemon: listener + admission counter.

    Lifecycle: ``start()`` binds and spins everything up (``port`` resolves
    the ephemeral port); ``drain()`` performs the graceful shutdown and
    returns whether it completed cleanly within the drain timeout.  Usable
    as a context manager in tests (``with UpccServer(...) as server:``) --
    exit drains.
    """

    def __init__(self, app: ServeApp | None = None, config: ServeConfig | None = None) -> None:
        self.app = app if app is not None else ServeApp()
        self.config = config if config is not None else ServeConfig()
        self.draining = False
        #: Admission state, guarded by ``_admission``: requests running
        #: their work, and the FIFO of requests waiting for a slot.
        self._admission = threading.Condition()
        self._running = 0
        self._waiting: deque[object] = deque()
        self._serve_thread: threading.Thread | None = None
        self._httpd: _HttpServer | None = None
        self._started = False
        self._queue_depth = gauge("serve.queue_depth")
        self._rejected_backpressure = counter("serve.rejected_total", reason="backpressure")
        self._rejected_draining = counter("serve.rejected_total", reason="draining")
        self._rejected_timeout = counter("serve.rejected_total", reason="timeout")
        self._slow_total = counter("serve.slow_requests_total")
        #: Access log: JSON-lines file when configured, always an
        #: in-memory ring that /stats serves as recent_requests.
        self.access = AccessLog(
            self.config.access_log,
            max_bytes=self.config.access_log_max_bytes,
            keep_rolled=self.config.access_log_keep,
        )
        self.slow_store: SlowRequestStore | None = (
            SlowRequestStore(self.config.slow_dir, keep=self.config.slow_keep)
            if self.config.slow_ms is not None
            else None
        )
        #: SLO burn-rate engine: always on (GET /alerts must answer), with
        #: objectives from --slo when given, sensible defaults otherwise.
        specs = (
            load_slo_specs(self.config.slo_file)
            if self.config.slo_file is not None
            else DEFAULT_SLOS
        )
        self.slo_engine = SloEngine(
            specs,
            alert_log=AlertLog(self.config.alert_log),
            sample_interval_s=self.config.runtime_interval_s,
        )
        # The engine rides the runtime sampler's cadence -- one timer
        # thread serves both process gauges and SLO evaluation.
        self._runtime = RuntimeCollector(
            interval_s=self.config.runtime_interval_s,
            hooks=[self.slo_engine.tick],
        )
        self._tracer_enabled_by_us = False
        self.app.server_info = self.info
        self.app.access_recent = self.access.recent

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "UpccServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if self.slow_store is not None and not get_tracer().enabled:
            # Slow capture needs real spans; the module-level span()
            # helper degrades to a shared no-op while tracing is off.
            get_tracer().enabled = True
            self._tracer_enabled_by_us = True
        self._runtime.start()
        self._httpd = _HttpServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.upcc_server = self
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="upcc-serve-listener",
            daemon=True,
        )
        self._serve_thread.start()
        _log.info(
            "serving on http://%s:%d (%d workers, queue %d)",
            self.host, self.port, self.config.workers, self.config.queue_size,
        )
        return self

    def __enter__(self) -> "UpccServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()

    @property
    def host(self) -> str:
        assert self._httpd is not None
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral ``port=0`` after ``start``)."""
        assert self._httpd is not None
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def info(self) -> dict[str, Any]:
        """Admission facts for ``/stats``: ``inflight`` requests run their
        work, ``queue_depth`` requests wait for a slot."""
        with self._admission:
            return {
                "workers": self.config.workers,
                "queue_size": self.config.queue_size,
                "queue_depth": len(self._waiting),
                "inflight": self._running,
                "draining": self.draining,
            }

    def drain(self, timeout_s: float | None = None) -> bool:
        """Gracefully stop: reject new work, finish admitted work, shut down.

        Returns True when no request was running or waiting within the
        timeout (``config.drain_timeout_s`` by default); on False the
        server is still shut down, and the connection threads still
        running work are joined before this returns.
        """
        if not self._started:
            return True
        deadline = time.monotonic() + (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        clean = True
        with self._admission:
            self.draining = True
            while self._running or self._waiting:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    clean = False
                    break
                self._admission.wait(remaining)
        assert self._httpd is not None
        # Empty the TCP accept backlog before closing the listener: a
        # client whose connect() already succeeded must get a real
        # response (a 503 from admission), not a reset.  While the
        # listening socket polls readable there are pending connections;
        # serve_forever is still running and accepts them.
        while time.monotonic() < deadline + 1.0:
            try:
                pending, _, _ = select.select([self._httpd.socket], [], [], 0.05)
            except (OSError, ValueError):  # listener already closed
                break
            if not pending:
                break
            time.sleep(0.02)
        self._httpd.shutdown()
        self._httpd.server_close()  # joins connection threads: responses flushed
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._runtime.stop()
        self.access.close()
        if self._tracer_enabled_by_us:
            get_tracer().enabled = False
            self._tracer_enabled_by_us = False
        _log.info("drained %s", "cleanly" if clean else "with leftovers")
        return clean

    # -- observability ---------------------------------------------------------

    def slow_requests(
        self,
        trace_id: str | None = None,
        request_id: str | None = None,
    ) -> tuple[int, dict]:
        """``GET /slow``: the slow-capture index (404 when capture is off).

        ``trace_id``/``request_id`` narrow the capture list, so an
        exemplar scraped off ``/metrics`` resolves straight to its
        captured span tree.  The response also carries the current
        latency-bucket exemplars for the reverse lookup.
        """
        if self.slow_store is None:
            return 404, {
                "error": "slow-request capture is disabled; start with --slow-ms"
            }
        captures = [
            capture for capture in self.slow_store.list()
            if record_matches(capture, trace_id=trace_id or None, request_id=request_id or None)
        ]
        return 200, {
            "slow_ms": self.config.slow_ms,
            "dir": str(self.slow_store.directory),
            "keep": self.slow_store.keep,
            "captures": captures,
            "exemplars": self.latency_exemplars(),
        }

    def latency_exemplars(self) -> list[dict[str, Any]]:
        """Current ``serve.request_ms`` bucket exemplars, JSON-ready."""
        entries: list[dict[str, Any]] = []
        _, _, histograms = get_registry().instruments()
        for instrument in histograms:
            if instrument.base_name != "serve.request_ms":
                continue
            for bound, exemplar in instrument.bucket_exemplars():
                if exemplar is None:
                    continue
                entry = exemplar.to_dict()
                entry["le"] = "+Inf" if bound == float("inf") else bound
                entry["endpoint"] = str(instrument.labels.get("endpoint", ""))
                entries.append(entry)
        return entries

    def alerts(self) -> tuple[int, dict]:
        """``GET /alerts``: SLO specs, live statuses, recent transitions."""
        return 200, self.slo_engine.to_dict()

    def maybe_capture_slow(
        self, request_span: Span, request_id: str, trace_id: str = ""
    ) -> None:
        """Capture ``request_span``'s tree when it crossed the threshold."""
        if self.slow_store is None or self.config.slow_ms is None:
            return
        if request_span.duration_ms < self.config.slow_ms:
            return
        self._slow_total.inc()
        try:
            self.slow_store.capture(
                request_span,
                request_id=request_id,
                threshold_ms=self.config.slow_ms,
                trace_id=trace_id,
            )
        except OSError as error:
            _log.warning("slow-request capture failed: %s", error)

    # -- work admission --------------------------------------------------------

    def admit(self, deadline: float) -> tuple[int, dict] | None:
        """Take a run slot for one work request; None once it is taken.

        A request runs at once when a slot is free and nobody waits;
        otherwise it joins the FIFO of waiters, and only the head of the
        FIFO may take a freed slot, so a new arrival never overtakes a
        waiter.  Returns the refusal instead: ``503`` while draining or
        when ``queue_size`` requests already wait, ``504`` when
        ``deadline`` (a ``time.perf_counter`` value) passes first.  The
        caller must :meth:`release` a slot it was given.
        """
        workers = self.config.workers
        with self._admission:
            if self.draining:
                self._rejected_draining.inc()
                return 503, {"error": "server is draining"}
            if self._running < workers and not self._waiting:
                self._running += 1
                return None
            if len(self._waiting) >= self.config.queue_size:
                self._rejected_backpressure.inc()
                return 503, {"error": "request queue is full, retry later"}
            ticket = object()
            self._waiting.append(ticket)
            self._queue_depth.set(len(self._waiting))
            while self._waiting[0] is not ticket or self._running >= workers:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self._waiting.remove(ticket)
                    self._queue_depth.set(len(self._waiting))
                    # The next waiter may now head the FIFO (and drain
                    # may be waiting for the FIFO to empty).
                    self._admission.notify_all()
                    return self.timed_out()
                self._admission.wait(remaining)
            self._waiting.popleft()
            self._queue_depth.set(len(self._waiting))
            self._running += 1
            # A second free slot may be waiting for the new head.
            self._admission.notify_all()
            return None

    def release(self) -> None:
        """Give back a run slot taken by :meth:`admit`."""
        with self._admission:
            self._running -= 1
            self._admission.notify_all()

    def timed_out(self) -> tuple[int, dict]:
        """The ``504`` for a request whose deadline passed (counted)."""
        self._rejected_timeout.inc()
        return 504, {"error": f"request timed out after {self.config.timeout_s}s"}
