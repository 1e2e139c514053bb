"""State-machine fuzzing of the ``upcc serve`` HTTP boundary.

A hypothesis :class:`RuleBasedStateMachine` drives a live
:class:`~repro.serve.UpccServer` (two requests at a time, two waiting)
through interleaved steps: register a schema set (``/generate``),
validate, explain, health checks, unknown paths, broken request lines
(a path with a space, an unsupported HTTP version, a method other than
GET and POST), broken header framing (a field line without a colon or
with whitespace before it, an obs-fold line, conflicting
``Content-Length`` fields, ``Transfer-Encoding`` with or without
``Content-Length``, too many fields, an overlong field line), broken body
framing (missing, negative or non-decimal ``Content-Length``, a short
body, a non-JSON body, an oversized body, a GET with a body), a
truncated XMI, inline schema documents (valid, and truncated),
concurrent bursts that overflow admission, and a final drain with
requests in flight.
After every step it checks:

* every request got exactly one response, and a client fault got a 4xx;
* ``serve.requests_total`` and ``serve.responses_total`` reconcile with
  the access-log ring, code by code;
* every counted request is timed: the ``serve.request_ms`` count equals
  ``serve.requests_total``;
* the ``serve.stage_ms`` sums equal the ``serve.request_ms`` sum within
  5% (the stages tile the request);
* ``/stats`` reports no running and no waiting request once the daemon
  is idle.

Each machine gets a fresh metrics registry and server, so the counts are
absolute.  The example count is kept small for tier-1 (see
``docs/testing.md``); raise ``max_examples`` locally for deep sweeps.
"""

from __future__ import annotations

import functools
import json
import socket
import threading
import time
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.catalog.easybiz import build_easybiz_model
from repro.instances import InstanceGenerator
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve import ServeApp, ServeConfig, UpccServer
from repro.xmi import write_xmi
from repro.xsdgen import SchemaGenerator

MAX_BODY = 512 * 1024
ROOT = "HoardingPermit"
#: An inline schema document /validate accepts, with a document it passes.
INLINE_SCHEMA = (
    '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
    '<xsd:element name="note" type="xsd:string"/></xsd:schema>'
)
INLINE_DOCUMENT = "<note>fuzz</note>"
#: Header faults: (extra field lines, expected status, error prefix).
HEADER_FAULTS = {
    "field-without-colon": (("NoColonHere", "Content-Length: 2"), 400, "malformed header field"),
    "whitespace-before-colon": (("Content-Length : 2",), 400, "malformed header field"),
    "obs-fold": (("X-Note: first", "\tfolded", "Content-Length: 2"), 400,
                 "obsolete line folding"),
    "conflicting-content-length": (("Content-Length: 2", "Content-Length: 20"), 400,
                                   "conflicting Content-Length"),
    "transfer-encoding-and-content-length": (
        ("Transfer-Encoding: chunked", "Content-Length: 2"), 400,
        "Transfer-Encoding together with Content-Length",
    ),
    "transfer-encoding-alone": (("Transfer-Encoding: chunked",), 411,
                                "Content-Length required"),
    "101-fields": (tuple(f"X-F{index}: {index}" for index in range(99)), 431,
                   "Too many headers"),
    "70000-byte-line": (("X-Long: " + "a" * 70_000,), 431, "Line too long"),
}
TRUNCATED_XMI = Path(__file__).parent / "corpus" / "malformed" / "truncated.xmi"
#: Every path a method is routed on; any other answers 404.
ROUTED = {
    "GET": {"/healthz", "/stats", "/metrics", "/slow", "/alerts", "/explain"},
    "POST": {"/generate", "/validate"},
}


@functools.lru_cache(maxsize=None)
def _easybiz() -> tuple[str, str, str]:
    """The EasyBiz XMI, its DOC library name and one valid instance."""
    catalog = build_easybiz_model()
    result = SchemaGenerator(catalog.model).generate(catalog.doc_library, root=ROOT)
    instance = InstanceGenerator(result.schema_set()).generate_string(ROOT)
    return write_xmi(catalog.model.model, None), catalog.doc_library.name, instance


def _request(method: str, path: str, body: bytes = b"",
             headers: tuple[str, ...] = (), version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {path} {version}", "Host: fuzz", "Connection: close", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_post(path: str, payload: object) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _request("POST", path, body, (
        "Content-Type: application/json", f"Content-Length: {len(body)}",
    ))


def _connect(server: UpccServer) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10)


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split raw bytes into complete HTTP responses (fails on leftovers)."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"truncated response head: {data[:200]!r}"
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, f"truncated response body: {data[:200]!r}"
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


def _one_response(data: bytes) -> tuple[int, dict[str, str], bytes]:
    responses = _responses(data)
    assert len(responses) == 1, [status for status, _, _ in responses]
    return responses[0]


class ServeBoundary(RuleBasedStateMachine):
    """One live daemon per example; see the module docstring."""

    def __init__(self) -> None:
        super().__init__()
        self.registry = MetricsRegistry()
        self.previous_registry = set_registry(self.registry)
        config = ServeConfig(
            workers=2, queue_size=2, timeout_s=30, drain_timeout_s=30,
            max_body_bytes=MAX_BODY, runtime_interval_s=60,
        )
        self.server = UpccServer(ServeApp(), config).start()
        self.schema_set: str | None = None
        self.drained = False
        #: Requests the server counts and times (everything these rules send).
        self.counted = 0

    def teardown(self) -> None:
        try:
            if not self.drained:
                assert self.server.drain() is True
        finally:
            set_registry(self.previous_registry)

    # -- transport -------------------------------------------------------------

    def _exchange(self, raw: bytes, *,
                  half_close: bool = False) -> tuple[int, dict[str, str], bytes]:
        with _connect(self.server) as sock:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            data = _read_all(sock)
        self.counted += 1
        return _one_response(data)

    def _client_fault(self, raw: bytes, expected: int, *,
                      half_close: bool = False) -> bytes:
        status, _, body = self._exchange(raw, half_close=half_close)
        assert status == expected, (status, body[:300])
        return body

    def _validate_payload(self, known: bool) -> dict:
        _, _, instance = _easybiz()
        return {
            "schema_set": self.schema_set if known and self.schema_set else "0" * 16,
            "documents": [{"name": "permit.xml", "xml": instance}],
        }

    # -- rules -----------------------------------------------------------------

    @precondition(lambda self: not self.drained)
    @rule()
    def register(self) -> None:
        xmi, library, _ = _easybiz()
        status, _, body = self._exchange(
            _json_post("/generate", {"xmi": xmi, "library": library, "root": ROOT})
        )
        assert status == 200, body[:300]
        self.schema_set = json.loads(body)["schema_set"]

    @precondition(lambda self: not self.drained)
    @rule(known=st.booleans())
    def validate(self, known: bool) -> None:
        status, _, body = self._exchange(
            _json_post("/validate", self._validate_payload(known))
        )
        if known and self.schema_set:
            assert status == 200, body[:300]
            report = json.loads(body)
            assert (report["docs_total"], report["docs_invalid"]) == (1, 0), report
        else:
            assert status == 404, body[:300]

    @precondition(lambda self: not self.drained)
    @rule(construct=st.sampled_from(["HoardingPermitType", "NoSuchConstruct"]))
    def explain(self, construct: str) -> None:
        set_id = self.schema_set or "0" * 16
        status, _, body = self._exchange(
            _request("GET", f"/explain?schema_set={set_id}&target={construct}")
        )
        if self.schema_set:
            assert status == 200, body[:300]
            matched = json.loads(body)["matched"]
            assert (matched >= 1) == (construct == "HoardingPermitType"), matched
        else:
            assert status == 404, body[:300]

    @precondition(lambda self: not self.drained)
    @rule()
    def healthz(self) -> None:
        status, _, body = self._exchange(_request("GET", "/healthz"))
        assert (status, json.loads(body)) == (200, {"status": "ok"})

    @precondition(lambda self: not self.drained)
    @rule()
    def missing_length(self) -> None:
        self._client_fault(_request("POST", "/validate"), 411)

    @precondition(lambda self: not self.drained)
    @rule(length=st.one_of(
        st.integers(max_value=-1).map(str),
        st.sampled_from(["+5", "1e3", "0x10", "5 5", "", "five"]),
    ))
    def bad_length(self, length: str) -> None:
        body = self._client_fault(
            _request("POST", "/validate", headers=(f"Content-Length: {length}",)), 400
        )
        assert b"invalid Content-Length" in body

    @precondition(lambda self: not self.drained)
    @rule(declared=st.integers(min_value=1, max_value=4096), data=st.data())
    def short_body(self, declared: int, data: st.DataObject) -> None:
        sent = data.draw(st.integers(min_value=0, max_value=declared - 1), label="sent")
        body = self._client_fault(
            _request("POST", "/validate", b"x" * sent,
                     (f"Content-Length: {declared}",)),
            400, half_close=True,
        )
        assert b"shorter than its Content-Length" in body

    @precondition(lambda self: not self.drained)
    @rule(path=st.sampled_from(["/validate", "/generate"]),
          body=st.binary(max_size=48))
    def non_json_body(self, path: str, body: bytes) -> None:
        # Bytes that happen to decode to JSON are still no valid request
        # (not an object, or missing its fields): the app answers 400.
        self._client_fault(
            _request("POST", path, body, (f"Content-Length: {len(body)}",)), 400
        )

    @precondition(lambda self: not self.drained)
    @rule(method=st.sampled_from(["GET", "POST"]),
          path=st.from_regex(r"/[a-z0-9_]{0,12}", fullmatch=True))
    def unknown_path(self, method: str, path: str) -> None:
        if path in ROUTED[method]:
            path += "_"
        body = self._client_fault(_request(method, path), 404)
        assert json.loads(body) == {"error": f"no such endpoint: {method} {path}"}

    @precondition(lambda self: not self.drained)
    @rule(path=st.from_regex(r"/[a-z]{0,6} [a-z]{1,6}", fullmatch=True))
    def bad_request_line(self, path: str) -> None:
        body = self._client_fault(_request("GET", path), 400)
        assert json.loads(body)["error"].startswith("Bad request syntax")

    @precondition(lambda self: not self.drained)
    @rule(version=st.sampled_from(["HTTP/9.9", "HTTP/2.0", "HTTP/1", "HTTPS/1.1", "HTTP/1.x"]))
    def bad_version(self, version: str) -> None:
        body = self._client_fault(_request("GET", "/healthz", version=version), 400)
        assert "version" in json.loads(body)["error"]

    @precondition(lambda self: not self.drained)
    @rule(method=st.sampled_from(["BREW", "PUT", "DELETE", "OPTIONS", "PATCH", "HEAD"]))
    def unknown_method(self, method: str) -> None:
        status, headers, body = self._exchange(_request(method, "/validate"))
        assert (status, headers.get("allow")) == (405, "GET, POST"), (status, headers)
        if method == "HEAD":
            assert body == b"", body  # a response to HEAD carries no body
        else:
            assert json.loads(body) == {"error": f"method {method!r} not allowed"}

    @precondition(lambda self: not self.drained)
    @rule()
    def truncated_xmi(self) -> None:
        _, library, _ = _easybiz()
        xmi = TRUNCATED_XMI.read_text(encoding="utf-8")
        body = self._client_fault(
            _json_post("/generate", {"xmi": xmi, "library": library}), 400
        )
        assert json.loads(body)["error"].startswith("not well-formed XML")

    @precondition(lambda self: not self.drained)
    @rule(fault=st.sampled_from(sorted(HEADER_FAULTS)))
    def header_fault(self, fault: str) -> None:
        # _request adds two fields (Host, Connection), so "101-fields"
        # sends 101.  Only the 2-byte body's framing is in doubt.
        fields, status, message = HEADER_FAULTS[fault]
        body = self._client_fault(_request("POST", "/validate", b"{}", fields), status)
        assert json.loads(body)["error"].startswith(message), body[:300]

    @precondition(lambda self: not self.drained)
    @rule(path=st.sampled_from(sorted(ROUTED["GET"])), framing=st.one_of(
        st.integers(min_value=1, max_value=64).map(lambda length: f"Content-Length: {length}"),
        st.sampled_from(["Transfer-Encoding: chunked", "Transfer-Encoding: gzip"]),
    ))
    def get_with_body(self, path: str, framing: str) -> None:
        # The body is never read, so the connection closes after the 400.
        status, headers, body = self._exchange(_request("GET", path, b"x" * 64, (framing,)))
        assert (status, headers.get("connection")) == (400, "close"), (status, headers)
        assert json.loads(body) == {"error": "a GET request carries no body"}

    @precondition(lambda self: not self.drained)
    @rule(cut=st.one_of(st.none(), st.integers(min_value=0, max_value=len(INLINE_SCHEMA) - 1)))
    def inline_schemas(self, cut: int | None) -> None:
        """Inline schema documents: whole ones validate, truncated ones
        (malformed XML) are a client fault."""
        schema = INLINE_SCHEMA if cut is None else INLINE_SCHEMA[:cut]
        status, _, body = self._exchange(_json_post("/validate", {
            "schemas": [schema], "documents": [INLINE_DOCUMENT],
        }))
        if cut is None:
            assert status == 200, body[:300]
            assert json.loads(body)["docs_invalid"] == 0, body[:300]
        else:
            assert status == 400, body[:300]
            assert json.loads(body)["error"].startswith("unparsable schema document"), body[:300]

    @precondition(lambda self: not self.drained)
    @rule(excess=st.integers(min_value=1, max_value=10**12))
    def oversized_body(self, excess: int) -> None:
        # Only the header is sent: the server refuses before reading.
        self._client_fault(
            _request("POST", "/validate",
                     headers=(f"Content-Length: {MAX_BODY + excess}",)),
            413,
        )

    @precondition(lambda self: not self.drained)
    @rule(clients=st.integers(min_value=2, max_value=6))
    def burst(self, clients: int) -> None:
        """Concurrent validates: each is answered once, 200 or 503."""
        statuses = self._concurrent(clients)
        assert set(statuses) <= {200, 503}, statuses

    @precondition(lambda self: not self.drained)
    @rule(inflight=st.integers(min_value=0, max_value=4))
    def drain(self, inflight: int) -> None:
        """Drain while ``inflight`` connected clients send their request."""
        statuses = self._concurrent(inflight, drain=True)
        assert set(statuses) <= {200, 503}, statuses
        self.drained = True

    @precondition(lambda self: self.drained)
    @rule()
    def refused_after_drain(self) -> None:
        try:
            sock = _connect(self.server)
        except OSError:
            return
        with sock:
            assert _read_all(sock) == b"", "a drained daemon answered"

    def _concurrent(self, clients: int, drain: bool = False) -> list[int]:
        """Connect ``clients`` sockets, then send one validate on each (and,
        with ``drain``, drain the server meanwhile); returns the statuses."""
        raw = _json_post("/validate", self._validate_payload(known=True))
        sockets = [_connect(self.server) for _ in range(clients)]
        results: list[bytes] = [b""] * clients

        def fire(index: int) -> None:
            with sockets[index] as sock:
                sock.sendall(raw)
                results[index] = _read_all(sock)

        threads = [threading.Thread(target=fire, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        if drain:
            assert self.server.drain() is True
        for thread in threads:
            thread.join()
        self.counted += clients
        statuses = []
        for data in results:
            status, headers, body = _one_response(data)
            if status == 503:
                assert headers.get("retry-after") == "1", headers
            elif self.schema_set is None:
                assert status == 404, body[:300]
                status = 200  # admitted and answered
            statuses.append(status)
        return statuses

    # -- invariants ------------------------------------------------------------

    @invariant()
    def idle_server_holds_no_slots(self) -> None:
        if self.drained:
            info = self.server.info()
        else:
            status, _, body = self._exchange(_request("GET", "/stats"))
            assert status == 200
            info = json.loads(body)["server"]
        assert (info["inflight"], info["queue_depth"]) == (0, 0), info

    @invariant()
    def counters_reconcile_with_access_log(self) -> None:
        counters, _, _ = self.registry.instruments()
        requests = sum(c.value for c in counters if c.base_name == "serve.requests_total")
        by_code: dict[int, int] = {}
        for instrument in counters:
            if instrument.base_name == "serve.responses_total":
                code = int(instrument.labels["code"])
                by_code[code] = by_code.get(code, 0) + instrument.value
        records = self.server.access.recent()
        logged: dict[int, int] = {}
        for record in records:
            logged[record["status"]] = logged.get(record["status"], 0) + 1
        assert requests == sum(by_code.values()) == len(records) == self.counted
        assert by_code == logged
        assert not any(code >= 500 and code != 503 for code in by_code), by_code

    @invariant()
    def stages_tile_the_request(self) -> None:
        # Latencies are observed just after the socket write, so the last
        # response can reach the client before its observation lands.
        deadline = time.monotonic() + 5.0
        while True:
            _, _, histograms = self.registry.instruments()
            requests = [h for h in histograms if h.base_name == "serve.request_ms"]
            stages = [h for h in histograms if h.base_name == "serve.stage_ms"]
            if sum(h.count for h in requests) >= self.counted or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        counters, _, _ = self.registry.instruments()
        requests_total = sum(
            c.value for c in counters if c.base_name == "serve.requests_total"
        )
        assert sum(h.count for h in requests) == requests_total == self.counted
        request_sum = sum(h.total for h in requests)
        stage_sum = sum(h.total for h in stages)
        assert abs(stage_sum - request_sum) <= 0.05 * request_sum + 1e-6, (
            stage_sum, request_sum,
        )


ServeBoundary.TestCase.settings = settings(
    max_examples=8,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServeBoundary = ServeBoundary.TestCase
