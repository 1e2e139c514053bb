"""Tests for the ``upcc serve`` daemon: contracts, warm paths, drain.

The heavy load checks (hundreds of concurrent requests against the
200-document corpus, a drain under load) live in
``tests/test_serve_load.py`` and the boundary fuzzer in
``tests/test_serve_fuzz.py``; this file pins the behavioral contracts:

* endpoint shapes and error codes,
* byte-identity of ``/generate`` and ``/validate`` output with the CLI
  paths (the daemon is a warm transport, never a different pipeline),
* warm-cache reuse across requests,
* backpressure (503 + ``Retry-After``), per-request timeouts (504),
  first-come-first-served admission,
* graceful drain with zero dropped responses,
* the ``serve.*`` metrics.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.instances import InstanceGenerator
from repro.instances.pipeline import ValidationPipeline
from repro.obs.metrics import get_registry
from repro.serve import ServeApp, ServeConfig, UpccServer
from repro.serve.loadgen import LoadResult, request_json, run_load
from repro.xmi import write_xmi
from repro.xsd.parser import parse_schema
from repro.xsd.validator import SchemaSet


@pytest.fixture(scope="module")
def easybiz_xmi():
    from repro.catalog.easybiz import build_easybiz_model

    catalog = build_easybiz_model()
    return write_xmi(catalog.model.model, None), catalog.doc_library.name


@pytest.fixture()
def server():
    with UpccServer(ServeApp(), ServeConfig(workers=2, queue_size=16, timeout_s=20)) as running:
        yield running


def _generate(server, easybiz_xmi):
    xmi_text, library = easybiz_xmi
    status, payload = request_json(
        server.url,
        "/generate",
        {"xmi": xmi_text, "library": library, "root": "HoardingPermit"},
    )
    assert status == 200, payload
    return payload


def _raw_request(server, method, path, payload=None):
    """One request returning (status, headers dict, parsed body)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body,
                          headers={"Content-Type": "application/json"} if body else {})
        response = connection.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read().decode("utf-8")),
        )
    finally:
        connection.close()


class TestEndpointContracts:
    def test_healthz(self, server):
        assert request_json(server.url, "/healthz") == (200, {"status": "ok"})

    def test_unknown_path_404(self, server):
        status, payload = request_json(server.url, "/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_generate_returns_bundle_and_id(self, server, easybiz_xmi):
        payload = _generate(server, easybiz_xmi)
        assert payload["schema_set"]
        assert payload["root"] == "HoardingPermit"
        assert len(payload["schemas"]) >= 3
        assert all(text.startswith("<?xml") for text in payload["schemas"].values())

    def test_generate_rejects_missing_fields(self, server):
        status, payload = request_json(server.url, "/generate", {"xmi": "<x/>"})
        assert status == 400
        assert "library" in payload["error"]

    def test_generate_rejects_bad_model(self, server):
        status, payload = request_json(
            server.url, "/generate", {"xmi": "<notxmi/>", "library": "X"}
        )
        assert status == 400

    def test_generate_rejects_malformed_xmi_with_a_located_400(self, server):
        truncated = Path(__file__).parent / "corpus" / "malformed" / "truncated.xmi"
        status, payload = request_json(
            server.url,
            "/generate",
            {"xmi": truncated.read_text(encoding="utf-8"), "library": "X"},
        )
        assert status == 400
        assert payload == {"error": "not well-formed XML: unclosed token", "line": 6, "column": 9}

    def test_non_json_body_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("POST", "/generate", body=b"{oops",
                              headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_validate_against_registered_set(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        instance = self._instance(generated)
        status, report = request_json(
            server.url,
            "/validate",
            {"schema_set": generated["schema_set"],
             "documents": [{"name": "permit.xml", "xml": instance}]},
        )
        assert status == 200, report
        assert report["docs_total"] == 1
        assert report["docs_invalid"] == 0
        assert report["documents"][0]["path"] == "permit.xml"

    def test_validate_flags_invalid_document(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        status, report = request_json(
            server.url,
            "/validate",
            {"schema_set": generated["schema_set"],
             "documents": ["<WrongRoot xmlns='urn:nope'/>"]},
        )
        assert status == 200
        assert report["docs_invalid"] == 1
        assert report["documents"][0]["problems"]

    def test_validate_ignores_a_leftover_engine_field(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        payload = {
            "schema_set": generated["schema_set"],
            "documents": [self._instance(generated), "<WrongRoot xmlns='urn:nope'/>"],
        }

        def raw_validate(body):
            connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                connection.request("POST", "/validate", body=json.dumps(body).encode("utf-8"),
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                return response.status, response.read()
            finally:
                connection.close()

        plain = raw_validate(payload)
        leftover = raw_validate({**payload, "engine": "interpreted"})
        assert plain[0] == 200
        assert leftover == plain

    def test_validate_deeply_nested_document_is_a_report_entry(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        deep = "<a>" * 5000 + "</a>" * 5000
        status, report = request_json(
            server.url,
            "/validate",
            {"schema_set": generated["schema_set"],
             "documents": [{"name": "deep.xml", "xml": deep},
                           {"name": "permit.xml", "xml": self._instance(generated)}]},
        )
        assert status == 200, report
        deep_entry, permit_entry = report["documents"]
        assert deep_entry["path"] == "deep.xml"
        assert "nests too deeply" in deep_entry["error"]
        assert permit_entry == {"path": "permit.xml", "ok": True, "problems": []}

    def test_validate_unknown_set_404(self, server):
        status, payload = request_json(
            server.url, "/validate", {"schema_set": "deadbeef", "documents": ["<a/>"]}
        )
        assert status == 404
        assert "unknown schema set" in payload["error"]

    def test_validate_inline_schemas(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        instance = self._instance(generated)
        status, report = request_json(
            server.url,
            "/validate",
            {"schemas": list(generated["schemas"].values()),
             "documents": [instance]},
        )
        assert status == 200, report
        assert report["docs_invalid"] == 0
        # Inline schemas fingerprint to the same registry id as /generate:
        # the compiled plans are shared, and the id is advertised back.
        assert report["schema_set"] == generated["schema_set"]

    def test_explain_finds_provenance(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        status, payload = request_json(
            server.url,
            f"/explain?schema_set={generated['schema_set']}&target=HoardingPermitType",
            method="GET",
        )
        assert status == 200
        assert payload["matched"] >= 1
        record = payload["records"][0]
        assert record["rule_text"]
        assert "HoardingPermitType" in record["describe"]

    def test_explain_requires_schema_set(self, server):
        status, payload = request_json(server.url, "/explain?target=X", method="GET")
        assert status == 400

    def test_stats_reports_server_and_caches(self, server, easybiz_xmi):
        _generate(server, easybiz_xmi)
        status, payload = request_json(server.url, "/stats")
        assert status == 200
        assert payload["server"]["workers"] == 2
        assert payload["server"]["draining"] is False
        assert payload["caches"]["models"] >= 1
        assert "serve.queue_depth" in payload["metrics"]

    @staticmethod
    def _instance(generated):
        from repro.xsd.parser import parse_schema
        from repro.xsd.validator import SchemaSet

        schema_set = SchemaSet(
            [parse_schema(text) for text in generated["schemas"].values()]
        )
        return InstanceGenerator(schema_set).generate_string("HoardingPermit")


class TestCliByteIdentity:
    """The daemon must be a warm transport over the CLI pipeline, not a fork."""

    def test_generate_matches_schemagenerator_output(self, server, easybiz_xmi, easybiz_result):
        generated = _generate(server, easybiz_xmi)
        expected = {
            f"{item.namespace.folder}/{item.namespace.file_name}": item.to_string()
            for item in easybiz_result.schemas.values()
        }
        assert generated["schemas"] == expected

    def test_validate_matches_pipeline_report(self, server, easybiz_xmi, easybiz_schema_set, tmp_path):
        generated = _generate(server, easybiz_xmi)
        instance = TestEndpointContracts._instance(generated)
        documents = [("a.xml", instance), ("b.xml", "<Broken xmlns='urn:no'/>")]
        status, served = request_json(
            server.url,
            "/validate",
            {"schema_set": generated["schema_set"],
             "documents": [{"name": name, "xml": text} for name, text in documents]},
        )
        assert status == 200
        served.pop("schema_set")
        # The CLI path: a corpus on disk through ValidationPipeline.run.
        for name, text in documents:
            (tmp_path / name).write_text(text, encoding="utf-8")
        local = ValidationPipeline(easybiz_schema_set).run(tmp_path).to_json()
        for entry in local["documents"]:  # paths differ (disk vs wire labels)
            entry["path"] = entry["path"].rsplit("/", 1)[-1]
        assert json.dumps(served, indent=2) == json.dumps(local, indent=2)


class TestWarmPaths:
    def test_repeat_generate_hits_model_cache(self, easybiz_xmi):
        with UpccServer(ServeApp(), ServeConfig(workers=2)) as server:
            before = get_registry().counter("serve.model_cache_hits").value
            _generate(server, easybiz_xmi)
            _generate(server, easybiz_xmi)
            _generate(server, easybiz_xmi)
            hits = get_registry().counter("serve.model_cache_hits").value - before
            assert hits >= 2

    def test_repeat_generate_is_identical(self, server, easybiz_xmi):
        first = _generate(server, easybiz_xmi)
        second = _generate(server, easybiz_xmi)
        assert first == second

    def test_schema_set_survives_for_later_validates(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        instance = TestEndpointContracts._instance(generated)
        for _ in range(3):
            status, report = request_json(
                server.url,
                "/validate",
                {"schema_set": generated["schema_set"], "documents": [instance]},
            )
            assert status == 200
            assert report["docs_invalid"] == 0


class _SlowApp(ServeApp):
    """Every /validate blocks until released -- for queue/timeout tests."""

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self.delay_s = delay_s

    def validate(self, payload):
        time.sleep(self.delay_s)
        return 200, {"slow": True}


class TestBackpressureAndTimeouts:
    def test_queue_overflow_returns_503_with_retry_after(self):
        config = ServeConfig(workers=1, queue_size=1, timeout_s=10)
        with UpccServer(_SlowApp(0.4), config) as server:
            results = []
            lock = threading.Lock()

            def fire():
                outcome = _raw_request(server, "POST", "/validate", {"documents": ["x"]})
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            statuses = sorted(status for status, _, _ in results)
            assert 503 in statuses  # the queue is 1 deep; overflow sheds
            assert 200 in statuses  # admitted work still completes
            rejected = [headers for status, headers, _ in results if status == 503]
            assert all(headers.get("Retry-After") == "1" for headers in rejected)

    def test_slow_request_times_out_504(self):
        config = ServeConfig(workers=1, queue_size=4, timeout_s=0.1)
        with UpccServer(_SlowApp(2.0), config) as server:
            status, _headers, payload = _raw_request(
                server, "POST", "/validate", {"documents": ["x"]}
            )
            assert status == 504
            assert "timed out" in payload["error"]


class _RecordingApp(ServeApp):
    """Every /validate sleeps ``delay_s`` and records its ``n`` on entry."""

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self.delay_s = delay_s
        self.calls: list[int] = []
        self._lock = threading.Lock()

    def validate(self, payload):
        with self._lock:
            self.calls.append(payload.get("n", -1))
        time.sleep(self.delay_s)
        return 200, {"n": payload.get("n", -1)}


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestAdmission:
    """What the admission counter guarantees beyond the 503/504 contracts."""

    def test_waiters_run_in_arrival_order(self):
        config = ServeConfig(workers=1, queue_size=8, timeout_s=20)
        app = _RecordingApp(0.1)
        with UpccServer(app, config) as server:
            statuses = {}

            def fire(n):
                statuses[n] = _raw_request(
                    server, "POST", "/validate", {"documents": ["x"], "n": n}
                )[0]

            threads = []
            for n in range(5):
                thread = threading.Thread(target=fire, args=(n,))
                thread.start()
                threads.append(thread)
                # The next request arrives only once this one ran or waits.
                _wait_for(lambda: len(app.calls) + server.info()["queue_depth"] > n)
            for thread in threads:
                thread.join()
        assert app.calls == [0, 1, 2, 3, 4]
        assert statuses == {n: 200 for n in range(5)}

    def test_waiter_past_its_deadline_gets_504_and_never_runs(self):
        config = ServeConfig(workers=1, queue_size=4, timeout_s=0.3)
        app = _RecordingApp(1.0)
        with UpccServer(app, config) as server:
            running = threading.Thread(
                target=_raw_request, args=(server, "POST", "/validate", {"documents": ["x"]})
            )
            running.start()
            _wait_for(lambda: server.info()["inflight"] == 1)
            started = time.monotonic()
            status, _headers, payload = _raw_request(
                server, "POST", "/validate", {"documents": ["x"], "n": 1}
            )
            elapsed = time.monotonic() - started
            running.join()
        assert status == 504
        assert "timed out" in payload["error"]
        assert 0.25 <= elapsed < 0.8, elapsed  # at its deadline, not the runner's end
        assert app.calls == [-1]  # only the running request's work ever ran

    def test_pipeline_spans_parent_under_serve_request(self, tmp_path, easybiz_xmi):
        generate_trace, validate_trace = "a" * 32, "b" * 32
        config = ServeConfig(
            workers=2, queue_size=16, slow_ms=0.0, slow_dir=str(tmp_path / "slow"),
        )
        xmi_text, library = easybiz_xmi
        with UpccServer(ServeApp(), config) as server:
            status, _, generated = _traced_request(
                server, "POST", "/generate",
                headers={"traceparent": f"00-{generate_trace}-00f067aa0ba902b7-01"},
                body=json.dumps({"xmi": xmi_text, "library": library,
                                 "root": "HoardingPermit"}).encode("utf-8"),
            )
            assert status == 200
            status, _, _ = _traced_request(
                server, "POST", "/validate",
                headers={"traceparent": f"00-{validate_trace}-00f067aa0ba902b7-01"},
                body=json.dumps({
                    "schema_set": generated["schema_set"],
                    "documents": [TestEndpointContracts._instance(generated)],
                }).encode("utf-8"),
            )
            assert status == 200
            for trace_id, child in ((generate_trace, "xsdgen.generate"),
                                    (validate_trace, "instances.batch")):
                spans = _captured_spans(server, tmp_path, trace_id)
                by_id = {record["id"]: record for record in spans}
                [record] = [record for record in spans if record["name"] == child]
                while record["parent_id"] is not None:
                    record = by_id[record["parent_id"]]
                assert record["name"] == "serve.request"
                assert record["attributes"]["trace_id"] == trace_id

    def test_request_cpu_includes_its_work(self, tmp_path, easybiz_xmi):
        config = ServeConfig(
            workers=2, queue_size=16, slow_ms=0.0, slow_dir=str(tmp_path / "slow"),
        )
        with UpccServer(ServeApp(), config) as server:
            generated = _generate(server, easybiz_xmi)
            instance = TestEndpointContracts._instance(generated)
            status, _, _ = _traced_request(
                server, "POST", "/validate",
                headers={"traceparent": TRACEPARENT},
                body=json.dumps({
                    "schema_set": generated["schema_set"],
                    "documents": [instance] * 20,
                }).encode("utf-8"),
            )
            assert status == 200
            spans = _captured_spans(server, tmp_path, TRACE_ID)
        [root] = [record for record in spans if record["parent_id"] is None]
        [batch] = [record for record in spans if record["name"] == "instances.batch"]
        assert root["name"] == "serve.request"
        assert batch["cpu_ms"] > 0.0
        assert root["cpu_ms"] >= batch["cpu_ms"], (root, batch)


    def test_counter_holds_under_contention(self):
        import sys

        config = ServeConfig(workers=3, queue_size=4, timeout_s=5)
        server = UpccServer(ServeApp(), config)  # admission needs no listener
        lock = threading.Lock()
        running, peak, outcomes = [0], [0], []

        def client():
            for _ in range(40):
                refusal = server.admit(time.perf_counter() + config.timeout_s)
                if refusal is None:
                    with lock:
                        running[0] += 1
                        peak[0] = max(peak[0], running[0])
                    time.sleep(0)
                    with lock:
                        running[0] -= 1
                    server.release()
                with lock:
                    outcomes.append(200 if refusal is None else refusal[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 12 * 40
        assert set(outcomes) <= {200, 503}
        assert 1 <= peak[0] <= config.workers
        info = server.info()
        assert (info["inflight"], info["queue_depth"]) == (0, 0), info


def _captured_spans(server, tmp_path, trace_id):
    """The span records of the one slow capture of ``trace_id``."""
    status, listing = request_json(server.url, f"/slow?trace_id={trace_id}")
    assert status == 200
    [capture] = listing["captures"]
    path = tmp_path / "slow" / capture["jsonl"]
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_rejects_new(self):
        config = ServeConfig(workers=2, queue_size=16, timeout_s=10, drain_timeout_s=10)
        server = UpccServer(_SlowApp(0.3), config).start()
        outcomes = []
        lock = threading.Lock()

        def fire():
            try:
                status, _, _ = _raw_request(server, "POST", "/validate", {"documents": ["x"]})
            except OSError:
                status = -1  # a dropped response -- must never happen
            with lock:
                outcomes.append(status)

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let the requests reach the queue
        assert server.drain() is True
        for thread in threads:
            thread.join()
        # Zero dropped responses: everything admitted finished with 200,
        # everything arriving during the drain got an explicit 503.
        assert -1 not in outcomes
        assert outcomes.count(200) >= 2
        assert set(outcomes) <= {200, 503}

    def test_healthz_reports_draining(self):
        server = UpccServer(_SlowApp(0.5), ServeConfig(workers=1)).start()
        started = threading.Thread(
            target=lambda: _raw_request(server, "POST", "/validate", {"documents": ["x"]})
        )
        started.start()
        time.sleep(0.1)
        drainer = threading.Thread(target=server.drain)
        drainer.start()
        time.sleep(0.1)
        status, payload = request_json(server.url, "/healthz")
        assert (status, payload) == (503, {"status": "draining"})
        started.join()
        drainer.join()

    def test_double_drain_is_safe(self, server):
        # The fixture's context exit drains a second time afterwards.
        assert server.drain() is True


class TestMetrics:
    def test_request_metrics_emitted(self, server, easybiz_xmi):
        _generate(server, easybiz_xmi)
        request_json(server.url, "/healthz")
        snapshot = get_registry().snapshot()
        assert snapshot["serve.requests_total{endpoint=generate}"] >= 1
        assert snapshot["serve.requests_total{endpoint=healthz}"] >= 1
        assert snapshot["serve.request_ms{endpoint=generate}"]["count"] >= 1
        assert "serve.queue_depth" in snapshot


class TestLoadGenerator:
    def test_run_load_counts_and_percentiles(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        instance = TestEndpointContracts._instance(generated)
        payload = {"schema_set": generated["schema_set"], "documents": [instance]}
        result = run_load(
            server.url, "/validate", payload, requests=20, concurrency=4
        )
        assert result.ok == 20
        assert result.dropped == 0
        assert result.failed == 0
        assert len(result.latencies_ms) == 20
        assert result.percentile(50) <= result.percentile(99)
        assert result.to_json()["rps"] > 0

    def test_percentile_of_empty_result(self):
        empty = LoadResult(0, 0, 0, 0, 0, 0.0)
        assert empty.percentile(99) == 0.0

    def test_scrape_server_quantiles(self, server, easybiz_xmi):
        from repro.serve.loadgen import scrape_server_quantiles

        generated = _generate(server, easybiz_xmi)
        instance = TestEndpointContracts._instance(generated)
        payload = {"schema_set": generated["schema_set"], "documents": [instance]}
        run_load(server.url, "/validate", payload, requests=10, concurrency=2)
        quantiles = scrape_server_quantiles(
            server.url, labels={"endpoint": "validate"}
        )
        assert quantiles is not None
        assert 0.0 < quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]


class TestMetricsEndpoint:
    def test_metrics_returns_valid_exposition(self, server, easybiz_xmi):
        from repro.obs.export import parse_prometheus_text
        from repro.serve.loadgen import request_text

        _generate(server, easybiz_xmi)
        status, text = request_text(server.url, "/metrics")
        assert status == 200
        families = parse_prometheus_text(text)  # raises on malformed payload
        assert families["serve_requests_total"].type == "counter"
        assert families["serve_request_ms"].type == "histogram"
        assert families["runtime_rss_bytes"].type == "gauge"
        buckets = families["serve_request_ms"].buckets()
        assert buckets[-1][1] >= 1

    def test_metrics_content_type(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]
        finally:
            connection.close()


class TestRequestIds:
    def test_every_response_carries_a_request_id(self, server):
        status, headers, _body = _raw_request(server, "GET", "/healthz")
        assert status == 200
        assert len(headers["X-Request-Id"]) == 12

    def test_client_supplied_id_is_echoed(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/healthz", headers={"X-Request-Id": "trace-me-42"})
            response = connection.getresponse()
            response.read()
            assert response.headers["X-Request-Id"] == "trace-me-42"
        finally:
            connection.close()

    def test_ids_differ_across_requests(self, server):
        _status, first, _ = _raw_request(server, "GET", "/healthz")
        _status, second, _ = _raw_request(server, "GET", "/healthz")
        assert first["X-Request-Id"] != second["X-Request-Id"]


class TestAccessLogWiring:
    def test_stats_surfaces_recent_requests(self, server):
        request_json(server.url, "/healthz")
        status, stats = request_json(server.url, "/stats")
        assert status == 200
        recent = stats["recent_requests"]
        assert recent, "access ring should not be empty"
        record = recent[0]
        assert {"method", "path", "status", "duration_ms", "queue_wait_ms",
                "request_id", "span_id"} <= set(record)
        assert "worker" not in record
        assert any(item["path"] == "/healthz" for item in recent)

    def test_access_log_file_records_every_request(self, tmp_path, easybiz_xmi):
        config = ServeConfig(
            workers=2, queue_size=16, timeout_s=20,
            access_log=str(tmp_path / "access.jsonl"),
        )
        with UpccServer(ServeApp(), config) as running:
            _generate(running, easybiz_xmi)
            request_json(running.url, "/healthz")
            lines = (tmp_path / "access.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 2
        by_path = {record["path"]: record for record in records}
        assert "worker" not in by_path["/generate"]
        assert by_path["/generate"]["queue_wait_ms"] >= 0.0
        assert by_path["/healthz"]["queue_wait_ms"] == 0.0

    def test_queued_requests_attribute_queue_wait(self, easybiz_xmi):
        config = ServeConfig(workers=1, queue_size=16, timeout_s=20)
        with UpccServer(ServeApp(), config) as running:
            _generate(running, easybiz_xmi)
            _status, stats = request_json(running.url, "/stats")
        [queued] = [
            record for record in stats["recent_requests"]
            if record["path"] == "/generate"
        ]
        assert queued["queue_wait_ms"] >= 0.0
        assert "worker" not in queued
        assert queued["request_id"]


class TestSlowCapture:
    def test_slow_requests_are_captured_with_bounded_ring(self, tmp_path, easybiz_xmi):
        config = ServeConfig(
            workers=2, queue_size=16, timeout_s=20,
            slow_ms=0.0, slow_dir=str(tmp_path / "slow"), slow_keep=2,
        )
        with UpccServer(ServeApp(), config) as running:
            _generate(running, easybiz_xmi)
            request_json(running.url, "/healthz")
            status, listing = request_json(running.url, "/slow")
            assert status == 200
            assert listing["keep"] == 2
            assert 1 <= len(listing["captures"]) <= 2
            store = running.slow_store
        # After drain no more captures happen; the store's final index
        # matches the files on disk (a /slow listing itself gets captured
        # with slow_ms=0, so in-flight listings can reference evicted files).
        captures = store.list()
        assert 1 <= len(captures) <= 2
        for entry in captures:
            assert (tmp_path / "slow" / entry["jsonl"]).exists()
            assert (tmp_path / "slow" / entry["trace"]).exists()
        trace = json.loads((tmp_path / "slow" / captures[-1]["trace"]).read_text())
        assert trace["traceEvents"], "span tree should not be empty"
        # On-disk ring bounded: at most keep * 2 files.
        assert len(list((tmp_path / "slow").iterdir())) <= 4
        snapshot = get_registry().snapshot()
        assert snapshot["serve.slow_requests_total"] >= 1

    def test_fast_requests_are_not_captured(self, tmp_path, easybiz_xmi):
        config = ServeConfig(
            workers=2, queue_size=16, timeout_s=20,
            slow_ms=60_000.0, slow_dir=str(tmp_path / "slow"),
        )
        with UpccServer(ServeApp(), config) as running:
            request_json(running.url, "/healthz")
            status, listing = request_json(running.url, "/slow")
        assert status == 200
        assert listing["captures"] == []

    def test_slow_endpoint_404_when_disabled(self, server):
        status, payload = request_json(server.url, "/slow")
        assert status == 404
        assert "--slow-ms" in payload["error"]

    def test_capture_restores_tracer_state_after_drain(self, tmp_path):
        from repro.obs.trace import get_tracer

        assert not get_tracer().enabled
        config = ServeConfig(
            workers=1, queue_size=4, slow_ms=1000.0, slow_dir=str(tmp_path / "slow")
        )
        with UpccServer(ServeApp(), config):
            assert get_tracer().enabled
        assert not get_tracer().enabled


class TestTopDashboard:
    def test_top_once_renders_a_snapshot(self, server, capsys):
        from repro.serve import top as top_mod

        request_json(server.url, "/healthz")
        rc = top_mod.main(["--url", server.url, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "upcc top" in out
        assert "req/s" in out
        assert "p99=" in out
        assert "/healthz" in out
        assert "\x1b[" not in out  # --once never clears the screen

    def test_top_json_snapshot_shape(self, server, capsys):
        from repro.serve import top as top_mod

        rc = top_mod.main(["--url", server.url, "--once", "--json"])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert {"requests_total", "latency_ms", "queue_depth", "runtime",
                "caches", "recent_requests"} <= set(snapshot)

    def test_top_fails_cleanly_when_server_is_gone(self, capsys):
        from repro.serve import top as top_mod

        rc = top_mod.main(["--url", "http://127.0.0.1:9", "--once"])
        assert rc == 1
        assert "cannot poll" in capsys.readouterr().err

    def test_cli_top_subcommand_wires_through(self, server, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["top", "--url", server.url, "--once"])
        assert rc == 0
        assert "upcc top" in capsys.readouterr().out

    def test_cli_top_takes_every_top_option(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main([
            "top", "--url", "http://127.0.0.1:9", "--once", "--max-poll-failures", "1",
        ])
        assert rc == 1
        assert "cannot poll" in capsys.readouterr().err


def _traced_request(server, method, path, headers=None, body=None):
    """One request with arbitrary headers; returns (status, headers, body)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read().decode("utf-8")
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            parsed = raw
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"
TRACEPARENT = f"00-{TRACE_ID}-00f067aa0ba902b7-01"


class TestTracePropagation:
    def test_response_echoes_traceparent(self, server):
        status, headers, _ = _traced_request(
            server, "GET", "/healthz", headers={"traceparent": TRACEPARENT}
        )
        assert status == 200
        assert headers.get("traceparent") == TRACEPARENT

    def test_tracestate_is_echoed_too(self, server):
        status, headers, _ = _traced_request(
            server, "GET", "/healthz",
            headers={"traceparent": TRACEPARENT, "tracestate": "rojo=1,congo=2"},
        )
        assert status == 200
        assert headers.get("tracestate") == "rojo=1,congo=2"

    def test_untraced_requests_get_no_traceparent_header(self, server):
        _, headers, _ = _traced_request(server, "GET", "/healthz")
        assert "traceparent" not in headers

    def test_malformed_traceparent_is_ignored(self, server):
        status, headers, _ = _traced_request(
            server, "GET", "/healthz", headers={"traceparent": "garbage"}
        )
        assert status == 200
        assert "traceparent" not in headers

    def test_trace_id_lands_in_access_log_record(self, server):
        _traced_request(server, "GET", "/healthz",
                        headers={"traceparent": TRACEPARENT})
        records = [r for r in server.access.recent() if r["trace_id"] == TRACE_ID]
        assert records, server.access.recent()
        assert records[-1]["path"] == "/healthz"

    def test_trace_id_lands_on_latency_exemplar(self, server, easybiz_xmi):
        xmi_text, library = easybiz_xmi
        body = json.dumps({
            "xmi": xmi_text, "library": library, "root": "HoardingPermit",
        }).encode("utf-8")
        status, _, _ = _traced_request(
            server, "POST", "/generate",
            headers={"traceparent": TRACEPARENT,
                     "Content-Type": "application/json"},
            body=body,
        )
        assert status == 200
        import urllib.request

        from repro.obs.export import OPENMETRICS_CONTENT_TYPE, parse_prometheus_text

        # Exemplars are OpenMetrics-only; the scraper must ask for them.
        request = urllib.request.Request(
            f"{server.url}/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        # serve.request_ms is observed just after the response is written,
        # so the client can read the response before the observation lands.
        deadline = time.monotonic() + 5.0
        while True:
            with urllib.request.urlopen(request) as response:
                assert response.headers.get("Content-Type") == OPENMETRICS_CONTENT_TYPE
                text = response.read().decode("utf-8")
            assert text.endswith("# EOF\n")
            families = parse_prometheus_text(text)
            exemplars = families["serve_request_ms"].exemplars
            traced = [
                e for e in exemplars
                if e[2].get("trace_id") == TRACE_ID
                and e[1].get("endpoint") == "generate"
            ]
            if traced or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert traced, exemplars
        name, labels, exemplar_labels, value, ts = traced[-1]
        # The exemplar's value sits within its bucket's le bound:
        le = labels["le"]
        assert le == "+Inf" or value <= float(le)
        assert len(exemplar_labels["request_id"]) >= 12

    def test_plain_scrape_stays_classic_prometheus(self, server):
        # A stock Prometheus scraper (no OpenMetrics Accept header) must
        # get a classic 0.0.4 payload: its parser fails the whole scrape
        # on the '#' of an inline exemplar.
        _traced_request(server, "GET", "/healthz",
                        headers={"traceparent": TRACEPARENT})
        import urllib.request

        from repro.obs.export import PROMETHEUS_CONTENT_TYPE, parse_prometheus_text

        with urllib.request.urlopen(f"{server.url}/metrics") as response:
            assert response.headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        assert " # {" not in text
        assert "# EOF" not in text
        families = parse_prometheus_text(text)
        assert all(family.exemplars == [] for family in families.values())

    def test_responses_total_counts_by_status_code(self, server):
        request_json(server.url, "/healthz")
        snapshot = get_registry().snapshot()
        assert snapshot["serve.responses_total{code=200}"] >= 1


class TestSlowCaptureTracing:
    def test_slow_capture_carries_trace_id_and_slow_filter_finds_it(self, tmp_path):
        config = ServeConfig(
            workers=2, queue_size=16, slow_ms=0.0,
            slow_dir=str(tmp_path / "slow"),
        )
        with UpccServer(ServeApp(), config) as server:
            status, _, _ = _traced_request(
                server, "GET", "/healthz", headers={"traceparent": TRACEPARENT}
            )
            assert status == 200
            status, payload = request_json(server.url, f"/slow?trace_id={TRACE_ID}")
            assert status == 200
            assert payload["captures"], payload
            assert all(c["trace_id"] == TRACE_ID for c in payload["captures"])
            # The captured span tree records the W3C identity on its root:
            jsonl = tmp_path / "slow" / payload["captures"][-1]["jsonl"]
            spans = [json.loads(line) for line in jsonl.read_text().splitlines()]
            roots = [s for s in spans if s["parent_id"] is None]
            assert roots[0]["attributes"]["trace_id"] == TRACE_ID
            assert roots[0]["attributes"]["parent_span"] == "00f067aa0ba902b7"
            # A bogus filter matches nothing:
            status, payload = request_json(server.url, "/slow?trace_id=" + "f" * 32)
            assert payload["captures"] == []

    def test_slow_payload_surfaces_exemplars(self, tmp_path):
        config = ServeConfig(
            workers=2, queue_size=16, slow_ms=0.0,
            slow_dir=str(tmp_path / "slow"),
        )
        with UpccServer(ServeApp(), config) as server:
            _traced_request(server, "GET", "/healthz",
                            headers={"traceparent": TRACEPARENT})
            status, payload = request_json(server.url, "/slow")
            assert status == 200
            traced = [e for e in payload["exemplars"] if e["trace_id"] == TRACE_ID]
            assert traced, payload["exemplars"]
            assert any(e["endpoint"] == "healthz" for e in traced)


class TestAlertsEndpoint:
    def test_alerts_endpoint_reports_default_slos(self, server):
        status, payload = request_json(server.url, "/alerts")
        assert status == 200
        assert {spec["name"] for spec in payload["slos"]} == {
            "availability-5xx", "latency-p99-1s",
        }
        assert isinstance(payload["alerts"], list)

    def test_error_burst_fires_and_steady_traffic_resolves(self, tmp_path):
        slo_file = tmp_path / "slo.json"
        slo_file.write_text(json.dumps({"slos": [{
            "name": "avail-4xx", "objective": 0.9, "kind": "availability",
            "error_classes": ["4xx"], "fast_window_s": 0.4,
            "slow_window_s": 1.2, "burn_threshold": 1.0,
        }]}))
        alert_log = tmp_path / "alerts.jsonl"
        config = ServeConfig(
            workers=2, queue_size=16, runtime_interval_s=0.1,
            slo_file=str(slo_file), alert_log=str(alert_log),
        )
        with UpccServer(ServeApp(), config) as server:
            # Error burst: malformed JSON bodies are 400s (the injected
            # error class the spec above counts against the budget).
            for _ in range(10):
                status, _, _ = _traced_request(
                    server, "POST", "/validate",
                    headers={"Content-Type": "application/json",
                             "Content-Length": "9"},
                    body=b"{not json",
                )
                assert status == 400
            deadline = time.monotonic() + 5.0
            fired = None
            while time.monotonic() < deadline:
                status, payload = request_json(server.url, "/alerts")
                statuses = {s["name"]: s for s in payload["statuses"]}
                if statuses.get("avail-4xx", {}).get("state") == "firing":
                    fired = statuses["avail-4xx"]
                    break
                time.sleep(0.05)
            assert fired is not None, "SLO never fired within the fast window"
            assert fired["burn_fast"] > 1.0
            assert fired["budget_remaining"] < 1.0
            # Steady healthy traffic ages the burst out of both windows:
            deadline = time.monotonic() + 6.0
            resolved = False
            while time.monotonic() < deadline:
                request_json(server.url, "/healthz")
                status, payload = request_json(server.url, "/alerts")
                statuses = {s["name"]: s for s in payload["statuses"]}
                if statuses.get("avail-4xx", {}).get("state") == "ok":
                    resolved = True
                    break
                time.sleep(0.05)
            assert resolved, "SLO never resolved under steady traffic"
            states = [a["state"] for a in payload["alerts"] if a["slo"] == "avail-4xx"]
            assert states[:2] == ["firing", "resolved"]
        # The alert ring survived on disk:
        lines = [json.loads(l) for l in alert_log.read_text().splitlines()]
        assert [l["state"] for l in lines][:2] == ["firing", "resolved"]


class TestLoadGeneratorTracing:
    def test_loadgen_originates_trace_ids_visible_in_access_log(
        self, server, easybiz_xmi
    ):
        generated = _generate(server, easybiz_xmi)
        instance = InstanceGenerator(
            SchemaSet([parse_schema(t) for t in generated["schemas"].values()])
        ).generate_string("HoardingPermit")
        payload = {"schema_set": generated["schema_set"], "documents": [instance]}
        result = run_load(
            server.url, "/validate", payload, requests=6, concurrency=2
        )
        assert result.ok == 6
        assert len(result.trace_ids) == 6
        assert len(set(result.trace_ids)) == 6  # each request its own trace
        logged = {r["trace_id"] for r in server.access.recent()}
        assert set(result.trace_ids) <= logged

    def test_no_trace_flag_sends_no_traceparent(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        instance = InstanceGenerator(
            SchemaSet([parse_schema(t) for t in generated["schemas"].values()])
        ).generate_string("HoardingPermit")
        payload = {"schema_set": generated["schema_set"], "documents": [instance]}
        result = run_load(
            server.url, "/validate", payload, requests=2, concurrency=1,
            trace=False,
        )
        assert result.ok == 2
        assert result.trace_ids == []

    def test_error_rate_injects_deterministic_400s(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        instance = InstanceGenerator(
            SchemaSet([parse_schema(t) for t in generated["schemas"].values()])
        ).generate_string("HoardingPermit")
        payload = {"schema_set": generated["schema_set"], "documents": [instance]}
        result = run_load(
            server.url, "/validate", payload, requests=8, concurrency=2,
            error_rate=0.25,
        )
        assert result.injected_errors == 2  # indices 0 and 4 of 8
        assert result.failed == result.injected_errors
        assert result.ok == 8 - result.injected_errors
        snapshot = get_registry().snapshot()
        assert snapshot.get("serve.responses_total{code=400}", 0) >= 2


class TestTopResilience:
    def test_top_loop_mode_retries_with_backoff(self, capsys, monkeypatch):
        from repro.serve import top as top_mod

        sleeps = []
        monkeypatch.setattr(top_mod.time, "sleep", sleeps.append)
        rc = top_mod.main([
            "--url", "http://127.0.0.1:9", "--interval", "0.1",
            "--max-poll-failures", "3",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("retrying in") == 2  # two backoffs, then give up
        assert sleeps == [0.1, 0.2]  # exponential
        assert "cannot poll" in err

    def test_top_once_still_fails_fast(self, capsys):
        from repro.serve import top as top_mod

        rc = top_mod.main([
            "--url", "http://127.0.0.1:9", "--once", "--max-poll-failures", "5",
        ])
        assert rc == 1
        assert "retrying" not in capsys.readouterr().err

    def test_top_board_shows_slo_panel(self, server, capsys):
        from repro.serve import top as top_mod

        rc = top_mod.main(["--url", server.url, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slo" in out
        assert "availability-5xx" in out
        assert "burn fast=" in out

    def test_top_json_snapshot_includes_slo(self, server, capsys):
        from repro.serve import top as top_mod

        rc = top_mod.main(["--url", server.url, "--once", "--json"])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        names = {s["name"] for s in snapshot["slo"]["statuses"]}
        assert {"availability-5xx", "latency-p99-1s"} <= names


class TestBadRequestAccessLogging:
    def test_malformed_body_lands_in_access_log(self, server):
        status, _, _ = _traced_request(
            server, "POST", "/validate",
            headers={"Content-Type": "application/json",
                     "traceparent": TRACEPARENT},
            body=b"{not json",
        )
        assert status == 400
        bad = [r for r in server.access.recent() if r["status"] == 400]
        assert bad, server.access.recent()
        assert bad[-1]["path"] == "/validate"
        assert bad[-1]["trace_id"] == TRACE_ID


def _exchange(server, raw: bytes, half_close: bool = False, timeout: float = 3.0):
    """Send raw request bytes; read until the server closes the connection.

    Returns ``(response bytes, seconds until EOF)``.  A server that never
    answers fails the read with ``socket.timeout``.
    """
    import socket

    started = time.monotonic()
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks), time.monotonic() - started


class TestHostileContentLength:
    """Broken body framing gets exactly one 4xx, well inside the handler timeout."""

    @staticmethod
    def _post(length: str, body: bytes = b"{}") -> bytes:
        return (
            f"POST /validate HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii") + body

    @pytest.mark.parametrize("length", ["-1", "+5", "1e3", "0x10", "5 5", ""])
    def test_non_decimal_length_is_400(self, server, length):
        # The write side stays open: a server reading "until EOF" would hang.
        data, elapsed = _exchange(server, self._post(length))
        assert data.count(b"HTTP/1.1 ") == 1, data
        assert data.startswith(b"HTTP/1.1 400 "), data
        assert b"invalid Content-Length" in data
        assert b"Connection: close" in data
        assert elapsed < 2.0

    def test_truncated_body_is_400(self, server):
        data, elapsed = _exchange(
            server, self._post("100", b'{"documents": []}'), half_close=True
        )
        assert data.count(b"HTTP/1.1 ") == 1, data
        assert data.startswith(b"HTTP/1.1 400 "), data
        assert b"shorter than its Content-Length (17 of 100 bytes)" in data
        assert elapsed < 2.0

    def test_missing_length_is_411(self, server):
        data, elapsed = _exchange(
            server,
            b"POST /validate HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert data.count(b"HTTP/1.1 ") == 1, data
        assert data.startswith(b"HTTP/1.1 411 "), data
        assert elapsed < 2.0


class TestTransport:
    """Keep-alive requests must not wait out the client's delayed-ACK timer."""

    def test_accepted_socket_sets_tcp_nodelay(self, server, monkeypatch):
        import socket

        from repro.serve.server import _Handler

        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        assert request_json(server.url, "/healthz")[0] == 200
        assert seen and all(seen), seen

    def test_response_is_one_socket_write(self, server, easybiz_xmi, monkeypatch):
        import socketserver

        writes = []
        write = socketserver._SocketWriter.write

        def recording_write(writer, data):
            writes.append(len(data))
            return write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", recording_write)
        _generate(server, easybiz_xmi)
        assert request_json(server.url, "/healthz")[0] == 200
        assert len(writes) == 2, writes

    def test_keep_alive_requests_do_not_stall(self, server, easybiz_xmi):
        generated = _generate(server, easybiz_xmi)
        body = json.dumps({
            "schema_set": generated["schema_set"],
            "documents": [TestEndpointContracts._instance(generated)],
        }).encode("utf-8")
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        latencies = []
        try:
            for _ in range(25):
                started = time.perf_counter()
                connection.request("POST", "/validate", body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                latencies.append((time.perf_counter() - started) * 1000.0)
                assert response.status == 200
        finally:
            connection.close()
        latencies.sort()
        # The delayed-ACK timer is ~40 ms; a stalled request cannot beat it.
        assert latencies[len(latencies) // 2] < 20.0, latencies


class TestStageTimings:
    def test_stage_times_fit_inside_the_request(self, server, easybiz_xmi):
        from repro.obs.metrics import MetricsRegistry, set_registry

        generated = _generate(server, easybiz_xmi)
        payload = {
            "schema_set": generated["schema_set"],
            "documents": [TestEndpointContracts._instance(generated)],
        }
        expected = {
            f"serve.stage_ms{{endpoint=validate,stage={stage}}}"
            for stage in (
                "read", "decode", "queue", "work", "log", "encode", "write", "other",
            )
        }
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert request_json(server.url, "/validate", payload)[0] == 200
            # Request timings are observed just after the socket write.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                snapshot = registry.snapshot()
                if expected <= set(snapshot):
                    break
                time.sleep(0.01)
        finally:
            set_registry(previous)
        request = snapshot["serve.request_ms{endpoint=validate}"]
        stages = {
            key: value for key, value in snapshot.items()
            if key.startswith("serve.stage_ms{endpoint=validate,")
        }
        assert set(stages) == expected
        assert request["count"] == 1
        assert all(stage["count"] == 1 for stage in stages.values())
        # The snapshot rounds every value to 0.001 ms.
        rounding = 0.0005 * (len(stages) + 1)
        assert sum(stage["p50"] for stage in stages.values()) <= request["p50"] + rounding
        assert sum(stage["sum"] for stage in stages.values()) <= request["sum"] + rounding
        # The stages tile the request: ``other`` names the remainder.
        assert sum(stage["sum"] for stage in stages.values()) == pytest.approx(
            request["sum"], rel=0.05
        )


class TestGenerateWarmPath:
    def test_generate_bodies_identical_across_validation_memo_hits(
        self, server, easybiz_xmi
    ):
        xmi_text, library = easybiz_xmi
        body = json.dumps(
            {"xmi": xmi_text, "library": library, "root": "HoardingPermit"}
        ).encode("utf-8")
        hits = lambda: get_registry().snapshot().get("validation.memo_hits", 0)  # noqa: E731
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            bodies = []
            for _ in range(3):
                connection.request("POST", "/generate", body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                bodies.append(response.read())
                assert response.status == 200
                if len(bodies) == 1:
                    before = hits()
        finally:
            connection.close()
        assert hits() - before == 2
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize("catalog", ["easybiz", "ecommerce"])
    def test_schema_set_id_hashes_the_response_texts(self, catalog):
        from repro.catalog.easybiz import build_easybiz_model
        from repro.catalog.ecommerce import build_ecommerce_model
        from repro.xsd.compiled import fingerprint_schema_set, fingerprint_schema_texts
        from repro.xsdgen import SchemaGenerator

        built = {"easybiz": build_easybiz_model, "ecommerce": build_ecommerce_model}[catalog]()
        root = built.doc_library.root_candidates()[0].name
        result = SchemaGenerator(built.model).generate(built.doc_library, root=root)
        expected = fingerprint_schema_set(result.schema_set())
        texts = [(urn, schema.to_string()) for urn, schema in result.schemas.items()]
        assert fingerprint_schema_texts(texts) == expected
        status, payload = ServeApp().generate({
            "xmi": write_xmi(built.model.model, None),
            "library": built.doc_library.name,
            "root": root,
        })
        assert status == 200, payload
        assert payload["schema_set"] == expected
