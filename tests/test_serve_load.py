"""Serve-daemon correctness under load: concurrent validates on warm caches.

Against an in-process :class:`~repro.serve.UpccServer` with the
200-document corpus:

* >=200 *concurrent* validate requests with a >90% warm-cache hit rate
  after warmup,
* request-level output byte-identical to the batch pipeline,
* a consistent ``/metrics`` scrape in the middle of a barrage,
* graceful drain under load with zero dropped responses (the clients
  run in a spawned child process, off the server's GIL).

Serve timing lives in ``perfbench`` (the ``serve_mixed`` workload); this
module asserts only behaviour.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.instances import InstanceGenerator, ValidationPipeline
from repro.obs.metrics import get_registry
from repro.serve import ServeApp, ServeConfig, UpccServer
from repro.serve.loadgen import request_json, run_load
from repro.xmlutil.writer import XmlWriter
from repro.xsdgen import GenerationOptions, SchemaGenerator

from tests.mutate import add_unknown_child

CORPUS_SIZE = 200
ROOT_NAME = "HoardingPermit"
DOCS_PER_REQUEST = 4


@pytest.fixture(scope="module")
def corpus():
    """The schema set plus 200 in-memory messages (a few invalid)."""
    easybiz = build_easybiz_model()
    result = SchemaGenerator(easybiz.model, GenerationOptions()).generate(
        easybiz.doc_library, root=ROOT_NAME
    )
    schema_set = result.schema_set()
    writer = XmlWriter()
    documents = []
    for index in range(CORPUS_SIZE):
        generator = InstanceGenerator(
            schema_set,
            fill_optional=True,
            repeat_unbounded=3 + index % 3,
        )
        document = generator.generate(ROOT_NAME)
        if index % 40 == 39:
            add_unknown_child(document)
        documents.append((f"doc{index:04d}.xml", writer.to_string(document)))
    return result, schema_set, documents


@pytest.fixture(scope="module")
def server(corpus):
    """One warm daemon per module; schemas registered via the wire."""
    result, _schema_set, _documents = corpus
    config = ServeConfig(workers=8, queue_size=256, timeout_s=60, drain_timeout_s=30)
    with UpccServer(ServeApp(), config) as running:
        schemas = {
            f"{item.namespace.folder}/{item.namespace.file_name}": item.to_string()
            for item in result.schemas.values()
        }
        status, registered = request_json(
            running.url,
            "/validate",
            {"schemas": list(schemas.values()), "documents": ["<warmup/>"]},
        )
        assert status == 200, registered
        running.schema_set_id = registered["schema_set"]
        yield running


def _payload(server, documents, offset=0, count=DOCS_PER_REQUEST):
    picked = [documents[(offset + i) % len(documents)] for i in range(count)]
    return {
        "schema_set": server.schema_set_id,
        "documents": [{"name": name, "xml": text} for name, text in picked],
    }


def test_200_concurrent_validates_hit_warm_cache(server, corpus):
    """>=200 in-flight requests; the compiled-plan cache absorbs them all."""
    _result, _schema_set, documents = corpus
    payload = _payload(server, documents)
    registry = get_registry()
    # Warmup: the schema set is registered and compiled; these requests
    # must all be plan-cache hits already.
    warmup = run_load(server.url, "/validate", payload, requests=16, concurrency=8)
    assert warmup.ok == 16
    hits_before = registry.counter("instances.compile_hits").value
    misses_before = registry.counter("instances.compile_misses").value
    outcome = run_load(
        server.url, "/validate", payload, requests=200, concurrency=200,
        timeout_s=120,
    )
    assert outcome.ok == 200, outcome.to_json()
    assert outcome.dropped == 0
    assert outcome.failed == 0
    hits = registry.counter("instances.compile_hits").value - hits_before
    misses = registry.counter("instances.compile_misses").value - misses_before
    assert hits > 0
    hit_rate = hits / (hits + misses)
    assert hit_rate > 0.90, f"warm hit rate {hit_rate:.2%} (hits={hits} misses={misses})"


def test_served_report_byte_identical_to_pipeline(server, corpus):
    """One request over the whole corpus == the batch pipeline's report."""
    _result, schema_set, documents = corpus
    status, served = request_json(
        server.url,
        "/validate",
        {
            "schema_set": server.schema_set_id,
            "documents": [{"name": name, "xml": text} for name, text in documents],
        },
    )
    assert status == 200
    served.pop("schema_set")
    pipeline = ValidationPipeline(schema_set)
    local = pipeline.run_strings(documents).to_json()
    assert json.dumps(served, sort_keys=True) == json.dumps(local, sort_keys=True)
    assert served["docs_total"] == CORPUS_SIZE
    assert served["docs_invalid"] == CORPUS_SIZE // 40


def test_metrics_scrape_under_load_is_consistent(server, corpus):
    """A /metrics scrape during a barrage parses and is internally sane."""
    from repro.obs.export import parse_prometheus_text
    from repro.serve.loadgen import request_text

    _result, _schema_set, documents = corpus
    payload = _payload(server, documents)
    scraped: list[str] = []

    def scrape_mid_load():
        time.sleep(0.05)
        status, text = request_text(server.url, "/metrics")
        assert status == 200
        scraped.append(text)

    scraper = threading.Thread(target=scrape_mid_load)
    scraper.start()
    outcome = run_load(server.url, "/validate", payload, requests=50, concurrency=8)
    scraper.join()
    assert outcome.ok == 50
    families = parse_prometheus_text(scraped[0])  # raises on malformed payload
    buckets = families["serve_request_ms"].buckets()
    counts = [count for _, count in buckets]
    assert counts == sorted(counts), "bucket series must stay cumulative mid-load"


def _drain_clients(host, port, body, clients, connected, go, results):
    """Child-process side of the drain test: ``clients`` connections.

    Connects them all, sets ``connected``, waits for ``go``, then sends
    every request at once and puts the list of statuses on ``results``.
    Running here rather than in the server's process keeps the clients
    off the server's GIL, so the test measures the server.
    """
    import http.client

    # Every client connects BEFORE the drain starts: the zero-drop
    # contract covers connected clients; a connect() attempted after the
    # listener closes is an ordinary refusal, not a drop.
    barrier = threading.Barrier(clients + 1)
    outcomes = []
    lock = threading.Lock()

    def fire():
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.connect()
            barrier.wait()  # all connected
            barrier.wait()  # go
            connection.request(
                "POST", "/validate", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            status = response.status
        except OSError:
            status = -1  # dropped: connection died without a response
        finally:
            connection.close()
        with lock:
            outcomes.append(status)

    threads = [threading.Thread(target=fire) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    connected.set()
    go.wait()
    barrier.wait()
    for thread in threads:
        thread.join()
    results.put(outcomes)


def test_graceful_drain_under_load_zero_dropped(corpus):
    """Drain mid-barrage: every connected client gets a real response."""
    result, _schema_set, documents = corpus
    config = ServeConfig(workers=4, queue_size=128, timeout_s=30, drain_timeout_s=30)
    server = UpccServer(ServeApp(), config).start()
    schemas = [item.to_string() for item in result.schemas.values()]
    status, registered = request_json(
        server.url, "/validate", {"schemas": schemas, "documents": ["<warmup/>"]}
    )
    assert status == 200
    payload = {
        "schema_set": registered["schema_set"],
        "documents": [{"name": name, "xml": text} for name, text in documents[:4]],
    }
    body = json.dumps(payload).encode("utf-8")
    clients = 64
    context = multiprocessing.get_context("spawn")
    connected, go, results = context.Event(), context.Event(), context.Queue()
    child = context.Process(
        target=_drain_clients,
        args=(server.host, server.port, body, clients, connected, go, results),
    )
    child.start()
    try:
        assert connected.wait(timeout=60), "clients never connected"
        go.set()
        time.sleep(0.1)  # let the in-flight requests reach the queue
        assert server.drain() is True
        outcomes = results.get(timeout=120)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert len(outcomes) == clients
    assert -1 not in outcomes, "a connected client was dropped during drain"
    assert set(outcomes) <= {200, 503}
    assert outcomes.count(200) >= clients // 2  # admitted work completed, not shed
