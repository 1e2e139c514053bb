"""Serve-daemon throughput: concurrent validate requests against warm caches.

The ISSUE-8 serving claims, measured against an in-process
:class:`~repro.serve.UpccServer`:

* sustained request throughput and tail latency for ``/validate`` over
  the 200-document corpus (the ``serve_validate`` trajectory arm),
* >=200 *concurrent* validate requests with a >90% warm-cache hit rate
  after warmup,
* graceful drain under load with zero dropped responses,
* request-level output byte-identical to the batch pipeline.

The HTTP hop, queue admission and worker handoff are all inside the
timed region -- this measures the daemon, not the pipeline (the pipeline
arms live in ``bench_instance_throughput.py``).
"""

import json
import threading
import time

import pytest

from repro.instances import InstanceGenerator, ValidationPipeline, add_unknown_child
from repro.obs.metrics import get_registry
from repro.serve import ServeApp, ServeConfig, UpccServer
from repro.serve.loadgen import request_json, run_load
from repro.xmlutil.writer import XmlWriter
from repro.xsdgen import GenerationOptions, SchemaGenerator

CORPUS_SIZE = 200
ROOT_NAME = "HoardingPermit"
DOCS_PER_REQUEST = 4


@pytest.fixture(scope="module")
def corpus(easybiz):
    """The schema set plus 200 in-memory messages (a few invalid)."""
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


def test_serve_validate_throughput(benchmark, server, corpus):
    """The trajectory arm: 100 requests x 4 docs from 16 client threads."""
    _result, _schema_set, documents = corpus
    payload = _payload(server, documents)

    def fire():
        outcome = run_load(
            server.url, "/validate", payload, requests=100, concurrency=16
        )
        assert outcome.ok == 100, outcome.to_json()
        assert outcome.dropped == 0
        return outcome

    outcome = benchmark(fire)
    assert outcome.percentile(99) >= outcome.percentile(50)


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


def test_metric_increments_do_not_contend_across_instruments(benchmark):
    """Per-instrument locks: 8 threads on 8 *different* counters.

    Before ISSUE 9 every instrument shared the registry-wide lock, so
    increments on unrelated counters from different serve workers
    serialized on one mutex.  With per-instrument locks this workload has
    no shared state at all; the benchmark pins that property (and the
    perf gate would flag a regression back to a global lock, which
    roughly doubles this timing on a multi-core box).
    """
    from repro.obs.metrics import MetricsRegistry

    threads_n, increments = 8, 20_000
    registry = MetricsRegistry()
    counters = [
        registry.counter("bench.contention", worker=index)
        for index in range(threads_n)
    ]

    def hammer():
        barrier = threading.Barrier(threads_n)

        def work(instrument):
            barrier.wait()
            for _ in range(increments):
                instrument.inc()

        workers = [
            threading.Thread(target=work, args=(instrument,))
            for instrument in counters
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()

    benchmark(hammer)
    for instrument in counters:
        assert instrument.value % increments == 0
        assert instrument.value >= increments


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
    # Every client connects BEFORE the drain starts (the barrier includes
    # the main thread): the zero-drop contract covers connected clients;
    # a connect() attempted after the listener closes is an ordinary
    # refusal, not a drop.
    barrier = threading.Barrier(clients + 1)
    outcomes = []
    lock = threading.Lock()

    def fire():
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.connect()
            barrier.wait()
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
    time.sleep(0.1)  # let the in-flight requests reach the queue
    assert server.drain() is True
    for thread in threads:
        thread.join()
    assert len(outcomes) == clients
    assert -1 not in outcomes, "a connected client was dropped during drain"
    assert set(outcomes) <= {200, 503}
    assert outcomes.count(200) >= clients // 2  # admitted work completed, not shed
