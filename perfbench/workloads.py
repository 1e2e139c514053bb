"""The three workloads: set-up, one op, output checks and layer metrics.

Each workload is a closed loop over a seeded input list (see ``NOTES.md``
for why these three and which layers each one stresses):

* ``generate_catalog`` -- the paper's cold pipeline, one caller;
* ``validate_corpus`` -- in-process batch validation, one caller;
* ``serve_mixed`` -- ``upcc serve`` in its own process, two keep-alive
  clients sending 80% ``/validate`` and 20% ``/generate``.

An op raises on any failure, including a wrong output; the loop counts
it as failed.  Only the call into the program is timed, never a check.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from catalog import DEFAULT_SEED, build_catalog, catalog_seeds
from corpus import MUTATIONS, build_corpus, check_report
from golden import digests, load_golden, schema_texts
from measure import no_span, peak_rss_mb

import repro.obs
from repro.ccts.model import CctsModel
from repro.instances import InstanceGenerator, ValidationPipeline
from repro.obs.export import counter_exposition_name, parse_prometheus_text, quantile_from_buckets
from repro.obs.metrics import counter
from repro.validation import validate_model
from repro.xmi import read_xmi
from repro.xsd.compiled import (
    CompilationCache,
    compile_schema_set,
    fingerprint_schema_set,
    set_compilation_cache,
)
from repro.xsd.parser import parse_schema
from repro.xsdgen import GenerationOptions, SchemaGenerator

#: ``upcc generate --no-validate`` defaults: no cache, jobs=1.
COLD_OPTIONS = GenerationOptions(validate_first=False)
SCHEMA_KINDS = {"BIELibrary", "DOCLibrary", "CDTLibrary", "QDTLibrary", "ENUMLibrary"}


class Prepared:
    """A catalog plus its reference generation (CLI defaults)."""

    def __init__(self, seed: int) -> None:
        self.catalog = build_catalog(seed)
        result = SchemaGenerator(self.catalog.model, GenerationOptions()).generate(
            self.catalog.doc_library, root=self.catalog.root
        )
        self.result = result
        self.texts = schema_texts(result)
        self.digests = digests(self.texts)
        self.schema_set = result.schema_set()

    def check(self, golden: dict[int, dict[str, str]] | None) -> None:
        """Golden digests (default seed) and seed-independent invariants."""
        catalog = self.catalog
        if golden is not None and self.digests != golden[catalog.seed]:
            raise AssertionError(f"catalog {catalog.seed}: schemas differ from golden digests")
        kinds = {generated.library.stereotype for generated in self.result.schemas.values()}
        if kinds != SCHEMA_KINDS:
            raise AssertionError(f"catalog {catalog.seed}: schema kinds {sorted(kinds)}")
        complex_types = 0
        for generated in self.result.schemas.values():
            parsed = parse_schema(self.texts[
                f"{generated.namespace.folder}/{generated.namespace.file_name}"
            ])
            if generated.library.stereotype in ("BIELibrary", "DOCLibrary"):
                complex_types += len(parsed.complex_types)
        if complex_types != catalog.abie_count:
            raise AssertionError(
                f"catalog {catalog.seed}: {complex_types} complexTypes for "
                f"{catalog.abie_count} ABIEs"
            )
        instance = InstanceGenerator(self.schema_set).generate_string(catalog.root)
        report = ValidationPipeline(self.schema_set).run_strings([("instance", instance)])
        if not report.ok:
            raise AssertionError(f"catalog {catalog.seed}: generated instance is invalid")


def prepare_all(seed: int) -> list[Prepared]:
    return [Prepared(catalog_seed) for catalog_seed in catalog_seeds(seed)]


def check_all(prepared: list[Prepared], seed: int) -> None:
    golden = load_golden() if seed == DEFAULT_SEED else None
    for item in prepared:
        item.check(golden)


def cold_pipeline(prepared: Prepared, span):
    """``upcc validate`` + ``upcc generate --no-validate`` on one XMI text."""
    catalog = prepared.catalog
    with span("xmi.read"):
        model = CctsModel(model=read_xmi(catalog.xmi))
    with span("validation.validate"):
        report = validate_model(model)
    with span("xsdgen.generate"):
        result = SchemaGenerator(model, COLD_OPTIONS).generate(
            catalog.doc_library, root=catalog.root
        )
    with span("xsd.write"):
        texts = schema_texts(result)
    return model, report, result, texts


def obs_trace_overhead(prepared: list[Prepared], pairs: int) -> float:
    """Cold-pipeline op time with ``repro.obs`` tracing on ÷ off.

    The median over adjacent pairs on the same catalog, alternating which
    side runs first, so the machine's speed drift cancels within a pair.
    """
    ratios = []
    for index in range(pairs):
        item = prepared[index % len(prepared)]
        seconds = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                repro.obs.configure(trace=True)
            started = time.perf_counter()
            cold_pipeline(item, no_span)
            seconds[traced] = time.perf_counter() - started
            if traced:
                repro.obs.disable()
        ratios.append(seconds[True] / seconds[False])
    return median(ratios)


class Workload:
    """Set-up (timed, repeatable), inputs, op and layer metrics."""

    clients = 1
    #: Put op latencies at the reference machine speed
    #: (``measure.calibrate_ms``): right for ops that are CPU work in this
    #: process.
    normalize = True

    def prepare(self, seed: int) -> None:
        """Untimed benchmark-side preparation, once before the set-ups."""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def check_setup(self, seed: int) -> None:
        raise NotImplementedError

    def inputs(self) -> list[list]:
        """One input list per client; a run is whole passes over it."""
        raise NotImplementedError

    def op(self, item, span, traced: bool) -> float:
        """Run one op; return its latency in ms, raise on any failure."""
        raise NotImplementedError

    def begin(self) -> None:
        """Called just before the measured loop starts."""

    def end(self) -> None:
        """Called just after the measured loop ends."""

    def layer_metrics(self, self_times: dict[str, list[float]]) -> dict[str, float]:
        return {}

    def catalogs(self) -> list[Prepared]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        """Release what set-up started (idempotent)."""


def _median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


class GenerateCatalog(Workload):
    """The paper's cold pipeline on seeded catalogs of one size."""

    def setup(self, seed: int) -> None:
        self.prepared = prepare_all(seed)
        self.counts: dict[str, list[float]] = {}

    def check_setup(self, seed: int) -> None:
        check_all(self.prepared, seed)

    def catalogs(self) -> list[Prepared]:
        return self.prepared

    def inputs(self) -> list[list]:
        return [self.prepared]

    def op(self, item: Prepared, span, traced: bool) -> float:
        started = time.perf_counter()
        with span("op.generate_catalog"):
            model, report, result, texts = cold_pipeline(item, span)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if not report.ok:
            raise AssertionError(f"catalog {item.catalog.seed}: model rules report errors")
        if digests(texts) != item.digests:
            raise AssertionError(f"catalog {item.catalog.seed}: schemas differ from reference")
        if traced:
            for name, value in (
                ("xmi.elements", sum(1 for _ in model.model.all_elements())),
                ("validation.findings", len(report.diagnostics)),
                ("xsdgen.schemas", len(result.schemas)),
                ("xsdgen.provenance_records", len(result.provenance)),
                ("xsd.output_bytes", sum(len(text.encode("utf-8")) for text in texts.values())),
            ):
                self.counts.setdefault(name, []).append(value)
        return elapsed_ms

    def layer_metrics(self, self_times: dict[str, list[float]]) -> dict[str, float]:
        metrics = {
            "xmi.read_ms": _median_or_zero(self_times.get("xmi.read", [])),
            "validation.validate_ms": _median_or_zero(self_times.get("validation.validate", [])),
            "xsdgen.generate_ms": _median_or_zero(self_times.get("xsdgen.generate", [])),
            "xsd.write_ms": _median_or_zero(self_times.get("xsd.write", [])),
        }
        for name, values in self.counts.items():
            metrics[name] = sum(values) / len(values)
        return metrics


class ValidateCorpus(Workload):
    """A message gateway validating batches in-process."""

    def setup(self, seed: int) -> None:
        # A fresh cache per set-up, so every set-up compiles cold.
        set_compilation_cache(CompilationCache())
        self.prepared = prepare_all(seed)
        self.compile_ms: list[float] = []
        self.corpora = []
        for index, item in enumerate(self.prepared):
            started = time.perf_counter()
            compile_schema_set(item.schema_set)
            self.compile_ms.append((time.perf_counter() - started) * 1000.0)
            self.corpora.append(build_corpus(
                item.catalog.root, item.schema_set, item.catalog.codes,
                MUTATIONS[index % len(MUTATIONS)],
            ))
        self.docs = self.invalid = 0

    def check_setup(self, seed: int) -> None:
        check_all(self.prepared, seed)

    def catalogs(self) -> list[Prepared]:
        return self.prepared

    def inputs(self) -> list[list]:
        return [self.corpora]

    def op(self, corpus, span, traced: bool) -> float:
        started = time.perf_counter()
        with span("op.validate_corpus"):
            with span("instances.pipeline"):
                pipeline = ValidationPipeline(corpus.schema_set)
            with span("instances.run_strings"):
                report = pipeline.run_strings(corpus.documents)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        check_report(report.to_json(), corpus.documents, corpus.invalid)
        self.docs += report.docs_total
        self.invalid += report.docs_invalid
        return elapsed_ms

    @staticmethod
    def _compile_counts() -> tuple[int, int]:
        return counter("instances.compile_hits").value, counter("instances.compile_misses").value

    def begin(self) -> None:
        self._compile_start = self._compile_counts()

    def end(self) -> None:
        hits, misses = self._compile_counts()
        self.compile_calls = (hits - self._compile_start[0], misses - self._compile_start[1])

    def layer_metrics(self, self_times: dict[str, list[float]]) -> dict[str, float]:
        hits, misses = self.compile_calls
        per_batch = len(self.corpora[0].documents)
        batch_ms = self_times.get("instances.run_strings", [])
        # Traced ops are whole passes, so they cover every corpus equally.
        seconds = sum(batch_ms) / 1000.0
        mean_bytes = sum(corpus.bytes for corpus in self.corpora) / len(self.corpora)
        return {
            "xsd.compile_ms": median(self.compile_ms),
            "instances.compile_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "instances.validate_doc_ms": _median_or_zero([ms / per_batch for ms in batch_ms]),
            "instances.docs_per_s": len(batch_ms) * per_batch / seconds if seconds else 0.0,
            "instances.bytes_per_s": len(batch_ms) * mean_bytes / seconds if seconds else 0.0,
            "instances.invalid_share": self.invalid / self.docs if self.docs else 0.0,
        }


class ServeMixed(Workload):
    """``upcc serve`` driven by two keep-alive clients (80% validate)."""

    clients = 2
    #: Request latencies stay as measured: most of one is a TCP timer and
    #: another process's work, which this process's speed does not scale.
    normalize = False
    #: Requests per client pass; every fifth is a /generate (20%).
    PASS_REQUESTS = 25
    GENERATE_EVERY = 5
    #: Documents per /validate request: the default of the repository's
    #: load generator (``repro.serve.loadgen --documents``).
    DOCS_PER_REQUEST = 4
    STARTUP_TIMEOUT_S = 60.0
    MAX_RETRIES = 3

    def __init__(self, root: Path) -> None:
        self.root = root
        self.process: subprocess.Popen | None = None
        self.lock = threading.Lock()
        self.retries = 0
        self.latencies: dict[str, list[float]] = {"validate": [], "generate": []}

    def prepare(self, seed: int) -> None:
        """Client-side inputs and expected answers (not the server's set-up).

        Expected ``/validate`` bodies are the in-process report, itself
        checked against the known answers.
        """
        self.prepared = prepare_all(seed)
        corpora = [
            build_corpus(item.catalog.root, item.schema_set, item.catalog.codes,
                         MUTATIONS[index % len(MUTATIONS)])
            for index, item in enumerate(self.prepared)
        ]
        self.set_ids = [fingerprint_schema_set(item.schema_set) for item in self.prepared]
        self.requests = []
        for client in range(self.clients):
            requests = []
            validates = generates = 0
            per_pass = self.PASS_REQUESTS - self.PASS_REQUESTS // self.GENERATE_EVERY
            for position in range(self.PASS_REQUESTS):
                if position % self.GENERATE_EVERY == self.GENERATE_EVERY - 1:
                    item = self.prepared[
                        (client * self.GENERATE_EVERY + generates) % len(self.prepared)
                    ]
                    generates += 1
                    requests.append(("generate", self._generate_body(item), item.digests))
                    continue
                # Consecutive slices of the batch: each pass's /validate
                # documents are 5% mutated, like the batch itself.
                kind = (client + validates) % len(corpora)
                corpus = corpora[kind]
                slices = len(corpus.documents) // self.DOCS_PER_REQUEST
                start = (client * per_pass + validates) % slices * self.DOCS_PER_REQUEST
                validates += 1
                documents = corpus.documents[start:start + self.DOCS_PER_REQUEST]
                report = ValidationPipeline(corpus.schema_set).run_strings(documents).to_json()
                check_report(report, documents, {
                    name: corpus.invalid[name] for name, _text in documents
                    if name in corpus.invalid
                })
                body = json.dumps({
                    "schema_set": self.set_ids[kind],
                    "documents": [{"name": name, "xml": text} for name, text in documents],
                }).encode("utf-8")
                requests.append(("validate", body, dict(report, schema_set=self.set_ids[kind])))
            self.requests.append(requests)

    def setup(self, seed: int) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.port = self._await_port()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            for item, set_id in zip(self.prepared, self.set_ids):
                status, body = self._post(connection, "/generate", self._generate_body(item))
                payload = json.loads(body)
                if status != 200 or payload.get("schema_set") != set_id:
                    raise AssertionError(f"registration of catalog {item.catalog.seed} failed: {status}")
                if digests(payload["schemas"]) != item.digests:
                    raise AssertionError(f"/generate schemas of catalog {item.catalog.seed} differ")
        finally:
            connection.close()

    def _await_port(self) -> int:
        deadline = time.monotonic() + self.STARTUP_TIMEOUT_S
        stream = self.process.stdout
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                line = stream.readline()
                if line.startswith(b"listening on "):
                    return int(line.strip().rsplit(b":", 1)[1])
                if not line:
                    break
        raise RuntimeError(f"server did not start: {line!r}")

    @staticmethod
    def _generate_body(item: Prepared) -> bytes:
        return json.dumps({
            "xmi": item.catalog.xmi,
            "library": item.catalog.doc_library,
            "root": item.catalog.root,
        }).encode("utf-8")

    @staticmethod
    def _post(connection, path: str, body: bytes) -> tuple[int, bytes]:
        connection.request("POST", path, body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()

    def check_setup(self, seed: int) -> None:
        check_all(self.prepared, seed)

    def catalogs(self) -> list[Prepared]:
        return self.prepared

    def inputs(self) -> list[list]:
        self._connections = {}
        return self.requests

    def _connection(self):
        thread = threading.get_ident()
        connection = self._connections.get(thread)
        if connection is None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            self._connections[thread] = connection
        return connection

    def op(self, request, span, traced: bool) -> float:
        endpoint, body, expected = request
        connection = self._connection()
        started = time.perf_counter()
        try:
            with span(f"op.{endpoint}"):
                for attempt in range(self.MAX_RETRIES + 1):
                    with span("serve.ttfb"):
                        connection.request("POST", f"/{endpoint}", body,
                                           {"Content-Type": "application/json"})
                        response = connection.getresponse()
                    with span("serve.body"):
                        data = response.read()
                    if response.status != 503 or attempt == self.MAX_RETRIES:
                        break
                    with self.lock:
                        self.retries += 1
                    time.sleep(0.05)
        except (OSError, http.client.HTTPException):
            connection.close()
            self._connections.pop(threading.get_ident(), None)
            raise
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if response.status != 200:
            raise AssertionError(f"/{endpoint} answered {response.status}")
        payload = json.loads(data)
        if endpoint == "validate":
            if payload != expected:
                raise AssertionError("/validate body differs from the in-process report")
        elif digests(payload["schemas"]) != expected:
            raise AssertionError("/generate schemas differ from the reference digests")
        with self.lock:
            self.latencies[endpoint].append(elapsed_ms)
        return elapsed_ms

    def _scrape(self):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        return parse_prometheus_text(text)

    def begin(self) -> None:
        self.retries = 0
        self.latencies = {"validate": [], "generate": []}
        self._before = self._scrape()

    def end(self) -> None:
        for connection in self._connections.values():
            connection.close()
        self._connections = {}
        self._after = self._scrape()

    def _counter_delta(self, base_name: str) -> float:
        name = counter_exposition_name(base_name)

        def total(families) -> float:
            family = families.get(name) or families.get(name.removesuffix("_total"))
            if family is None:
                return 0.0
            return sum(value for sample, _labels, value in family.samples if sample == name)

        return total(self._after) - total(self._before)

    def _server_p50(self, endpoint: str) -> float:
        labels = {"endpoint": endpoint}
        family_after = self._after.get("serve_request_ms")
        family_before = self._before.get("serve_request_ms")
        after = dict(family_after.buckets(labels)) if family_after else {}
        before = dict(family_before.buckets(labels)) if family_before else {}
        delta = [(bound, count - before.get(bound, 0)) for bound, count in after.items()]
        return quantile_from_buckets(delta, 50)

    def layer_metrics(self, self_times: dict[str, list[float]]) -> dict[str, float]:
        hits = self._counter_delta("serve.model_cache_hits")
        misses = self._counter_delta("serve.model_cache_misses")
        metrics = {
            "serve.client_ttfb_ms": _median_or_zero(self_times.get("serve.ttfb", [])),
            "serve.client_body_ms": _median_or_zero(self_times.get("serve.body", [])),
            "serve.model_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.retries_503": float(self.retries),
        }
        for endpoint in ("validate", "generate"):
            client = _median_or_zero(self.latencies[endpoint])
            server = self._server_p50(endpoint)
            metrics[f"serve.client_request_ms.{endpoint}"] = client
            metrics[f"serve.server_request_ms.{endpoint}"] = server
            metrics[f"serve.gap_ms.{endpoint}"] = client - server
        return metrics

    def peak_rss_mb(self) -> float:
        # The server's peak: the largest of the waited-for server processes.
        self.close()
        return peak_rss_mb(children=True)

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


def make(name: str, root: Path) -> Workload:
    if name == "generate_catalog":
        return GenerateCatalog()
    if name == "validate_corpus":
        return ValidateCorpus()
    return ServeMixed(root)
