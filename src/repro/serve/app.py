"""Endpoint logic of the ``upcc serve`` daemon, free of HTTP plumbing.

:class:`ServeApp` owns the long-lived state a serving process accumulates:

* the process-wide warm :class:`~repro.xsdgen.cache.GenerationCache`
  (repeat ``/generate`` requests for an unchanged model hit the ~12x
  warm path PR 2 built),
* the process-wide :class:`~repro.xsd.compiled.CompilationCache`
  (``/validate`` requests against a known schema set reuse its compiled
  plans instead of re-resolving the schema graph),
* an LRU of parsed models keyed by the XMI text's content hash (repeat
  requests skip the XMI parse entirely), and
* a registry of generated schema sets keyed by
  :func:`~repro.xsd.compiled.fingerprint_schema_set`, so ``/validate``
  and ``/explain`` can reference a prior ``/generate`` by id instead of
  re-shipping schema documents on every request.

Every handler takes plain dicts and returns ``(http status, payload)``;
the HTTP layer (:mod:`repro.serve.server`) does framing, admission and
backpressure.  Handlers never raise for bad input -- defects become 4xx
payloads -- so one malformed request can never take a connection down.

The ``/generate`` and ``/validate`` payloads are byte-compatible with the
CLI paths: schema texts are exactly what ``upcc generate --out`` writes,
and the validate report is exactly ``upcc validate-instances --report
json`` (asserted in ``tests/test_serve.py``).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ccts.model import CctsModel
from repro.errors import ReproError, XmiError
from repro.instances.pipeline import ValidationPipeline
from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import counter, get_registry
from repro.xmi import read_xmi
from repro.xsd.compiled import fingerprint_schema_set, fingerprint_schema_texts
from repro.xsd.parser import parse_schema
from repro.xsd.validator import SchemaSet
from repro.xsdgen import GenerationOptions, SchemaGenerator
from repro.xsdgen.provenance import ProvenanceIndex

_log = get_logger("repro.serve")


@dataclass
class SchemaSetEntry:
    """One registered schema set: validator-ready plus its provenance."""

    id: str
    schema_set: SchemaSet
    schemas: dict[str, str] = field(default_factory=dict)
    provenance: ProvenanceIndex | None = None
    library: str | None = None
    root: str | None = None
    created_at: float = field(default_factory=time.time)


class ServeApp:
    """The daemon's shared request-handling state and endpoint logic.

    Thread-safe: handlers run on the server's connection threads, up to
    ``workers`` at once, so every mutable structure is guarded.  The
    expensive state (generation cache, compilation cache) is the
    *process-wide* instances -- a CLI run in the same process, or a second
    ``ServeApp``, shares the same warm paths.
    """

    def __init__(
        self,
        *,
        max_models: int = 32,
        max_schema_sets: int = 256,
        cache_dir: str | None = None,
    ) -> None:
        self.started_at = time.time()
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._models: OrderedDict[str, CctsModel] = OrderedDict()
        self._max_models = max_models
        self._schema_sets: OrderedDict[str, SchemaSetEntry] = OrderedDict()
        self._max_schema_sets = max_schema_sets
        self._model_hits = counter("serve.model_cache_hits")
        self._model_misses = counter("serve.model_cache_misses")
        #: Filled in by the HTTP layer so /stats can report queue facts.
        self.server_info: Callable[[], dict[str, Any]] | None = None
        #: Filled in by the HTTP layer: the access-log ring of recent
        #: requests, surfaced under ``recent_requests`` in /stats.
        self.access_recent: Callable[[], list[dict[str, Any]]] | None = None

    # -- shared state ----------------------------------------------------------

    def model_for(self, xmi_text: str) -> CctsModel:
        """The parsed model for ``xmi_text``, via the content-keyed LRU."""
        key = hashlib.sha256(xmi_text.encode("utf-8")).hexdigest()
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
                self._model_hits.inc()
                return model
        self._model_misses.inc()
        model = CctsModel(model=read_xmi(xmi_text))
        with self._lock:
            self._models[key] = model
            self._models.move_to_end(key)
            while len(self._models) > self._max_models:
                self._models.popitem(last=False)
        return model

    def register_schema_set(self, entry: SchemaSetEntry) -> None:
        """Insert (or refresh) a schema-set registry entry."""
        with self._lock:
            self._schema_sets[entry.id] = entry
            self._schema_sets.move_to_end(entry.id)
            while len(self._schema_sets) > self._max_schema_sets:
                self._schema_sets.popitem(last=False)

    def schema_set_entry(self, set_id: str) -> SchemaSetEntry | None:
        """The registered entry for ``set_id``, or None."""
        with self._lock:
            entry = self._schema_sets.get(set_id)
            if entry is not None:
                self._schema_sets.move_to_end(set_id)
            return entry

    def schema_set_ids(self) -> list[str]:
        with self._lock:
            return list(self._schema_sets)

    # -- endpoints -------------------------------------------------------------

    def generate(self, payload: Any) -> tuple[int, dict]:
        """``POST /generate``: XMI text in, schema bundle + registry id out."""
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        xmi_text = payload.get("xmi")
        library = payload.get("library")
        if not isinstance(xmi_text, str) or not xmi_text:
            return 400, {"error": "missing required string field 'xmi'"}
        if not isinstance(library, str) or not library:
            return 400, {"error": "missing required string field 'library'"}
        root = payload.get("root")
        if root is not None and not isinstance(root, str):
            return 400, {"error": "'root' must be a string"}
        raw_options = payload.get("options") or {}
        if not isinstance(raw_options, dict):
            return 400, {"error": "'options' must be an object"}
        options = GenerationOptions(
            annotated=bool(raw_options.get("annotated", False)),
            shared_aggregation_as_ref=bool(
                raw_options.get("shared_aggregation_as_ref", True)
            ),
            validate_first=bool(raw_options.get("validate", True)),
            use_cache=True,
            cache_dir=Path(self.cache_dir) if self.cache_dir else None,
        )
        try:
            model = self.model_for(xmi_text)
            result = SchemaGenerator(model, options).generate(library, root=root)
        except XmiError as error:
            located = {"line": error.line, "column": error.column} if error.line is not None else {}
            return 400, {"error": str(error), **located}
        except ReproError as error:
            return 400, {"error": str(error)}
        # Serialize once: the registry id hashes the same texts the
        # response carries (equal to fingerprint_schema_set of the set).
        texts = {urn: generated.to_string() for urn, generated in result.schemas.items()}
        set_id = fingerprint_schema_texts(texts.items())
        schemas = {
            f"{generated.namespace.folder}/{generated.namespace.file_name}": texts[urn]
            for urn, generated in result.schemas.items()
        }
        self.register_schema_set(
            SchemaSetEntry(
                id=set_id,
                schema_set=result.schema_set(),
                schemas=schemas,
                provenance=result.provenance,
                library=library,
                root=root,
            )
        )
        _log.info(
            "generated %d schema(s) for %r (schema set %s)",
            len(schemas), library, set_id[:12],
        )
        return 200, {
            "schema_set": set_id,
            "library": library,
            "root": root,
            "schemas": schemas,
        }

    def validate(self, payload: Any) -> tuple[int, dict]:
        """``POST /validate``: schema-set ref (or inline schemas) + docs in,
        the ``upcc validate-instances --report json`` report out."""
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        documents = payload.get("documents")
        if not isinstance(documents, list) or not documents:
            return 400, {"error": "missing required non-empty list field 'documents'"}
        named: list[tuple[str, str]] = []
        for index, document in enumerate(documents):
            if isinstance(document, str):
                named.append((f"doc{index}", document))
            elif (
                isinstance(document, dict)
                and isinstance(document.get("xml"), str)
            ):
                named.append((str(document.get("name", f"doc{index}")), document["xml"]))
            else:
                return 400, {
                    "error": "each document must be an XML string or "
                    "{'name': ..., 'xml': ...}"
                }
        status, entry = self._resolve_schema_set(payload)
        if entry is None:
            return status  # type: ignore[return-value]  # (status, payload) tuple
        try:
            pipeline = ValidationPipeline(
                entry.schema_set, fail_fast=bool(payload.get("fail_fast", False))
            )
            report = pipeline.run_strings(named)
        except ReproError as error:
            return 400, {"error": str(error)}
        payload_out = report.to_json()
        payload_out["schema_set"] = entry.id
        return 200, payload_out

    def _resolve_schema_set(self, payload: dict):
        """The registry entry a /validate request addresses.

        Returns ``((status, error payload), None)`` on failure, or
        ``(0, entry)`` on success.  Inline schema documents are parsed,
        fingerprinted and registered, so a second request with the same
        schemas -- or a ``schema_set`` ref -- takes the warm path.
        """
        set_id = payload.get("schema_set")
        inline = payload.get("schemas")
        if set_id is not None:
            if not isinstance(set_id, str):
                return (400, {"error": "'schema_set' must be a string id"}), None
            entry = self.schema_set_entry(set_id)
            if entry is None:
                return (
                    404,
                    {"error": f"unknown schema set {set_id!r}; POST /generate first"},
                ), None
            return 0, entry
        if not isinstance(inline, list) or not inline or not all(
            isinstance(text, str) for text in inline
        ):
            return (
                400,
                {"error": "provide 'schema_set' (id) or 'schemas' (list of XSD texts)"},
            ), None
        try:
            schema_set = SchemaSet([parse_schema(text) for text in inline])
        except (ReproError, ValueError) as error:
            return (400, {"error": f"unparsable schema document: {error}"}), None
        fingerprint = fingerprint_schema_set(schema_set)
        entry = self.schema_set_entry(fingerprint)
        if entry is None:
            entry = SchemaSetEntry(id=fingerprint, schema_set=schema_set)
            self.register_schema_set(entry)
        return 0, entry

    def explain(self, params: dict[str, str]) -> tuple[int, dict]:
        """``GET /explain``: provenance lookup against a generated set."""
        set_id = params.get("schema_set")
        if not set_id:
            return 400, {"error": "missing required query parameter 'schema_set'"}
        target = params.get("target")
        source = params.get("source")
        if not target and not source:
            return 400, {"error": "provide 'target' and/or 'source'"}
        entry = self.schema_set_entry(set_id)
        if entry is None:
            return 404, {"error": f"unknown schema set {set_id!r}; POST /generate first"}
        if entry.provenance is None:
            return 404, {
                "error": "schema set was registered without provenance "
                "(inline /validate schemas carry none)"
            }
        records = []
        if target:
            records.extend(entry.provenance.by_target(target))
        if source:
            records.extend(entry.provenance.by_source(source))
        return 200, {
            "schema_set": set_id,
            "matched": len(records),
            "records": [
                {**record.to_dict(), "describe": record.describe(), "rule_text": record.rule_text}
                for record in records
            ],
        }

    def stats(self) -> tuple[int, dict]:
        """``GET /stats``: server, cache and metrics snapshot."""
        from repro.xsd.compiled import get_compilation_cache
        from repro.xsdgen.cache import get_generation_cache

        payload: dict[str, Any] = {
            "uptime_s": round(time.time() - self.started_at, 3),
            "schema_sets": self.schema_set_ids(),
            "caches": {
                "generation_entries": len(get_generation_cache()),
                "compilation_entries": len(get_compilation_cache()),
                "models": len(self._models),
            },
            "metrics": get_registry().snapshot(),
        }
        if self.server_info is not None:
            payload["server"] = self.server_info()
        if self.access_recent is not None:
            payload["recent_requests"] = self.access_recent()
        return 200, payload

    def health(self, draining: bool) -> tuple[int, dict]:
        """``GET /healthz``: 200 while serving, 503 once draining."""
        if draining:
            return 503, {"status": "draining"}
        return 200, {"status": "ok"}
