"""Endpoint logic of the ``upcc serve`` daemon, free of HTTP plumbing.

:class:`ServeApp` owns the long-lived state a serving process accumulates:

* the warm :class:`~repro.xsdgen.cache.GenerationCache` (process-wide or
  ``cache_dir``'s; repeat ``/generate`` requests for an unchanged model
  hit every library and answer with the schema texts its entries keep),
* the process-wide :class:`~repro.xsd.compiled.CompilationCache`
  (``/validate`` requests against a known schema set reuse its compiled
  plans instead of re-resolving the schema graph),
* an LRU of parsed models keyed by the XMI text's content hash (repeat
  requests skip the XMI parse entirely), and
* an LRU registry of generated schema sets keyed by
  :func:`~repro.xsd.compiled.fingerprint_schema_set`, so ``/validate``
  and ``/explain`` can reference a prior ``/generate`` by id instead of
  re-shipping schema documents on every request.  A warm ``/generate``
  of a registered set reuses its entry (fingerprint, compiled plans,
  provenance index) instead of registering it again.

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
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ccts.model import CctsModel
from repro.errors import ReproError, XmiError
from repro.instances.pipeline import ValidationPipeline
from repro.lru import Lru
from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import counter, get_registry
from repro.xmi import read_xmi
from repro.xsd.compiled import fingerprint_schema_set, fingerprint_schema_texts
from repro.xsd.parser import parse_schema
from repro.xsd.validator import SchemaSet
from repro.xsdgen import GenerationOptions, SchemaGenerator
from repro.xsdgen.cache import GenerationCache, cache_for_directory, get_generation_cache
from repro.xsdgen.provenance import ProvenanceIndex

_log = get_logger("repro.serve")

#: Bounds of the parsed-model LRU and of the schema-set registry.
MAX_MODELS = 32
MAX_SCHEMA_SETS = 256


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

    def __init__(self, *, cache_dir: str | None = None) -> None:
        self.started_at = time.time()
        self.cache_dir = cache_dir
        self._models: Lru[str, CctsModel] = Lru(MAX_MODELS)
        self._schema_sets: Lru[str, SchemaSetEntry] = Lru(MAX_SCHEMA_SETS)
        self._model_hits = counter("serve.model_cache_hits")
        self._model_misses = counter("serve.model_cache_misses")
        #: Filled in by the HTTP layer so /stats can report queue facts.
        self.server_info: Callable[[], dict[str, Any]] | None = None
        #: Filled in by the HTTP layer: the access-log ring of recent
        #: requests, surfaced under ``recent_requests`` in /stats.
        self.access_recent: Callable[[], list[dict[str, Any]]] | None = None

    # -- shared state ----------------------------------------------------------

    def _generation_cache(self) -> GenerationCache:
        """The generation cache ``/generate`` fills and ``/stats`` counts."""
        if self.cache_dir:
            return cache_for_directory(self.cache_dir)
        return get_generation_cache()

    def model_for(self, xmi_text: str) -> CctsModel:
        """The parsed model for ``xmi_text``, via the content-keyed LRU."""
        key = hashlib.sha256(xmi_text.encode("utf-8")).hexdigest()
        model = self._models.get(key)
        if model is not None:
            self._model_hits.inc()
            return model
        self._model_misses.inc()
        model = CctsModel(model=read_xmi(xmi_text))
        self._models.put(key, model)
        return model

    def register_schema_set(self, entry: SchemaSetEntry) -> None:
        """Insert (or refresh) a schema-set registry entry."""
        self._schema_sets.put(entry.id, entry)

    def schema_set_entry(self, set_id: str) -> SchemaSetEntry | None:
        """The registered entry for ``set_id``, or None."""
        return self._schema_sets.get(set_id)

    def schema_set_ids(self) -> list[str]:
        return self._schema_sets.keys()

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
        )
        try:
            model = self.model_for(xmi_text)
            generator = SchemaGenerator(model, options, cache=self._generation_cache())
            result = generator.generate(library, root=root)
        except XmiError as error:
            located = {"line": error.line, "column": error.column} if error.line is not None else {}
            return 400, {"error": str(error), **located}
        except ReproError as error:
            return 400, {"error": str(error)}
        # The registry id hashes the same texts the response carries
        # (equal to fingerprint_schema_set of the set); a warm hit's texts
        # come from its cache entries without running the writer.
        texts = {urn: generated.to_string() for urn, generated in result.schemas.items()}
        set_id = fingerprint_schema_texts(texts.items())
        schemas = {
            f"{generated.namespace.folder}/{generated.namespace.file_name}": texts[urn]
            for urn, generated in result.schemas.items()
        }
        entry = self.schema_set_entry(set_id)
        if (
            entry is None
            or entry.provenance is None
            or (entry.library, entry.root) != (library, root)
            or entry.schemas != schemas
        ):
            # New, or registered by an inline /validate without provenance:
            # register with the fingerprint already in hand, so the first
            # /validate of the set never serializes it again.
            entry = SchemaSetEntry(
                id=set_id,
                schema_set=SchemaSet(
                    [generated.schema for generated in result.schemas.values()],
                    fingerprint=set_id,
                ),
                schemas=schemas,
                provenance=result.provenance,
                library=library,
                root=root,
            )
            self.register_schema_set(entry)
        _log.info(
            "generated %d schema(s) for %r (schema set %s)",
            len(schemas), library, set_id[:12],
        )
        return 200, {
            "schema_set": set_id,
            "library": library,
            "root": root,
            "schemas": entry.schemas,
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
        except (ReproError, ValueError, ET.ParseError) as error:
            # ParseError (malformed XML) is a SyntaxError; its text
            # carries the line and column.
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

        payload: dict[str, Any] = {
            "uptime_s": round(time.time() - self.started_at, 3),
            "schema_sets": self.schema_set_ids(),
            "caches": {
                "generation_entries": len(self._generation_cache()),
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
