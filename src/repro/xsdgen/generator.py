"""The generation orchestrator.

:class:`SchemaGenerator` walks the library dependency graph, memoizes one
schema per (library, DOC root) pair, consults the fingerprint-keyed
:class:`~repro.xsdgen.cache.GenerationCache` when caching is enabled, and
resolves cross-library type references into imports with NDR-conformant
prefixes.  :class:`SchemaBuilder` is the per-document working context the
library builders write into.

Collect mode (``on_error="collect"``) prebuilds the whole reachable
library graph before assembling the result: the dependency graph is
derived structurally (:func:`repro.xsdgen.cache.library_dependencies`),
condensed into strongly connected components (cyclic BIE libraries build
together) and built dependencies-first, so a failing library cannot hide
the independent libraries an on-demand build would only discover through
it.  The output is byte-identical to an on-demand build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.ccts.base import ElementWrapper
from repro.ccts.bie import Abie
from repro.ccts.libraries import DocLibrary, Library
from repro.ccts.model import CctsModel
from repro.errors import GenerationError, ReproError
from repro.ndr.annotations import CCTS_DOCUMENTATION_NS, annotation_entries_for
from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.ndr.namespaces import LibraryNamespace, NamespacePolicy, PrefixAllocator, prefix_stem
from repro.profile import (
    BIE_LIBRARY,
    CDT_LIBRARY,
    DOC_LIBRARY,
    ENUM_LIBRARY,
    PRIM_LIBRARY,
    QDT_LIBRARY,
)
from repro.xmlutil.qname import QName
from repro.xsd.components import (
    XSD_NS,
    Annotation,
    ComplexType,
    ElementDecl,
    ImportDecl,
    Schema,
    SimpleType,
)
from repro.xsd.validator import SchemaSet
from repro.xsd.writer import schema_to_string
from repro.xsdgen.cache import (
    CachedGeneration,
    GenerationCache,
    cache_for_directory,
    fingerprint_library,
    get_generation_cache,
    library_dependencies,
)
from repro.xsdgen.provenance import (
    CoverageReport,
    ProvenanceIndex,
    ProvenanceLog,
    ProvenanceRecord,
    coverage,
)
from repro.xsdgen.session import GenerationOptions, GenerationSession

_log = get_logger("repro.xsdgen")

#: Memo key: (identity of the library package, resolved DOC root or None).
_MemoKey = tuple[int, "str | None"]


@dataclass
class GeneratedSchema:
    """One generated schema document plus its namespace facts.

    ``provenance`` holds one :class:`~repro.xsdgen.provenance.ProvenanceRecord`
    per emitted construct, in emission order, built from ``log`` on first
    read (see :class:`~repro.xsdgen.provenance.ProvenanceLog`); cache hits
    replay the records that were stored with the schema.
    ``embed_provenance`` (mirroring
    ``GenerationOptions.embed_provenance``) renders them into an
    ``xs:annotation/xs:appinfo`` block -- off by default, keeping the
    serialized schema byte-identical to a provenance-unaware run.
    ``cached`` is the generation-cache entry holding ``schema`` (a hit,
    or the entry a cold build was stored under): the entry keeps the
    rendered text, so the writer runs once per entry and setting.
    """

    library: Library
    namespace: LibraryNamespace
    schema: Schema
    log: ProvenanceLog = field(default_factory=ProvenanceLog)
    embed_provenance: bool = False
    cached: CachedGeneration | None = None

    @property
    def provenance(self) -> list[ProvenanceRecord]:
        """The records of this schema (raises once the model has changed)."""
        return self.log.records()

    def to_string(self) -> str:
        """Render the schema document (a cache entry's text when it has one)."""
        cached = self.cached
        if cached is None or cached.schema is not self.schema:
            return self._render()
        return cached.text(self.embed_provenance, self._render)

    def _render(self) -> str:
        if self.embed_provenance and self.provenance:
            return schema_to_string(
                self.schema, [record.to_dict() for record in self.provenance]
            )
        return schema_to_string(self.schema)


@dataclass
class LibraryFailure:
    """One isolated library failure from an ``on_error="collect"`` run.

    ``error`` is the exception the library's build raised (or the
    poisoning error for a library that imports a failed one); its
    ``__cause__`` links preserve the full chain back to the original
    defect, exposed as :attr:`cause_chain`.
    """

    library_name: str
    stereotype: str
    root_name: str | None
    error: ReproError

    @property
    def cause_chain(self) -> list[BaseException]:
        """The error plus every chained cause, outermost first."""
        chain: list[BaseException] = []
        current: BaseException | None = self.error
        while current is not None and current not in chain:
            chain.append(current)
            current = current.__cause__
        return chain

    def __str__(self) -> str:
        root = f" (root {self.root_name!r})" if self.root_name else ""
        causes = " <- ".join(str(cause) for cause in self.cause_chain[1:])
        suffix = f" [caused by: {causes}]" if causes else ""
        return f"{self.stereotype} {self.library_name!r}{root}: {self.error}{suffix}"


@dataclass
class GenerationResult:
    """All schemas produced by one generation run, keyed by namespace URN.

    ``schemas`` contains exactly the libraries reachable from the requested
    library in this run -- a generator reused across runs does not leak the
    previous run's schemas into later results.

    Under ``on_error="collect"`` a failing library lands in ``errors``
    instead of aborting the run, ``schemas`` holds every library that
    built (none of which import a failed one), and ``root_namespace`` is
    ``None`` when the requested library itself failed.
    """

    schemas: dict[str, GeneratedSchema] = field(default_factory=dict)
    session: GenerationSession = field(default_factory=GenerationSession)
    root_namespace: str | None = None
    errors: list[LibraryFailure] = field(default_factory=list)
    _provenance: ProvenanceIndex | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def provenance(self) -> ProvenanceIndex:
        """Every schema's records, indexed in sorted-URN order on first read.

        The order makes on-demand, prebuilt and warm-cache runs index
        identically.  Raises :class:`GenerationError` when the model
        changed after generation and a schema's records are not built yet.
        """
        if self._provenance is None:
            self._provenance = ProvenanceIndex(
                record for urn in sorted(self.schemas) for record in self.schemas[urn].provenance
            )
        return self._provenance

    @property
    def ok(self) -> bool:
        """True when no library failure was collected."""
        return not self.errors

    def coverage(self) -> CoverageReport:
        """Dead-model report: generated-library elements with no artifact."""
        return coverage(
            [generated.library for generated in self.schemas.values()],
            self.provenance,
        )

    def write_provenance(self, path: str | Path) -> Path:
        """Write the provenance index as a JSON-lines sidecar file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.provenance.to_jsonl() + "\n", encoding="utf-8")
        return path

    @property
    def root(self) -> GeneratedSchema:
        """The schema generated for the library the run started from."""
        if self.root_namespace is None:
            if self.errors:
                raise GenerationError(
                    f"the requested library failed to generate: {self.errors[0]}"
                )
            generated = sorted(g.library.name for g in self.schemas.values())
            if generated:
                raise GenerationError(
                    "generation produced no root schema (libraries generated: "
                    + ", ".join(generated)
                    + ")"
                )
            raise GenerationError(
                "generation produced no root schema (no libraries were generated)"
            )
        return self.schemas[self.root_namespace]

    def schema_set(self) -> SchemaSet:
        """All generated schemas as a validator-ready :class:`SchemaSet`."""
        return SchemaSet([generated.schema for generated in self.schemas.values()])

    def write_to(self, directory: str | Path) -> list[Path]:
        """Write every schema into ``directory`` using the NDR folder layout.

        Each schema lands in ``{underscored-baseURN}/{file}.xsd`` so that the
        relative ``../folder/file`` schemaLocations of the imports resolve.
        Returns the written paths in namespace order.
        """
        directory = Path(directory)
        written: list[Path] = []
        with span("xsdgen.write", directory=str(directory)) as write_span:
            for urn in sorted(self.schemas):
                generated = self.schemas[urn]
                folder = directory / generated.namespace.folder
                folder.mkdir(parents=True, exist_ok=True)
                path = folder / generated.namespace.file_name
                text = generated.to_string()
                path.write_text(text, encoding="utf-8")
                counter("xsdgen.bytes_written").inc(len(text.encode("utf-8")))
                counter("xsdgen.files_written").inc()
                written.append(path)
            write_span.set(files=len(written))
        return written


class SchemaBuilder:
    """Per-document context: the schema plus prefix/import management."""

    def __init__(self, generator: "SchemaGenerator", library: Library) -> None:
        self.generator = generator
        self.library = library
        self.namespace = generator.policy.namespace_for(library)
        self.allocator = PrefixAllocator()
        self_prefix = library.namespace_prefix or prefix_stem(library.stereotype)
        self.allocator.reserve(self_prefix, self.namespace.urn)
        self.schema = Schema(
            target_namespace=self.namespace.urn,
            prefixes={self_prefix: self.namespace.urn},
            version=library.library_version,
        )
        self._imported: set[str] = set()
        #: Libraries whose schemas this document imports, in import order --
        #: recorded so the generator can scope results and cache dependencies.
        self.imported_libraries: list[Library] = []
        self.schema_file = f"{self.namespace.folder}/{self.namespace.file_name}"
        #: Provenance facts of every construct this document emits.
        self.provenance = ProvenanceLog(generator.model.model, self.namespace.urn, self.schema_file)
        # Figure 6 line 1 declares xmlns:ccts even with annotations omitted:
        # the add-in always binds the CCTS documentation namespace.
        self._bind_ccts_prefix()

    def _bind_ccts_prefix(self) -> None:
        if "ccts" not in self.schema.prefixes:
            self.schema.prefixes["ccts"] = CCTS_DOCUMENTATION_NS
            self.allocator.reserve("ccts", CCTS_DOCUMENTATION_NS)

    # -- cross-library references ------------------------------------------------

    def qname_in(self, library: Library, local_name: str) -> QName:
        """A QName for ``local_name`` defined by ``library``'s schema.

        When the library is not the one being generated, its schema is
        (transitively) generated, an import is recorded and a prefix bound.
        """
        if library.element is self.library.element:
            return QName(self.namespace.urn, local_name)
        generated = self.generator.ensure_library(library)
        if generated.namespace.urn not in self._imported:
            self._imported.add(generated.namespace.urn)
            self.imported_libraries.append(library)
            self.schema.imports.append(
                ImportDecl(generated.namespace.urn, generated.namespace.location)
            )
            prefix = self.allocator.allocate(generated.namespace)
            self.schema.prefixes[prefix] = generated.namespace.urn
            counter("xsdgen.imports_resolved").inc()
            self.generator.session.status(
                f"Imported {generated.namespace.urn} as prefix "
                f"{self.schema.prefix_for(generated.namespace.urn)!r}"
            )
            urn = generated.namespace.urn
            self.provenance.add("import", urn, f"import[{urn}]", library, "NDR-IMPORT", urn)
        return QName(generated.namespace.urn, local_name)

    def own_qname(self, local_name: str) -> QName:
        """A QName in the schema being generated."""
        return QName(self.namespace.urn, local_name)

    # -- provenance-recorded emission ----------------------------------------------

    def emit(
        self,
        item: "ComplexType | SimpleType | ElementDecl",
        *,
        source: ElementWrapper,
        rule: str,
        type_ref: QName | None = None,
    ) -> None:
        """Append a top-level schema component, recording its provenance.

        The only sanctioned way for library builders to add top-level
        items (enforced by ``tools/check_provenance_recording.py``):
        every emitted component gets a provenance record naming its UML
        source and NDR rule.
        """
        if isinstance(item, ComplexType):
            kind = "complexType"
        elif isinstance(item, SimpleType):
            kind = "simpleType"
        elif isinstance(item, ElementDecl):
            kind = "element"
        else:  # pragma: no cover - the component model is closed
            raise GenerationError(f"cannot emit schema item {item!r}")
        self.schema.items.append(item)
        self.record(kind=kind, name=item.name, path=item.name, source=source, rule=rule, type_ref=type_ref)

    def record(
        self,
        *,
        kind: str,
        name: str,
        path: str,
        source: ElementWrapper,
        rule: str,
        type_ref: QName | None = None,
    ) -> None:
        """Record provenance for a construct emitted at ``path``.

        ``type_ref`` marks the construct's type reference; when it lives
        in another library's namespace the record carries the import edge.
        """
        imported: str | None = None
        if type_ref is not None and type_ref.namespace not in (self.namespace.urn, XSD_NS):
            imported = type_ref.namespace
        self.provenance.add(kind, name, path, source, rule, imported)

    # -- annotations -----------------------------------------------------------------

    def annotation_for(self, wrapper: ElementWrapper, acronym: str, den: str | None = None) -> Annotation | None:
        """A CCTS annotation block, or None when annotations are off."""
        if not self.generator.options.annotated:
            return None
        self._bind_ccts_prefix()
        return Annotation(annotation_entries_for(wrapper, acronym, den))


class SchemaGenerator:
    """Generates NDR-conformant schemas from a core-components model.

    ``cache`` overrides cache selection explicitly; otherwise
    ``options.cache_dir`` selects the shared disk-backed cache for that
    directory, ``options.use_cache`` the shared in-process cache, and the
    default is no caching (every run regenerates, as the paper's add-in
    does).  Cached schemas are treated as immutable and may be shared
    between results and generator instances.

    A generator is single-caller and takes no locks; each caller (each of
    ``serve``'s workers too) builds its own.
    """

    def __init__(
        self,
        model: CctsModel,
        options: GenerationOptions | None = None,
        cache: GenerationCache | None = None,
    ) -> None:
        self.model = model
        self.options = options or GenerationOptions()
        self.policy = NamespacePolicy(include_version_in_urn=self.options.include_version_in_urn)
        self.session = GenerationSession()
        if cache is not None:
            self.cache: GenerationCache | None = cache
        elif self.options.cache_dir is not None:
            self.cache = cache_for_directory(self.options.cache_dir)
        elif self.options.use_cache:
            self.cache = get_generation_cache()
        else:
            self.cache = None
        self._generated: dict[_MemoKey, GeneratedSchema] = {}
        self._deps: dict[_MemoKey, list[_MemoKey]] = {}
        #: Libraries whose build is in progress (a re-entrant call is a cycle).
        self._building: set[_MemoKey] = set()
        #: Per-run failure records (collect mode) and the keys this run touched.
        self._failed: dict[_MemoKey, LibraryFailure] = {}
        self._run_keys: dict[_MemoKey, None] = {}
        # ensure_library is the hottest instrumented call site; bind its
        # counters once per generator instead of per lookup.
        self._memo_hits = counter("xsdgen.memo_hits")
        self._memo_misses = counter("xsdgen.memo_misses")

    # -- public API -----------------------------------------------------------------

    def generate(self, library: Library | str, root: "Abie | str | None" = None) -> GenerationResult:
        """Generate the schema for ``library`` plus everything it imports.

        ``library`` may be a wrapper or a library name; ``root`` selects the
        DOCLibrary root element (required for DOC libraries with more than
        one ABIE, mirroring the Figure-5 dialog).  The result contains only
        the schemas reachable from ``library`` in this run.
        """
        if isinstance(library, str):
            library = self.model.library_named(library)
        with span("xsdgen.generate", library=library.name) as generate_span:
            if self.options.validate_first:
                self._validate_first()
            # Stable xmi:ids first: assigning ids mutates elements (moving
            # the model version), so it must precede fingerprinting.
            self._ensure_xmi_ids()
            self._failed = {}
            self._run_keys = {}
            collect = self.options.on_error == "collect"
            self.session.status(f"Generating schema for {library.stereotype} {library.name!r}")
            _log.info("generating schema for %s %r", library.stereotype, library.name)
            # Collect mode prebuilds from the structural dependency
            # graph: a failing library must not hide the independent
            # libraries an on-demand build would discover through it.
            if collect:
                self._prebuild_in_dependency_order(library, root)
            root_namespace: str | None = None
            try:
                generated = self.ensure_library(library, root)
                root_namespace = generated.namespace.urn
            except ReproError:
                if not collect:
                    raise
            if collect:
                schemas = self._run_schemas()
            else:
                schemas = self._reachable_schemas(library, root)
            result = GenerationResult(
                schemas=schemas,
                session=self.session,
                root_namespace=root_namespace,
                errors=list(self._failed.values()),
            )
            generate_span.set(schemas=len(result.schemas))
            if result.errors:
                generate_span.set(failures=len(result.errors))
                self.session.status(
                    f"Generation finished with {len(result.errors)} failed "
                    f"librar{'y' if len(result.errors) == 1 else 'ies'}: "
                    f"{len(result.schemas)} schema(s)"
                )
            else:
                self.session.status(f"Generation finished: {len(result.schemas)} schema(s)")
            _log.info("generation finished: %d schema(s)", len(result.schemas))
            if self.options.target_directory is not None:
                paths = result.write_to(self.options.target_directory)
                self.session.status(
                    f"Wrote {len(paths)} schema file(s) to {self.options.target_directory}"
                )
        return result

    # -- internals ----------------------------------------------------------------------

    def _ensure_xmi_ids(self) -> None:
        """Give every model element a deterministic xmi:id for provenance.

        Models loaded from XMI already carry ids, which the reader records
        (so the two walks of :func:`assign_ids` are skipped); programmatically
        built models get ``id_N`` in walk order, recorded *after* assignment
        since assigning moves the model version.
        """
        from repro.xmi.ids import IDS_COMPLETE, assign_ids

        model = self.model.model
        if IDS_COMPLETE not in model.derived():
            assign_ids(model)
            model.derived()[IDS_COMPLETE] = True

    def _validate_first(self) -> None:
        report = self.model.basic_validation_report()
        for warning in report.warnings:
            self.session.status(f"WARNING: {warning.message}")
        if not report.ok:
            details = "; ".join(str(error) for error in report.errors[:5])
            self.session.fail(
                f"the UML model is erroneous ({len(report.errors)} error(s)): {details}"
            )

    def _root_token(self, library: Library, root: "Abie | str | None") -> str | None:
        """The resolved DOC root name, normalized for memo/cache keys.

        Non-DOC libraries ignore ``root`` (token None).  An unresolvable
        selection also yields None -- the build then fails with the same
        session error as before.
        """
        if library.stereotype != DOC_LIBRARY:
            return None
        if isinstance(root, Abie):
            return root.name
        if isinstance(root, str):
            return root
        if isinstance(library, DocLibrary):
            candidates = library.root_candidates()
            if len(candidates) == 1:
                return candidates[0].name
        return None

    def _memo_key(self, library: Library, root: "Abie | str | None" = None) -> _MemoKey:
        return (id(library.element), self._root_token(library, root))

    def ensure_library(self, library: Library, root: "Abie | str | None" = None) -> GeneratedSchema:
        """Generate (memoized) the schema of one library.

        The memo key is the library identity *plus* the resolved DOC root,
        so one generator serves ``generate(doclib, root="A")`` and
        ``generate(doclib, root="B")`` distinct schemas.  Cyclic library
        references are legal: the namespace facts needed by importers are
        computed before the schema body, so a re-entrant call for a library
        whose build is in progress returns a placeholder entry, filled in
        when that build completes.
        """
        key = self._memo_key(library, root)
        failure = self._failed.get(key)
        if failure is not None:
            # Collect mode: a library that already failed this run
            # poisons its importers instead of being retried.
            raise GenerationError(
                f"{library.stereotype} {library.name!r} failed earlier "
                f"in this run: {failure.error}"
            ) from failure.error
        existing = self._generated.get(key)
        if existing is not None:
            self._memo_hits.inc()
            self._run_keys[key] = None
            return existing
        if key in self._building:
            # Cycle: hand back namespace facts with a placeholder schema.
            namespace = self.policy.namespace_for(library)
            placeholder = GeneratedSchema(library, namespace, Schema(namespace.urn))
            self._generated[key] = placeholder
            self._run_keys[key] = None
            return placeholder
        self._building.add(key)
        self._memo_misses.inc()
        try:
            generated, dep_keys = self._obtain(library, root, key)
        except ReproError as error:
            # Drop any placeholder a cycle installed for the failed build
            # so a half-built schema never reaches a result or the cache.
            self._generated.pop(key, None)
            self._run_keys.pop(key, None)
            if self.options.on_error == "collect":
                self._record_failure(key, library, error)
            raise
        finally:
            self._building.discard(key)
        # A cycle may have installed a placeholder; replace its schema body.
        placeholder = self._generated.get(key)
        if placeholder is not None:
            placeholder.schema = generated.schema
            placeholder.log = generated.log
            placeholder.embed_provenance = generated.embed_provenance
            placeholder.cached = generated.cached
            generated = placeholder
        else:
            self._generated[key] = generated
        self._deps[key] = dep_keys
        self._run_keys[key] = None
        return generated

    def _obtain(
        self, library: Library, root: "Abie | str | None", key: _MemoKey
    ) -> tuple[GeneratedSchema, list[_MemoKey]]:
        """Produce one library's schema: cache hit or fresh build."""
        fingerprint: str | None = None
        if self.cache is not None and library.stereotype != PRIM_LIBRARY:
            fingerprint = fingerprint_library(self.model, library, self.options, root_name=key[1])
            entry = self.cache.get(fingerprint)
            if entry is not None:
                return self._adopt(library, entry)
        generated, dep_libraries = self._build(library, root)
        dep_keys = [self._memo_key(dep) for dep in dep_libraries]
        if self.cache is not None and fingerprint is not None:
            generated.cached = CachedGeneration(
                key=fingerprint,
                library_name=library.name,
                stereotype=library.stereotype,
                root_name=key[1],
                namespace=generated.namespace,
                schema=generated.schema,
                dependencies=tuple(dep.qualified_name for dep in dep_libraries),
                provenance=tuple(generated.provenance),
            )
            self.cache.put(generated.cached)
        return generated, dep_keys

    def _adopt(
        self, library: Library, entry: CachedGeneration
    ) -> tuple[GeneratedSchema, list[_MemoKey]]:
        """Turn a cache hit into a run entry and pull in its dependencies."""
        self.session.status(
            f"Reusing cached schema for {library.stereotype} {library.name!r} "
            f"({entry.key[:12]})"
        )
        _log.debug("cache hit for %s %r (%s)", library.stereotype, library.name, entry.key[:12])
        generated = GeneratedSchema(
            library,
            entry.namespace,
            entry.schema,
            log=ProvenanceLog.of(entry.provenance),
            embed_provenance=self.options.embed_provenance,
            cached=entry,
        )
        dep_keys: list[_MemoKey] = []
        for name in entry.dependencies:
            dependency = self.model.library_by_qualified_name(name)
            if dependency is None:
                raise GenerationError(
                    f"cached schema for {library.name!r} imports library {name!r}, "
                    f"which no longer exists in model {self.model.name!r}"
                )
            self.ensure_library(dependency)
            dep_keys.append(self._memo_key(dependency))
        return generated, dep_keys

    def _record_failure(self, key: _MemoKey, library: Library, error: ReproError) -> None:
        """Collect-mode bookkeeping for one failed library build.

        Records the failure, and cascades it onto any *already built*
        library whose imports reach a failed one (possible only inside
        dependency cycles, where an importer can complete before its
        partner fails) -- those schemas would carry dangling imports, so
        they are withdrawn from the run and marked failed too.
        """
        cascaded: list[LibraryFailure] = []
        if key in self._failed:
            return
        # An error that propagated out of a failed dependency's build is
        # re-labelled as an import failure so the chain reads causally.
        culprit = next(
            (f for f in self._failed.values() if f.error is error), None
        )
        if culprit is not None:
            chained = GenerationError(
                f"{library.stereotype} {library.name!r} imports failed "
                f"library {culprit.library_name!r}"
            )
            chained.__cause__ = error
            error = chained
        elif not isinstance(error, GenerationError):
            wrapped = GenerationError(
                f"building {library.stereotype} {library.name!r} failed: {error}"
            )
            wrapped.__cause__ = error
            error = wrapped
        failure = LibraryFailure(library.name, library.stereotype, key[1], error)
        self._failed[key] = failure
        changed = True
        while changed:
            changed = False
            for built_key, deps in list(self._deps.items()):
                if built_key in self._failed:
                    continue
                if not any(dep in self._failed for dep in deps):
                    continue
                poisoned = self._generated.pop(built_key, None)
                self._run_keys.pop(built_key, None)
                if poisoned is None:
                    continue
                chained = GenerationError(
                    f"{poisoned.library.stereotype} {poisoned.library.name!r} "
                    f"imports failed library {library.name!r}"
                )
                chained.__cause__ = failure.error
                self._failed[built_key] = LibraryFailure(
                    poisoned.library.name,
                    poisoned.library.stereotype,
                    built_key[1],
                    chained,
                )
                cascaded.append(self._failed[built_key])
                changed = True
        counter("xsdgen.library_failures", stereotype=library.stereotype).inc()
        self.session.status(f"ERROR: {failure}")
        _log.warning("library build failed: %s", failure)
        for poisoned_failure in cascaded:
            counter(
                "xsdgen.library_failures", stereotype=poisoned_failure.stereotype
            ).inc()
            self.session.status(f"ERROR: {poisoned_failure}")
            _log.warning("library build failed: %s", poisoned_failure)

    def _run_schemas(self) -> dict[str, GeneratedSchema]:
        """Every schema successfully built or reused during this run.

        Collect-mode result scoping: the run's touched keys, minus failed
        ones, in first-touch order.  Equals the reachable set when nothing
        failed, and never leaks schemas from a previous run.
        """
        keys = [key for key in self._run_keys if key not in self._failed]
        return {
            generated.namespace.urn: generated
            for key in keys
            if (generated := self._generated.get(key)) is not None
        }

    def _reachable_schemas(self, library: Library, root: "Abie | str | None") -> dict[str, GeneratedSchema]:
        """The schemas transitively reachable from the requested library."""
        start = self._memo_key(library, root)
        order: list[_MemoKey] = []
        seen: set[_MemoKey] = set()
        queue: list[_MemoKey] = [start]
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            order.append(key)
            queue.extend(self._deps.get(key, ()))
        schemas: dict[str, GeneratedSchema] = {}
        for key in order:
            generated = self._generated.get(key)
            if generated is not None:
                schemas[generated.namespace.urn] = generated
        return schemas

    # -- collect-mode prebuild ------------------------------------------------------

    def _prebuild_in_dependency_order(self, library: Library, root: "Abie | str | None") -> None:
        """Build the reachable library graph dependencies-first.

        The graph is discovered structurally and condensed into SCCs
        (cyclic libraries build together, preserving the on-demand cycle
        handling).  A failed component is recorded and the loop moves on:
        dependent components fail fast into the collected failures while
        independent ones still build.  The subsequent pass in
        :meth:`generate` then assembles the result purely from memo hits.
        """
        graph: dict[int, tuple[Library, list[int]]] = {}

        def discover(candidate: Library) -> None:
            node = id(candidate.element)
            if node in graph:
                return
            dependencies = library_dependencies(self.model, candidate)
            graph[node] = (candidate, [id(dep.element) for dep in dependencies])
            for dependency in dependencies:
                discover(dependency)

        discover(library)
        if len(graph) < 2:
            return
        entry_node = id(library.element)
        with span("xsdgen.prebuild", libraries=len(graph)):
            # Tarjan emits components dependencies-first, so an in-order
            # loop never builds an importer before its imports.
            for component in _strongly_connected({node: deps for node, (_, deps) in graph.items()}):
                try:
                    for node in component:
                        self.ensure_library(graph[node][0], root if node == entry_node else None)
                except ReproError:
                    # Already recorded by ensure_library.
                    pass

    # -- single-library build -------------------------------------------------------

    def _build(self, library: Library, root: "Abie | str | None") -> tuple[GeneratedSchema, list[Library]]:
        from repro.xsdgen import bie_library, cdt_library, doc_library, enum_library, qdt_library

        stereotype = library.stereotype
        if stereotype == PRIM_LIBRARY:
            self.session.fail(
                f"no schema generation mechanism is implemented for PRIMLibraries "
                f"({library.name!r}); XSD built-in types are used instead"
            )
        with span("xsdgen.library", library=library.name, stereotype=stereotype):
            builder = SchemaBuilder(self, library)
            self.session.status(f"Building {stereotype} schema {builder.namespace.urn}")
            _log.debug("building %s schema %s", stereotype, builder.namespace.urn)
            if stereotype == DOC_LIBRARY:
                doc_library.build(builder, root)
            elif stereotype == BIE_LIBRARY:
                bie_library.build(builder)
            elif stereotype == CDT_LIBRARY:
                cdt_library.build(builder)
            elif stereotype == QDT_LIBRARY:
                qdt_library.build(builder)
            elif stereotype == ENUM_LIBRARY:
                enum_library.build(builder)
            else:
                self.session.fail(
                    f"cannot generate a schema for library stereotype {stereotype!r}"
                )
            counter("xsdgen.schemas_generated").inc()
            counter("xsdgen.provenance_records").inc(len(builder.provenance))
        return (
            GeneratedSchema(
                library,
                builder.namespace,
                builder.schema,
                log=builder.provenance,
                embed_provenance=self.options.embed_provenance,
            ),
            builder.imported_libraries,
        )

    def library_of(self, wrapper: ElementWrapper) -> Library:
        """The library owning a wrapped element (error when homeless)."""
        library = self.model.owning_library_of(wrapper.element)
        if library is None:
            raise GenerationError(
                f"element {wrapper.name!r} is not owned by any library; "
                f"cannot determine its schema"
            )
        return library


def _strongly_connected(nodes: dict[int, list[int]]) -> list[list[int]]:
    """Tarjan's SCC over ``node -> dependency nodes``; edges to unknown
    nodes are ignored.  Components come out dependencies-first (reverse
    topological order of the condensation), which is exactly the build
    order the collect-mode prebuild needs.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0

    def strong(v: int) -> None:
        nonlocal next_index
        index[v] = low[v] = next_index
        next_index += 1
        stack.append(v)
        on_stack.add(v)
        for w in nodes[v]:
            if w not in nodes:
                continue
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component: list[int] = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            components.append(component)

    for v in nodes:
        if v not in index:
            strong(v)
    return components
