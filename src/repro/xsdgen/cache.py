"""The generation cache: structural fingerprints, LRU memory, disk layer.

The generator regenerated every schema from scratch on each run, and its
old memo keyed on ``id(library.element)`` alone -- correct only for one
``generate()`` call on one model object.  This module supplies the real
subsystem:

* :func:`fingerprint_library` -- a stable SHA-256 content hash over a
  library's elements, tagged values and cross-library references, mixed
  with the :class:`~repro.xsdgen.session.GenerationOptions` that affect
  schema bytes and the chosen DOC root.  Two structurally equivalent
  models produce the same fingerprint; any mutation that can change the
  generated schema changes it.
* :func:`library_dependencies` -- the libraries a library's schema will
  import, derived structurally (without generating).  The generator uses
  it to build the library DAG dependencies-first in collect mode.
* :class:`GenerationCache` -- a thread-safe in-memory LRU of generated
  schemas, shareable across :class:`~repro.xsdgen.generator.SchemaGenerator`
  instances, with an optional persistent on-disk layer (``cache_dir``)
  that round-trips serialized schemas and invalidates by fingerprint.

Cache observability: ``xsdgen.cache_hits`` / ``xsdgen.cache_misses`` /
``xsdgen.cache_evictions`` counters and the ``xsdgen.cache_size`` gauge
(see docs/observability.md).

Failure isolation: the generator inserts an entry only after a library's
build completed -- a build that raises (including under the
``on_error="collect"`` recovery policy) never reaches :meth:`GenerationCache.put`,
so a failed library can never poison this cache for later runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.lru import Lru
from repro.ndr.namespaces import LibraryNamespace
from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import counter, gauge
from repro.profile import (
    BIE_LIBRARY,
    CDT_LIBRARY,
    DOC_LIBRARY,
    ENUM_LIBRARY,
    QDT_LIBRARY,
)
from repro.uml.association import Association, AssociationEnd
from repro.uml.classifier import Classifier, EnumerationLiteral
from repro.uml.dependency import Dependency
from repro.uml.elements import Element
from repro.uml.property import Property
from repro.xsd.components import Schema
from repro.xsd.parser import parse_schema
from repro.xsd.writer import schema_to_string

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccts.libraries import Library
    from repro.ccts.model import CctsModel
    from repro.xsdgen.provenance import ProvenanceRecord
    from repro.xsdgen.session import GenerationOptions

_log = get_logger("repro.xsdgen")

#: Bump when the fingerprint recipe or the disk format changes.
#: v2: entries carry the schema's provenance records.
#: v3: ASBIE/ASCC provenance sources name the owning ABIE/ACC plus the role.
#: v4: entries name their dependencies by qualified name.
CACHE_FORMAT_VERSION = 4

#: Library stereotypes that generate a schema document of their own.
_SCHEMA_STEREOTYPES = frozenset(
    {BIE_LIBRARY, CDT_LIBRARY, DOC_LIBRARY, ENUM_LIBRARY, QDT_LIBRARY}
)

_FIELD_SEP = "\x1f"
_RECORD_SEP = "\x1e"

#: First fields of this module's keys in ``Model.derived()``.
_FINGERPRINT = "xsdgen.fingerprint"
_SUBTREE = "xsdgen.subtree"
_REFERENCES = "xsdgen.references"

#: The disk layer's file names (a SHA-256 fingerprint), and no other file.
_CACHE_FILES = "[0-9a-f]" * 64 + ".json"


class _Hasher:
    """Feeds canonical token records into one SHA-256 digest."""

    __slots__ = ("_digest",)

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def record(self, *fields: object) -> None:
        """Hash one record of stringified fields."""
        line = _FIELD_SEP.join("" if f is None else str(f) for f in fields)
        self._digest.update(line.encode("utf-8"))
        self._digest.update(_RECORD_SEP.encode("utf-8"))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _hash_element(hasher: _Hasher, element: Element) -> None:
    """Hash one element's identity-free structural facts."""
    hasher.record("elem", type(element).__name__, getattr(element, "name", ""))
    for stereotype in sorted(element.stereotype_applications):
        tags = element.stereotype_applications[stereotype]
        hasher.record("stereo", stereotype)
        for key in sorted(tags):
            hasher.record("tag", key, tags[key])
    if element.documentation:
        hasher.record("doc", element.documentation)
    if isinstance(element, Property):
        type_name = element.type.qualified_name if element.type is not None else ""
        hasher.record("prop", type_name, str(element.multiplicity), element.default)
    elif isinstance(element, AssociationEnd):
        hasher.record(
            "end",
            element.type.qualified_name,
            str(element.multiplicity),
            element.aggregation.value,
            element.navigable,
        )
    elif isinstance(element, EnumerationLiteral):
        hasher.record("literal", element.value)
    elif isinstance(element, Dependency):
        hasher.record(
            "dependency",
            element.client.qualified_name,
            element.supplier.qualified_name,
        )


def _subtree_digest(model: "CctsModel", root: Element) -> str:
    """The standalone digest of one element subtree, memoized per model version."""
    memo = model.model.derived()
    key = (_SUBTREE, root)
    digest = memo.get(key)
    if digest is None:
        hasher = _Hasher()
        for element in root.walk():
            _hash_element(hasher, element)
        digest = memo[key] = hasher.hexdigest()
    return digest


def _library_identity(library: "Library") -> tuple[str, ...]:
    """The namespace-determining facts of a library."""
    return (
        library.stereotype,
        library.name,
        library.base_urn,
        library.status,
        library.library_version,
        library.namespace_prefix or "",
    )


@dataclass
class _References:
    """Cross-library facts gathered in one structural scan."""

    classifiers: list[Classifier]
    associations: list[Association]
    dependencies: list[Dependency]


def _scan_references(model: "CctsModel", library: "Library") -> _References:
    """Everything a library's schema can reference, in deterministic order.

    Covers attribute (BCC/BBIE/CON/SUP) types, association (ASCC/ASBIE)
    targets -- including connectors drawn in *other* packages, which the
    generator follows model-wide -- and ``basedOn`` dependency suppliers
    (the QDT -> CDT link).  Memoized per model version.
    """
    memo = model.model.derived()
    key = (_REFERENCES, library.element)
    cached = memo.get(key)
    if cached is not None:
        return cached
    classifiers: list[Classifier] = []
    seen: set[int] = set()

    def note(classifier: Classifier | None) -> None:
        if classifier is None or id(classifier) in seen:
            return
        seen.add(id(classifier))
        classifiers.append(classifier)

    associations: list[Association] = []
    dependencies: list[Dependency] = []
    uml = model.model
    for element in library.element.walk():
        if isinstance(element, Property):
            note(element.type)
        if isinstance(element, Classifier):
            for association in uml.associations_anywhere_from(element):
                associations.append(association)
                note(association.target.type)
            for dependency in uml.dependencies_of(element):
                dependencies.append(dependency)
                supplier = dependency.supplier
                if isinstance(supplier, Classifier):
                    note(supplier)
    references = memo[key] = _References(classifiers, associations, dependencies)
    return references


def fingerprint_library(
    model: "CctsModel",
    library: "Library",
    options: "GenerationOptions",
    root_name: str | None = None,
) -> str:
    """The structural fingerprint keying one library's generated schema.

    Stable across model rebuilds (no ``id()``/ordering-of-creation leaks),
    sensitive to every model fact that can alter the schema bytes: the
    library's own element tree, associations drawn elsewhere, ``basedOn``
    links, the content of directly referenced external classifiers, the
    namespace identity of their owning libraries, the output-affecting
    generation options and -- for DOC libraries -- the chosen root.

    Results, subtree digests and reference scans are memoized in the
    model's :meth:`~repro.uml.model.Model.derived`, so regenerating a model
    whose version has not moved costs one dict lookup per library instead
    of a walk, and libraries sharing a referenced subtree hash it once.
    """
    memo = model.model.derived()
    memo_key = (
        _FINGERPRINT,
        library.element,
        root_name or "",
        options.annotated,
        options.shared_aggregation_as_ref,
        options.include_version_in_urn,
    )
    hit = memo.get(memo_key)
    if hit is not None:
        return hit
    hasher = _Hasher()
    hasher.record("format", CACHE_FORMAT_VERSION)
    hasher.record("library", *_library_identity(library))
    hasher.record(
        "options",
        options.annotated,
        options.shared_aggregation_as_ref,
        options.include_version_in_urn,
    )
    hasher.record("root", root_name or "")
    hasher.record("walk", _subtree_digest(model, library.element))
    references = _scan_references(model, library)
    for association in references.associations:
        hasher.record("xassoc", _subtree_digest(model, association))
    for dependency in references.dependencies:
        _hash_element(hasher, dependency)
    library_element = library.element
    for classifier in references.classifiers:
        owning = model.owning_library_of(classifier)
        if owning is None or owning.element is library_element:
            continue
        hasher.record("xref", *_library_identity(owning))
        hasher.record("xwalk", _subtree_digest(model, classifier))
    digest = memo[memo_key] = hasher.hexdigest()
    return digest


def library_dependencies(model: "CctsModel", library: "Library") -> "list[Library]":
    """The libraries whose schemas ``library``'s schema may import.

    A structural over-approximation of the imports the builders resolve at
    generation time: every referenced classifier's owning library, minus
    the library itself and libraries without a schema of their own
    (PRIMLibraries map onto XSD built-in types; CCLibraries are modeling
    provenance reached via ``basedOn``, never imported).  Order is
    deterministic (first-reference order).
    """
    found: list[Library] = []
    seen: set[int] = set()
    for classifier in _scan_references(model, library).classifiers:
        owning = model.owning_library_of(classifier)
        if owning is None or owning.element is library.element:
            continue
        if owning.stereotype not in _SCHEMA_STEREOTYPES:
            continue
        if id(owning.element) in seen:
            continue
        seen.add(id(owning.element))
        found.append(owning)
    return found


@dataclass
class CachedGeneration:
    """One cached library schema plus the facts needed to reuse it.

    ``provenance`` replays the schema's provenance records on a cache
    hit, so a warm-cache run's :class:`~repro.xsdgen.provenance.ProvenanceIndex`
    is identical to a cold run's.  ``texts`` holds the serialized schema
    per ``embed_provenance`` setting, filled on first render (see
    :meth:`~repro.xsdgen.generator.GeneratedSchema.to_string`) or from the
    disk form, so a hit never runs the XSD writer again.
    """

    key: str
    library_name: str
    stereotype: str
    root_name: str | None
    namespace: LibraryNamespace
    schema: Schema
    dependencies: tuple[str, ...]
    provenance: "tuple[ProvenanceRecord, ...]" = ()
    texts: dict[bool, str] = field(default_factory=dict, repr=False, compare=False)

    def text(self, embed_provenance: bool, render: Callable[[], str]) -> str:
        """The kept text for one ``embed_provenance`` setting; ``render``
        produces it on first use.  Threads racing on a first render store
        equal texts."""
        text = self.texts.get(embed_provenance)
        if text is None:
            text = self.texts[embed_provenance] = render()
        return text

    def to_payload(self) -> dict:
        """The JSON-ready disk representation (schema serialized to text)."""
        text = self.text(False, lambda: schema_to_string(self.schema))
        return {
            "format": CACHE_FORMAT_VERSION,
            "key": self.key,
            "library": self.library_name,
            "stereotype": self.stereotype,
            "root": self.root_name,
            "namespace": {
                "urn": self.namespace.urn,
                "folder": self.namespace.folder,
                "file_name": self.namespace.file_name,
                "preferred_prefix": self.namespace.preferred_prefix,
                "stereotype": self.namespace.stereotype,
            },
            "dependencies": list(self.dependencies),
            "schema": text,
            "provenance": [record.to_dict() for record in self.provenance],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CachedGeneration | None":
        """Rebuild an entry from its disk form; None when incompatible."""
        if payload.get("format") != CACHE_FORMAT_VERSION:
            return None
        from repro.xsdgen.provenance import ProvenanceRecord

        namespace = LibraryNamespace(**payload["namespace"])
        text = payload["schema"]
        return cls(
            key=payload["key"],
            library_name=payload["library"],
            stereotype=payload["stereotype"],
            root_name=payload.get("root"),
            namespace=namespace,
            schema=parse_schema(text),
            dependencies=tuple(payload.get("dependencies", ())),
            provenance=tuple(
                ProvenanceRecord.from_dict(record)
                for record in payload.get("provenance", ())
            ),
            texts={False: text},
        )


class GenerationCache:
    """Thread-safe LRU of generated schemas with an optional disk layer.

    One cache instance is safely shared by any number of generators (and
    threads).  Keys are :func:`fingerprint_library` digests, so a model
    mutation -- or an options/root change -- misses instead of returning a
    stale schema.  When ``cache_dir`` is set, entries are also persisted
    as ``{fingerprint}.json`` files and survive the process; a fingerprint
    change keys a new file, and each write prunes the oldest past ``max_entries``.
    """

    def __init__(self, max_entries: int = 256, cache_dir: str | Path | None = None) -> None:
        self._entries: Lru[str, CachedGeneration] = Lru(max_entries)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> CachedGeneration | None:
        """The entry for ``key``, from memory or disk; None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._load_from_disk(key)
            if entry is None:
                counter("xsdgen.cache_misses").inc()
                return None
            self._insert(entry)
        counter("xsdgen.cache_hits").inc()
        return entry

    def put(self, entry: CachedGeneration) -> None:
        """Insert (or refresh) an entry; persists when disk is enabled."""
        self._insert(entry)
        if self.cache_dir is not None:
            self._write_to_disk(entry)

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left alone)."""
        self._entries.clear()
        gauge("xsdgen.cache_size").set(0)

    def keys(self) -> list[str]:
        """The in-memory keys, least- to most-recently used."""
        return self._entries.keys()

    # -- internals --------------------------------------------------------------

    def _insert(self, entry: CachedGeneration) -> None:
        counter("xsdgen.cache_evictions").inc(len(self._entries.put(entry.key, entry)))
        gauge("xsdgen.cache_size").set(len(self._entries))

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _load_from_disk(self, key: str) -> CachedGeneration | None:
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return CachedGeneration.from_payload(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            # A corrupt or foreign file is a miss, not a failure.
            _log.warning("ignoring unreadable cache file %s: %s", path, error)
            return None

    def _write_to_disk(self, entry: CachedGeneration) -> None:
        assert self.cache_dir is not None
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._disk_path(entry.key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(
                json.dumps(entry.to_payload(), indent=2, sort_keys=True),
                encoding="utf-8",
            )
            tmp.replace(path)
            self._prune_disk(path)
        except OSError as error:
            _log.warning("cannot persist cache entry to %s: %s", self.cache_dir, error)

    def _prune_disk(self, written: Path) -> None:
        """Delete the oldest files (by mtime) past ``max_entries``; ``written``
        counts as the newest, since file times are coarse enough to tie."""
        aged: list[tuple[bool, int, Path]] = []
        for path in written.parent.glob(_CACHE_FILES):
            try:
                aged.append((path == written, path.stat().st_mtime_ns, path))
            except FileNotFoundError:
                continue
        aged.sort(reverse=True)
        for _written, _mtime, path in aged[self._entries.max_entries:]:
            path.unlink(missing_ok=True)


#: The process-wide cache shared by generators that enable caching.
_default_cache = GenerationCache()
_directory_caches: dict[str, GenerationCache] = {}
_registry_lock = threading.Lock()


def get_generation_cache() -> GenerationCache:
    """The process-global in-memory generation cache."""
    return _default_cache


def set_generation_cache(cache: GenerationCache) -> GenerationCache:
    """Replace the process-global cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def cache_for_directory(cache_dir: str | Path) -> GenerationCache:
    """The shared cache backed by ``cache_dir`` (one instance per path)."""
    key = str(Path(cache_dir).resolve())
    with _registry_lock:
        cache = _directory_caches.get(key)
        if cache is None:
            cache = GenerationCache(cache_dir=cache_dir)
            _directory_caches[key] = cache
        return cache
