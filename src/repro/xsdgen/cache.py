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
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

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
from repro.uml.elements import Element, structural_revision
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
CACHE_FORMAT_VERSION = 2

#: Library stereotypes that generate a schema document of their own.
_SCHEMA_STEREOTYPES = frozenset(
    {BIE_LIBRARY, CDT_LIBRARY, DOC_LIBRARY, ENUM_LIBRARY, QDT_LIBRARY}
)

_FIELD_SEP = "\x1f"
_RECORD_SEP = "\x1e"

#: Cross-run fingerprint memo: (library id, root, options...) -> (revision,
#: digest).  An entry is valid while :func:`structural_revision` has not
#: moved since it was computed.  That makes the key safe against ``id()``
#: recycling too: a looked-up library is reachable through a live wrapper,
#: and any *other* object at a recycled address must have been constructed
#: after the entry -- which bumps the revision and invalidates it.
_fingerprint_memo: dict[tuple, tuple[int, str]] = {}
_fingerprint_memo_lock = threading.Lock()
_FINGERPRINT_MEMO_LIMIT = 1024


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


class FingerprintContext:
    """Per-run memo for fingerprint computations over an unchanging model.

    Fingerprinting several libraries of one model re-hashes shared
    subtrees (a CDT referenced by three libraries is walked for each of
    their fingerprints).  A context deduplicates that work: subtree
    digests and reference scans are computed once per element.  Create
    one per generation run and drop it before the model can mutate.
    """

    __slots__ = ("subtree_digests", "scans")

    def __init__(self) -> None:
        self.subtree_digests: dict[int, str] = {}
        self.scans: dict[int, _References] = {}


def _subtree_digest(root: Element, context: FingerprintContext | None) -> str:
    """The standalone digest of one element subtree, memoized per context."""
    if context is not None:
        cached = context.subtree_digests.get(id(root))
        if cached is not None:
            return cached
    hasher = _Hasher()
    for element in root.walk():
        _hash_element(hasher, element)
    digest = hasher.hexdigest()
    if context is not None:
        context.subtree_digests[id(root)] = digest
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


def _scan_references(
    model: "CctsModel",
    library: "Library",
    context: FingerprintContext | None = None,
) -> _References:
    """Everything a library's schema can reference, in deterministic order.

    Covers attribute (BCC/BBIE/CON/SUP) types, association (ASCC/ASBIE)
    targets -- including connectors drawn in *other* packages, which the
    generator follows model-wide -- and ``basedOn`` dependency suppliers
    (the QDT -> CDT link).
    """
    if context is not None:
        cached = context.scans.get(id(library.element))
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
    references = _References(classifiers, associations, dependencies)
    if context is not None:
        context.scans[id(library.element)] = references
    return references


def fingerprint_library(
    model: "CctsModel",
    library: "Library",
    options: "GenerationOptions",
    root_name: str | None = None,
    context: FingerprintContext | None = None,
) -> str:
    """The structural fingerprint keying one library's generated schema.

    Stable across model rebuilds (no ``id()``/ordering-of-creation leaks),
    sensitive to every model fact that can alter the schema bytes: the
    library's own element tree, associations drawn elsewhere, ``basedOn``
    links, the content of directly referenced external classifiers, the
    namespace identity of their owning libraries, the output-affecting
    generation options and -- for DOC libraries -- the chosen root.

    ``context`` (a :class:`FingerprintContext`) shares subtree digests and
    reference scans across fingerprints of the same unmutated model.
    Results are additionally memoized across runs against the model's
    :func:`~repro.uml.elements.structural_revision`, so regenerating an
    unchanged model costs one dict lookup per library instead of a walk.
    """
    revision = structural_revision()
    memo_key = (
        id(library.element),
        root_name or "",
        options.annotated,
        options.shared_aggregation_as_ref,
        options.include_version_in_urn,
    )
    with _fingerprint_memo_lock:
        hit = _fingerprint_memo.get(memo_key)
        if hit is not None and hit[0] == revision:
            return hit[1]
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
    hasher.record("walk", _subtree_digest(library.element, context))
    references = _scan_references(model, library, context)
    for association in references.associations:
        hasher.record("xassoc", _subtree_digest(association, context))
    for dependency in references.dependencies:
        _hash_element(hasher, dependency)
    library_element = library.element
    for classifier in references.classifiers:
        owning = model.owning_library_of(_WrapperShim(classifier))
        if owning is None or owning.element is library_element:
            continue
        hasher.record("xref", *_library_identity(owning))
        hasher.record("xwalk", _subtree_digest(classifier, context))
    digest = hasher.hexdigest()
    with _fingerprint_memo_lock:
        if len(_fingerprint_memo) >= _FINGERPRINT_MEMO_LIMIT:
            # Entries from older revisions can never hit again; drop them.
            stale = [k for k, v in _fingerprint_memo.items() if v[0] != revision]
            for k in stale:
                del _fingerprint_memo[k]
        _fingerprint_memo[memo_key] = (revision, digest)
    return digest


class _WrapperShim:
    """Minimal duck-typed wrapper accepted by ``owning_library_of``."""

    __slots__ = ("element",)

    def __init__(self, element: Element) -> None:
        self.element = element


def library_dependencies(
    model: "CctsModel",
    library: "Library",
    context: FingerprintContext | None = None,
) -> "list[Library]":
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
    for classifier in _scan_references(model, library, context).classifiers:
        owning = model.owning_library_of(_WrapperShim(classifier))
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
    is identical to a cold run's.
    """

    key: str
    library_name: str
    stereotype: str
    root_name: str | None
    namespace: LibraryNamespace
    schema: Schema
    dependencies: tuple[str, ...]
    provenance: "tuple[ProvenanceRecord, ...]" = ()

    def to_payload(self) -> dict:
        """The JSON-ready disk representation (schema serialized to text)."""
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
            "schema": schema_to_string(self.schema),
            "provenance": [record.to_dict() for record in self.provenance],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CachedGeneration | None":
        """Rebuild an entry from its disk form; None when incompatible."""
        if payload.get("format") != CACHE_FORMAT_VERSION:
            return None
        from repro.xsdgen.provenance import ProvenanceRecord

        namespace = LibraryNamespace(**payload["namespace"])
        return cls(
            key=payload["key"],
            library_name=payload["library"],
            stereotype=payload["stereotype"],
            root_name=payload.get("root"),
            namespace=namespace,
            schema=parse_schema(payload["schema"]),
            dependencies=tuple(payload.get("dependencies", ())),
            provenance=tuple(
                ProvenanceRecord.from_dict(record)
                for record in payload.get("provenance", ())
            ),
        )


class GenerationCache:
    """Thread-safe LRU of generated schemas with an optional disk layer.

    One cache instance is safely shared by any number of generators (and
    threads).  Keys are :func:`fingerprint_library` digests, so a model
    mutation -- or an options/root change -- misses instead of returning a
    stale schema.  When ``cache_dir`` is set, entries are also persisted
    as ``{fingerprint}.json`` files and survive the process; a fingerprint
    change simply keys a new file, leaving the stale one unread.
    """

    def __init__(self, max_entries: int = 256, cache_dir: str | Path | None = None) -> None:
        if max_entries < 1:
            raise ValueError("GenerationCache needs max_entries >= 1")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: OrderedDict[str, CachedGeneration] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = counter("xsdgen.cache_hits")
        self._misses = counter("xsdgen.cache_misses")
        self._evictions = counter("xsdgen.cache_evictions")
        self._size = gauge("xsdgen.cache_size")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> CachedGeneration | None:
        """The entry for ``key``, from memory or disk; None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry
        entry = self._load_from_disk(key)
        if entry is not None:
            self._hits.inc()
            self._insert(entry)
            return entry
        self._misses.inc()
        return None

    def put(self, entry: CachedGeneration) -> None:
        """Insert (or refresh) an entry; persists when disk is enabled."""
        self._insert(entry)
        if self.cache_dir is not None:
            self._write_to_disk(entry)

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left alone)."""
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    def keys(self) -> list[str]:
        """The in-memory keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    # -- internals --------------------------------------------------------------

    def _insert(self, entry: CachedGeneration) -> None:
        with self._lock:
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._entries))

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
        except OSError as error:
            _log.warning("cannot persist cache entry to %s: %s", self.cache_dir, error)


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


def cache_for_directory(cache_dir: str | Path, max_entries: int = 256) -> GenerationCache:
    """The shared cache backed by ``cache_dir`` (one instance per path)."""
    key = str(Path(cache_dir).resolve())
    with _registry_lock:
        cache = _directory_caches.get(key)
        if cache is None:
            cache = GenerationCache(max_entries=max_entries, cache_dir=cache_dir)
            _directory_caches[key] = cache
        return cache
