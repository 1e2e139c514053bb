"""Schema provenance: which model element and NDR rule produced what.

The paper's generator (section 4, Figures 6-8) maps every profiled UML
element onto an XSD construct by a fixed naming-and-design rule.  This
module records that mapping explicitly: every construct a library builder
emits carries a :class:`ProvenanceRecord` naming

* the **target** -- schema namespace/file, XSD component kind, local name
  and a slash path inside the document (``HoardingPermitType/StartDate``,
  ``CodeType/@listID``),
* the **source** -- the UML element's ``xmi:id``, qualified package path
  and stereotype, plus the ACC/BCC/CDT it is ``basedOn`` when the model
  records a derivation,
* the **rule** -- one id from :data:`NDR_RULES`, and
* the **import edge** -- the foreign namespace URN when the construct's
  type lives in another library's schema.

Records are collected per generated library in a :class:`ProvenanceLog`
(so the generator's memo and the fingerprint-keyed cache replay them
together with the schema bytes).  A builder notes only the raw facts of
each construct; the records are built when someone first reads them, so
a run whose provenance nobody reads never pays for it.  They are
queried through a thread-safe :class:`ProvenanceIndex` in both
directions: ``by_target`` answers "which model element produced this
complexType", ``by_source`` answers "what did this UML element turn
into".  :func:`coverage` inverts the index into a dead-model report: the
elements of generated libraries that produced no XSD artifact at all.

Serialization is JSON-per-record (:meth:`ProvenanceRecord.to_dict`), used
by the disk cache, the ``provenance.jsonl`` sidecar export and the
``xs:appinfo`` embedding; see docs/observability.md ("Provenance").
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import CctsError, GenerationError
from repro.obs.metrics import gauge

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccts.base import ElementWrapper
    from repro.uml.classifier import Classifier
    from repro.uml.model import Model

#: NDR rule catalog: rule id -> the paper's transformation rule it encodes.
#: Ids are stable API -- `upcc explain` prints them and tests assert them.
NDR_RULES: dict[str, str] = {
    "NDR-ABIE-CT": (
        "Every ABIE becomes a complexType named after the business entity "
        "plus a Type postfix, a sequence of BBIE then ASBIE elements (Figs. 6-7)."
    ),
    "NDR-BBIE-EL": (
        "Every BBIE becomes a local element named after the attribute, typed "
        "by its CDT/QDT complexType, multiplicity from the UML model (s. 4.1)."
    ),
    "NDR-ASBIE-INLINE": (
        "A composition ASBIE becomes an inline local element whose compound "
        "name is role + target ABIE name, typed by the target's complexType (Fig. 6)."
    ),
    "NDR-ASBIE-REF": (
        "A shared-aggregation ASBIE is first declared as a global element and "
        "then referenced from the sequence (Fig. 7)."
    ),
    "NDR-DOC-ROOT": (
        "The selected root element of a DOCLibrary is declared as the global "
        "document element, typed by its ABIE complexType (Fig. 6)."
    ),
    "NDR-CDT-CT": (
        "Every CDT becomes a complexType with simpleContent whose extension "
        "base is the content component's type (Fig. 8)."
    ),
    "NDR-CON-BASE": (
        "The content component determines the simpleContent base type: an XSD "
        "built-in for primitives, the enumeration simpleType otherwise (Fig. 8)."
    ),
    "NDR-SUP-ATTR": (
        "Every supplementary component becomes an attribute of the data "
        "type's complexType; type and multiplicity from the UML model (Fig. 8)."
    ),
    "NDR-QDT-ENUM": (
        "A QDT whose content component is enum-restricted extends the "
        "enumeration's simpleType (s. 4.1)."
    ),
    "NDR-QDT-RESTRICT": (
        "A QDT without an enumeration restricts the underlying CDT's "
        "complexType (s. 4.1)."
    ),
    "NDR-QDT-SUP-PROHIBIT": (
        "A supplementary component dropped by the QDT derivation is "
        "explicitly prohibited in the schema-level restriction."
    ),
    "NDR-ENUM-ST": (
        "Every ENUM becomes a simpleType restricting xsd:token with one "
        "enumeration facet per literal (s. 4.1)."
    ),
    "NDR-PRIM-BUILTIN": (
        "PRIMLibraries generate no schema; primitive types map onto XSD "
        "built-in types (s. 4.1)."
    ),
    "NDR-IMPORT": (
        "A reference to an element defined in a different library imports "
        "that library's (transitively generated) schema (s. 4)."
    ),
}


@dataclass(frozen=True)
class ProvenanceRecord:
    """One emitted XSD construct traced back to its UML source and NDR rule."""

    target_namespace: str
    schema_file: str
    target_kind: str
    target_name: str
    target_path: str
    source_stereotype: str
    source_name: str
    source_path: str
    source_id: str | None
    rule: str
    based_on: str | None = None
    imported_namespace: str | None = None

    @property
    def rule_text(self) -> str:
        """The catalog text of this record's NDR rule."""
        return NDR_RULES.get(self.rule, "(unknown rule)")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (None fields omitted)."""
        data: dict[str, object] = {
            "target_namespace": self.target_namespace,
            "schema_file": self.schema_file,
            "target_kind": self.target_kind,
            "target_name": self.target_name,
            "target_path": self.target_path,
            "source_stereotype": self.source_stereotype,
            "source_name": self.source_name,
            "source_path": self.source_path,
            "rule": self.rule,
        }
        if self.source_id is not None:
            data["source_id"] = self.source_id
        if self.based_on is not None:
            data["based_on"] = self.based_on
        if self.imported_namespace is not None:
            data["imported_namespace"] = self.imported_namespace
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            target_namespace=data["target_namespace"],
            schema_file=data["schema_file"],
            target_kind=data["target_kind"],
            target_name=data["target_name"],
            target_path=data["target_path"],
            source_stereotype=data["source_stereotype"],
            source_name=data["source_name"],
            source_path=data["source_path"],
            source_id=data.get("source_id"),
            rule=data["rule"],
            based_on=data.get("based_on"),
            imported_namespace=data.get("imported_namespace"),
        )

    def describe(self) -> str:
        """One human line: target <- source via rule."""
        parts = [
            f"{self.target_kind} {self.target_path}",
            f"<- {self.source_stereotype} {self.source_path}",
        ]
        if self.source_id:
            parts.append(f"(xmi:id {self.source_id})")
        parts.append(f"[{self.rule}]")
        if self.based_on:
            parts.append(f"basedOn {self.based_on}")
        if self.imported_namespace:
            parts.append(f"imports {self.imported_namespace}")
        return " ".join(parts)


class ProvenanceLog:
    """One schema document's provenance: raw facts now, records on first read.

    Builders :meth:`add` one plain tuple per emitted construct -- kind,
    name, path, source, rule and imported namespace -- and nothing else;
    :meth:`records` builds one :class:`ProvenanceRecord` per fact (source
    names, ``xmi:id`` and ``basedOn`` link) on first read and keeps them.
    The source names are read from the model as it is then, so the
    model's :attr:`~repro.uml.model.Model.version` must not have moved
    since the log was opened: a later read raises instead of returning
    new names.
    A log made with :meth:`of` holds records that are already built (a
    cache hit) and never checks the model.
    """

    __slots__ = ("model", "version", "namespace_urn", "schema_file", "facts", "_records")

    def __init__(self, model: "Model | None" = None, namespace_urn: str = "", schema_file: str = "") -> None:
        self.model = model
        self.version = model.version if model is not None else None
        self.namespace_urn = namespace_urn
        self.schema_file = schema_file
        self.facts: list[tuple] = []
        # None until built; a log without a model has nothing to build.
        self._records: list[ProvenanceRecord] | None = None if model is not None else []

    @classmethod
    def of(cls, records: Iterable[ProvenanceRecord]) -> "ProvenanceLog":
        """A log of records that are already built."""
        log = cls()
        log._records = list(records)
        return log

    def add(
        self,
        kind: str,
        name: str,
        path: str,
        source: "ElementWrapper | Classifier",
        rule: str,
        imported_namespace: str | None = None,
    ) -> None:
        """Note one emitted construct; ``source`` is a CCTS wrapper, or the
        raw classifier of an ``NDR-PRIM-BUILTIN`` mapping."""
        if rule not in NDR_RULES:
            raise ValueError(f"unknown NDR rule id {rule!r}")
        self.facts.append((kind, name, path, source, rule, imported_namespace))

    def __len__(self) -> int:
        return len(self._records) if self._records is not None else len(self.facts)

    def records(self) -> list[ProvenanceRecord]:
        """The records, in emission order (built on the first call)."""
        if self._records is None:
            model = self.model
            if model.version != self.version:
                raise GenerationError(
                    f"the model changed after generation of {self.schema_file}; "
                    f"generate again to read its provenance"
                )
            self._records = [self._record(*fact) for fact in self.facts]
        return self._records

    def _record(self, kind, name, path, source, rule, imported_namespace) -> ProvenanceRecord:
        if rule == "NDR-PRIM-BUILTIN":
            # PRIMLibraries generate no schema: the source is the raw UML
            # classifier standing behind the built-in, not a CCTS wrapper.
            return ProvenanceRecord(
                self.namespace_urn, self.schema_file, kind, name, path,
                "PRIM", source.name, self.model.qualified_name_of(source),
                getattr(source, "xmi_id", None), rule,
            )
        try:
            base = getattr(source, "based_on", None)
        except CctsError:
            base = None
        return ProvenanceRecord(
            self.namespace_urn, self.schema_file, kind, name, path,
            source.stereotype, source.name, source.qualified_name,
            source.element.xmi_id, rule,
            f"{base.stereotype} {base.qualified_name}" if base is not None else None,
            imported_namespace,
        )


#: `--target` spec: an XPath-ish ``//xsd:complexType[@name='X']`` form.
_TARGET_XPATH = re.compile(
    r"^//(?:xsd?:)?(?P<kind>\w+)\[@name=(?P<q>['\"]?)(?P<name>[^'\"\]]+)(?P=q)\]$"
)


def parse_target(spec: str) -> tuple[str | None, str]:
    """Parse a target spec into ``(kind, path)``.

    Accepts the XPath-ish form ``//xsd:complexType[@name='CodeType']``
    (kind constrained), a slash path ``HoardingPermitType/StartDate`` or a
    bare component name (kind unconstrained).
    """
    match = _TARGET_XPATH.match(spec.strip())
    if match:
        return match.group("kind"), match.group("name")
    return None, spec.strip()


class ProvenanceIndex:
    """Thread-safe, two-way queryable collection of provenance records."""

    def __init__(self, records: Iterable[ProvenanceRecord] = ()) -> None:
        self._lock = threading.Lock()
        self._records: list[ProvenanceRecord] = []
        self._by_source_path: dict[str, list[ProvenanceRecord]] = {}
        self._by_source_id: dict[str, list[ProvenanceRecord]] = {}
        for record in records:
            self.add(record)

    def add(self, record: ProvenanceRecord) -> None:
        """Index one record (both directions)."""
        with self._lock:
            self._records.append(record)
            self._by_source_path.setdefault(record.source_path, []).append(record)
            if record.source_id is not None:
                self._by_source_id.setdefault(record.source_id, []).append(record)

    def extend(self, records: Iterable[ProvenanceRecord]) -> None:
        """Index several records."""
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[ProvenanceRecord]:
        return iter(self.records())

    def records(self) -> list[ProvenanceRecord]:
        """Every record, in emission order (copy)."""
        with self._lock:
            return list(self._records)

    # -- queries ---------------------------------------------------------------

    def by_target(self, spec: str, namespace: str | None = None) -> list[ProvenanceRecord]:
        """Records whose target matches ``spec`` (see :func:`parse_target`).

        A bare name matches ``target_name`` and whole ``target_path``
        values; a slash path matches ``target_path`` exactly; the XPath
        form additionally constrains the component kind.  ``namespace``
        restricts matches to one schema's URN.
        """
        kind, path = parse_target(spec)
        with self._lock:
            hits = []
            for record in self._records:
                if namespace is not None and record.target_namespace != namespace:
                    continue
                if kind is not None and record.target_kind != kind:
                    continue
                if record.target_path == path or record.target_name == path:
                    hits.append(record)
            return hits

    def by_source(self, key: str) -> list[ProvenanceRecord]:
        """Records produced by a UML element: xmi:id, qualified name or name.

        Exact xmi:id and exact qualified-name hits are tried first; a bare
        element name falls back to a trailing-path match so
        ``by_source("HoardingPermit.StartDate")`` works without the full
        package path.
        """
        with self._lock:
            exact = self._by_source_id.get(key)
            if exact:
                return list(exact)
            exact = self._by_source_path.get(key)
            if exact:
                return list(exact)
            suffix = f".{key}"
            return [
                record
                for path, bucket in sorted(self._by_source_path.items())
                if path.endswith(suffix)
                for record in bucket
            ]

    def source_paths(self) -> set[str]:
        """The qualified names of every element that produced something."""
        with self._lock:
            return set(self._by_source_path)

    def namespaces(self) -> set[str]:
        """Every target namespace URN seen in the records."""
        with self._lock:
            return {record.target_namespace for record in self._records}

    # -- serialization ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per record, newline separated."""
        return "\n".join(
            json.dumps(record.to_dict(), sort_keys=True) for record in self.records()
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "ProvenanceIndex":
        """Rebuild an index from :meth:`to_jsonl` output."""
        records = [
            ProvenanceRecord.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(records)


def records_from_schema_text(text: str) -> list[ProvenanceRecord]:
    """Extract embedded ``xs:appinfo`` provenance records from schema text.

    The inverse of generating with ``embed_provenance=True``; an empty
    list when the document carries no provenance block.
    """
    import xml.etree.ElementTree as ET

    from repro.xsd.writer import PROVENANCE_NS

    root = ET.fromstring(text)
    return [
        ProvenanceRecord.from_dict(dict(node.attrib))
        for node in root.iter(f"{{{PROVENANCE_NS}}}record")
    ]


@dataclass
class CoverageReport:
    """Dead-model detection: elements of generated libraries without output."""

    total_elements: int
    mapped: int
    unmapped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every candidate element produced at least one artifact."""
        return not self.unmapped

    def render_text(self) -> str:
        """Human-readable coverage summary."""
        lines = [
            f"provenance coverage: {self.mapped}/{self.total_elements} model "
            f"element(s) produced XSD artifacts"
        ]
        for stereotype, path in self.unmapped:
            lines.append(f"  unmapped: {stereotype} {path}")
        return "\n".join(lines)


def _coverage_candidates(libraries: Iterable) -> list["ElementWrapper"]:
    """The schema-relevant wrappers of every library the run generated."""
    from repro.ccts.libraries import BieLibrary, CdtLibrary, EnumLibrary, QdtLibrary

    candidates: list[ElementWrapper] = []
    for library in libraries:
        if isinstance(library, BieLibrary):  # DocLibrary subclasses BieLibrary
            for abie in library.abies:
                candidates.append(abie)
                candidates.extend(abie.bbies)
                candidates.extend(abie.asbies)
        elif isinstance(library, QdtLibrary):
            for qdt in library.qdts:
                candidates.append(qdt)
                candidates.extend(qdt.supplementary_components)
        elif isinstance(library, CdtLibrary):
            for cdt in library.cdts:
                candidates.append(cdt)
                content = cdt.content_component
                if content is not None:
                    candidates.append(content)
                candidates.extend(cdt.supplementary_components)
        elif isinstance(library, EnumLibrary):
            candidates.extend(library.enumerations)
    return candidates


def coverage(libraries: Iterable, index: ProvenanceIndex) -> CoverageReport:
    """Which elements of the generated libraries produced no XSD artifact.

    ``libraries`` are the Library wrappers the run actually generated
    schemas for (a library the run never reached is absent by design, not
    dead); :meth:`~repro.xsdgen.generator.GenerationResult.coverage` passes
    them for you.  The ``xsdgen.unmapped_elements`` gauge is set to the
    unmapped count.
    """
    mapped_paths = index.source_paths()
    candidates = _coverage_candidates(libraries)
    unmapped = [
        (wrapper.stereotype, wrapper.qualified_name)
        for wrapper in candidates
        if wrapper.qualified_name not in mapped_paths
    ]
    report = CoverageReport(
        total_elements=len(candidates),
        mapped=len(candidates) - len(unmapped),
        unmapped=sorted(unmapped, key=lambda pair: pair[1]),
    )
    gauge("xsdgen.unmapped_elements").set(len(report.unmapped))
    return report
