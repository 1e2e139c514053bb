"""Instance-document validation against a set of generated schemas.

This is the consumer side of the paper's pipeline: "The schemas are then
used to validate XML messages exchanged during a business process."
:class:`SchemaSet` aggregates the schema documents a generation run
produced (one per library) and :func:`validate_instance` checks an instance
document against them -- content models, attribute uses and simple-type
facets -- through the set's compiled form (:mod:`repro.xsd.compiled`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import InstanceValidationError, SchemaError
from repro.xmlutil.qname import XML_NAMESPACE, QName, split_qname
from repro.xmlutil.writer import XmlElement
from repro.xsd.components import ComplexType, ElementDecl, Schema, SimpleType
from repro.xsd.parser import parse_schema
from repro.xsd.writer import schema_to_string

#: Attributes the validator ignores on instance elements.  The XML
#: namespace is listed because ``xml:lang``/``xml:space`` are implicitly
#: available on any element without a schema declaration.
_IGNORED_ATTR_NAMESPACES = (
    "http://www.w3.org/2001/XMLSchema-instance",
    "http://www.w3.org/2000/xmlns/",
    XML_NAMESPACE,
)


@dataclass(frozen=True)
class ValidationProblem:
    """One validation finding: an element path plus a message."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class _ResolvedElement:
    """An instance element with names resolved to QNames."""

    qname: QName
    attributes: dict[QName, str]
    children: list["_ResolvedElement"]
    text: str


def _resolve_instance(element: XmlElement, inherited: dict[str | None, str]) -> _ResolvedElement:
    scope = dict(inherited)
    plain_attrs: list[tuple[str, str]] = []
    for name, value in element.attributes.items():
        if name == "xmlns":
            scope[None] = value
        elif name.startswith("xmlns:"):
            scope[name[len("xmlns:"):]] = value
        else:
            plain_attrs.append((name, value))
    try:
        prefix, local = split_qname(element.tag)
    except ValueError as error:
        raise InstanceValidationError(str(error)) from None
    if prefix == "xml":
        # The xml prefix is implicitly bound and needs no declaration.
        namespace = XML_NAMESPACE
    else:
        namespace = scope.get(prefix, "") if prefix is not None else scope.get(None, "")
        if prefix is not None and prefix not in scope:
            raise InstanceValidationError(
                f"undeclared prefix {prefix!r} on element {element.tag!r}"
            )
    attributes: dict[QName, str] = {}
    for name, value in plain_attrs:
        try:
            attr_prefix, attr_local = split_qname(name)
        except ValueError as error:
            raise InstanceValidationError(str(error)) from None
        # Unprefixed attributes live in no namespace per the XML spec;
        # xml:* attributes live in the implicitly declared XML namespace.
        if attr_prefix == "xml":
            attr_namespace = XML_NAMESPACE
        elif attr_prefix is not None:
            attr_namespace = scope.get(attr_prefix, "")
        else:
            attr_namespace = ""
        attributes[QName(attr_namespace, attr_local)] = value
    return _ResolvedElement(
        qname=QName(namespace, local),
        attributes=attributes,
        children=[_resolve_instance(child, scope) for child in element.element_children],
        text=element.text_content,
    )


class SchemaSet:
    """A namespace-indexed collection of schema documents."""

    def __init__(self, schemas: list[Schema] | None = None) -> None:
        self._by_namespace: dict[str, Schema] = {}
        self._fingerprint: str | None = None
        for schema in schemas or []:
            self.add(schema)

    def add(self, schema: Schema) -> None:
        """Register a schema; later additions win on namespace collision."""
        self._by_namespace[schema.target_namespace] = schema
        self._fingerprint = None

    @classmethod
    def from_files(cls, paths: list[str | Path]) -> "SchemaSet":
        """Load schema documents from disk."""
        schema_set = cls()
        for path in paths:
            schema_set.add(parse_schema(Path(path).read_text(encoding="utf-8")))
        return schema_set

    @classmethod
    def from_directory(cls, directory: str | Path) -> "SchemaSet":
        """Load every ``*.xsd`` under ``directory`` (recursively)."""
        return cls.from_files(sorted(Path(directory).rglob("*.xsd")))

    @property
    def fingerprint(self) -> str:
        """A stable content hash of the set (serialized schema bytes).

        Two sets holding structurally identical schemas fingerprint alike
        regardless of load order.  Memoized until the next :meth:`add`:
        schemas are not expected to change once registered.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_schema_texts(
                (namespace, schema_to_string(schema))
                for namespace, schema in self._by_namespace.items()
            )
        return self._fingerprint

    # -- lookups ---------------------------------------------------------------

    @property
    def namespaces(self) -> list[str]:
        """All registered target namespaces."""
        return list(self._by_namespace)

    def schema_for(self, namespace: str) -> Schema:
        """The schema with the given target namespace."""
        schema = self._by_namespace.get(namespace)
        if schema is None:
            raise SchemaError(f"no schema registered for namespace {namespace!r}")
        return schema

    def find_type(self, qname: QName) -> ComplexType | SimpleType | None:
        """The global type definition named ``qname``, if registered."""
        schema = self._by_namespace.get(qname.namespace)
        if schema is None:
            return None
        for item in schema.items:
            if isinstance(item, (ComplexType, SimpleType)) and item.name == qname.local:
                return item
        return None

    def find_global_element(self, qname: QName) -> ElementDecl | None:
        """The global element declaration named ``qname``, if registered."""
        schema = self._by_namespace.get(qname.namespace)
        if schema is None:
            return None
        for item in schema.global_elements:
            if item.name == qname.local:
                return item
        return None


def fingerprint_schema_texts(texts: Iterable[tuple[str, str]]) -> str:
    """:attr:`SchemaSet.fingerprint` over already serialized schemas.

    ``texts`` holds one ``(target namespace, schema text)`` pair per
    schema; callers that have the texts at hand skip serializing twice.
    """
    digest = hashlib.sha256()
    for namespace, text in sorted(texts):
        digest.update(namespace.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(text.encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def validate_instance(schema_set: SchemaSet, document: XmlElement | str) -> list[ValidationProblem]:
    """Validate an instance document; returns all problems found (empty = valid).

    Compiles ``schema_set`` on first use (then reuses the cached plans, see
    :func:`~repro.xsd.compiled.compile_schema_set`).
    """
    from repro.xsd.compiled import compile_schema_set  # compiled imports this module

    return compile_schema_set(schema_set).validate(document)


def assert_valid(schema_set: SchemaSet, document: XmlElement | str) -> None:
    """Raise :class:`InstanceValidationError` when the document is invalid."""
    problems = validate_instance(schema_set, document)
    if problems:
        details = "; ".join(str(problem) for problem in problems[:10])
        raise InstanceValidationError(f"{len(problems)} validation problem(s): {details}")
