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
from typing import Iterable, Mapping, NamedTuple

from repro.errors import InstanceValidationError, SchemaError
from repro.xmlutil.qname import XML_NAMESPACE, QName
from repro.xmlutil.writer import XmlElement
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    ComplexType,
    ElementDecl,
    Facet,
    Schema,
    SimpleType,
)
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


class _Index(NamedTuple):
    """The global components of a :class:`SchemaSet`, by qualified name."""

    types: dict[QName, ComplexType | SimpleType]
    elements: dict[QName, ElementDecl]
    prefixes: dict[str, str]


def _defect(messages: list[str] | None, message: str) -> None:
    """Record a schema defect in ``messages``; raise it when there is none."""
    if messages is None:
        raise SchemaError(message)
    messages.append(message)


class SchemaSet:
    """A namespace-indexed collection of schema documents.

    The one resolver of schema components: every consumer (the compiled
    validator, the instance generator, the RELAX NG translator, the
    binding marshaller) looks names, element references and derivation
    chains up here.  Global types and elements are indexed on first
    lookup, the first declaration of a name winning.

    ``fingerprint`` seeds :attr:`fingerprint` for a caller that already
    computed :func:`fingerprint_schema_texts` over these schemas' texts
    (a ``/generate`` registering the set it just answered with).
    """

    def __init__(
        self, schemas: list[Schema] | None = None, *, fingerprint: str | None = None
    ) -> None:
        self._by_namespace: dict[str, Schema] = {}
        self._index: _Index | None = None
        for schema in schemas or []:
            self.add(schema)
        self._fingerprint = fingerprint

    def add(self, schema: Schema) -> None:
        """Register a schema; later additions win on namespace collision."""
        self._by_namespace[schema.target_namespace] = schema
        self._fingerprint = None
        self._index = None

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

    def _indexed(self) -> _Index:
        """The component index, built on first use and kept until :meth:`add`."""
        index = self._index
        if index is None:
            types: dict[QName, ComplexType | SimpleType] = {}
            elements: dict[QName, ElementDecl] = {}
            for namespace, schema in self._by_namespace.items():
                for item in schema.items:
                    found = elements if isinstance(item, ElementDecl) else types
                    found.setdefault(QName(namespace, item.name), item)
            prefixes = {
                namespace: f"ns{number}"
                for number, namespace in enumerate(sorted(self._by_namespace), start=1)
                if namespace
            }
            index = self._index = _Index(types, elements, prefixes)
        return index

    # -- lookups ---------------------------------------------------------------

    @property
    def namespaces(self) -> list[str]:
        """All registered target namespaces."""
        return list(self._by_namespace)

    @property
    def global_types(self) -> Mapping[QName, ComplexType | SimpleType]:
        """Every global type definition by name, in registration order."""
        return self._indexed().types

    @property
    def global_elements(self) -> Mapping[QName, ElementDecl]:
        """Every global element declaration by name, in registration order."""
        return self._indexed().elements

    @property
    def instance_prefixes(self) -> Mapping[str, str]:
        """Target namespace -> ``nsN`` prefix (by sorted namespace) for the
        instances the generator and the marshaller build."""
        return self._indexed().prefixes

    def schema_for(self, namespace: str) -> Schema:
        """The schema with the given target namespace."""
        schema = self._by_namespace.get(namespace)
        if schema is None:
            raise SchemaError(f"no schema registered for namespace {namespace!r}")
        return schema

    def find_type(self, qname: QName) -> ComplexType | SimpleType | None:
        """The global type definition named ``qname``, if registered."""
        return self._indexed().types.get(qname)

    def find_global_element(self, qname: QName) -> ElementDecl | None:
        """The global element declaration named ``qname``, if registered."""
        return self._indexed().elements.get(qname)

    def root_element(
        self, root: QName | str, namespace: str | None = None
    ) -> tuple[QName, ElementDecl]:
        """The global element ``root`` names, with its qualified name.

        A local name is looked up in ``namespace`` when given, otherwise in
        every registered namespace, where it must be unambiguous.
        """
        if isinstance(root, str):
            if namespace is not None:
                root = QName(namespace, root)
            else:
                elements = self._indexed().elements
                matches = [
                    QName(candidate, root)
                    for candidate in self._by_namespace
                    if QName(candidate, root) in elements
                ]
                if len(matches) != 1:
                    raise SchemaError(
                        f"global element {root!r} resolves to {len(matches)} namespaces; "
                        f"pass the namespace explicitly"
                    )
                root = matches[0]
        decl = self.find_global_element(root)
        if decl is None:
            raise SchemaError(f"no global element {root.clark()} in the schema set")
        return root, decl

    def resolve_element(self, decl: ElementDecl) -> ElementDecl:
        """The global declaration ``decl`` refers to, or ``decl`` itself
        when it is not a ``ref``."""
        if not decl.is_ref:
            return decl
        target = self.find_global_element(decl.ref)
        if target is None:
            raise SchemaError(f"dangling element reference {decl.ref.clark()}")
        return target

    # -- derivation chains -----------------------------------------------------
    #
    # With a ``messages`` list, a defect is recorded there and its chain
    # flattens to a ``None`` base (the validator reports it per document);
    # without one, the first defect raises :class:`SchemaError`.  A cycle
    # always raises.

    def flatten_simple_content(
        self,
        definition: ComplexType,
        messages: list[str] | None = None,
        resolving: frozenset[int] = frozenset(),
    ) -> tuple[QName | None, list[AttributeDecl], list[Facet]]:
        """``(base, attribute uses, facets)`` of a simpleContent type.

        ``base`` is the built-in or global simple type at the end of the
        simpleContent chain; ``facets`` are the chain's own, base first.
        """
        content = definition.simple_content
        assert content is not None
        base = content.base
        facets = list(content.facets)
        if base.namespace == XSD_NS:
            return base, list(content.attributes), facets
        base_definition = self.find_type(base)
        if base_definition is None:
            _defect(messages, f"unresolved simpleContent base {base.clark()}")
            return None, list(content.attributes), facets
        if isinstance(base_definition, SimpleType):
            return base, list(content.attributes), facets
        if base_definition.simple_content is None:
            _defect(messages, f"simpleContent base {base.clark()} is not a simple-content type")
            return None, list(content.attributes), facets
        if id(base_definition) in resolving:
            raise SchemaError(f"cyclic simpleContent derivation at {base.clark()}")
        inherited_base, inherited_attrs, inherited_facets = self.flatten_simple_content(
            base_definition, messages, resolving | {id(base_definition)}
        )
        if content.derivation == "extension":
            merged = inherited_attrs + content.attributes
        else:
            by_name = {attribute.name: attribute for attribute in inherited_attrs}
            for attribute in content.attributes:
                by_name[attribute.name] = attribute
            merged = list(by_name.values())
        return inherited_base, merged, inherited_facets + facets

    def flatten_simple_type(
        self,
        type_name: QName,
        messages: list[str] | None = None,
        resolving: frozenset[QName] = frozenset(),
    ) -> tuple[QName | None, list[Facet]]:
        """``(built-in base, facets)`` of a simple type's restriction chain."""
        if type_name.namespace == XSD_NS:
            return type_name, []
        definition = self.find_type(type_name)
        if definition is None:
            _defect(messages, f"unresolved simple type {type_name.clark()}")
            return None, []
        if isinstance(definition, ComplexType):
            _defect(
                messages, f"type {type_name.clark()} is complex where a simple type is required"
            )
            return None, []
        if type_name in resolving:
            raise SchemaError(f"cyclic simple-type derivation at {type_name.clark()}")
        base, facets = self.flatten_simple_type(
            definition.base, messages, resolving | {type_name}
        )
        return base, facets + list(definition.facets)

    def flatten_content_value(
        self, definition: ComplexType
    ) -> tuple[QName, list[AttributeDecl], list[Facet]]:
        """``(built-in base, attribute uses, facets)`` of a simpleContent
        type through its whole chain; raises :class:`SchemaError` on a defect."""
        base, attributes, facets = self.flatten_simple_content(definition)
        builtin, inherited = self.flatten_simple_type(base)
        return builtin, attributes, inherited + facets


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
