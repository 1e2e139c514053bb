"""Reference oracles for instance validation (test support, not product code).

``repro`` validates instances with one engine, the compiled
:class:`~repro.xsd.compiled.CompiledSchemaSet`.  This module keeps the
direct implementations it is checked against:

* :func:`reference_validate` -- a tree walker that re-resolves every type
  reference per element and matches content models with either the NFA
  (``engine="nfa"``) or :func:`match_backtracking`; the differential tests
  require the compiled engine to reproduce its problem list exactly, and
  :func:`reference_report` runs it over a whole corpus;
* :func:`match_backtracking` -- a direct recursive content-model matcher,
  the oracle for :class:`~repro.xsd.content_model.CompiledModel` and its
  determinized form.

The RELAX NG validator (``tests/rng_validator.py``) is a second,
independent oracle for verdicts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from repro.errors import InstanceValidationError, SchemaError
from repro.instances.pipeline import BatchReport, DocumentReport, discover_corpus
from repro.xmlutil.qname import XML_NAMESPACE, QName, split_qname
from repro.xmlutil.writer import XmlElement
from repro.xsd import datatypes
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    AttributeUse,
    ComplexType,
    ElementDecl,
    Facet,
    Schema,
    SequenceGroup,
    SimpleType,
)
from repro.xsd.content_model import MAX_UNROLL, CompiledModel, MatchResult, Particle, SymbolOf
from repro.xsd.validator import SchemaSet, ValidationProblem, _IGNORED_ATTR_NAMESPACES

from tests.xml_oracle import parse_xml

Engine = Literal["nfa", "backtracking"]


@dataclass
class _ResolvedElement:
    """An instance element with names resolved to QNames."""

    qname: QName
    attributes: dict[QName, str]
    children: list["_ResolvedElement"]
    text: str


def _resolve_instance(element: XmlElement, inherited: dict[str | None, str]) -> _ResolvedElement:
    """``element`` with its prefixes resolved, recursively (an oracle for
    the iterative resolver in :mod:`repro.xsd.compiled`)."""
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

#: Compiled content models per schema set, built lazily on first use and
#: reused across calls (keyed by the complex type's identity), so timing
#: the walker (``test_instance_pipeline.py``'s 3x bar) measures the walk,
#: not NFA construction.
_model_caches: "weakref.WeakKeyDictionary[SchemaSet, dict[int, CompiledModel]]" = (
    weakref.WeakKeyDictionary()
)


def _schema_or_none(schema_set: SchemaSet, namespace: str) -> Schema | None:
    try:
        return schema_set.schema_for(namespace)
    except SchemaError:
        return None


def _find_type(schema_set: SchemaSet, qname: QName) -> ComplexType | SimpleType | None:
    """The first global type named ``qname``, found by scanning its schema's
    items (independent of :class:`SchemaSet`'s own index)."""
    schema = _schema_or_none(schema_set, qname.namespace)
    if schema is None:
        return None
    for item in schema.items:
        if isinstance(item, (ComplexType, SimpleType)) and item.name == qname.local:
            return item
    return None


def _find_global_element(schema_set: SchemaSet, qname: QName) -> ElementDecl | None:
    """The first global element named ``qname``, found by scanning."""
    schema = _schema_or_none(schema_set, qname.namespace)
    if schema is None:
        return None
    for item in schema.global_elements:
        if item.name == qname.local:
            return item
    return None


def _symbol_of(decl: ElementDecl, schema: Schema) -> QName:
    """The instance QName an element declaration matches."""
    if decl.is_ref:
        return decl.ref
    namespace = schema.target_namespace if schema.element_form_default == "qualified" else ""
    return QName(namespace, decl.name)


def _compiled_model(schema_set: SchemaSet, complex_type: ComplexType, schema: Schema) -> CompiledModel:
    """The (cached) compiled content model of a complex type."""
    cache = _model_caches.setdefault(schema_set, {})
    key = id(complex_type)
    model = cache.get(key)
    if model is None:
        model = CompiledModel(complex_type.particle, lambda decl: _symbol_of(decl, schema))
        cache[key] = model
    return model


def reference_validate(
    schema_set: SchemaSet,
    document: XmlElement | str,
    engine: Engine = "nfa",
) -> list[ValidationProblem]:
    """Validate an instance document; returns all problems found (empty = valid)."""
    if isinstance(document, str):
        try:
            document = parse_xml(document)
        except Exception as error:
            raise InstanceValidationError(f"document is not well-formed XML: {error}") from error
    root = _resolve_instance(document, {})
    validator = _Validator(schema_set, engine)
    decl = _find_global_element(schema_set, root.qname)
    if decl is None:
        return [
            ValidationProblem(
                f"/{root.qname.local}",
                f"no global element declaration for {root.qname.clark()}",
            )
        ]
    validator.validate_element(root, decl, schema_set.schema_for(root.qname.namespace), f"/{root.qname.local}")
    return validator.problems


def reference_report(schema_set: SchemaSet, corpus: str | Path) -> BatchReport:
    """The batch report :func:`reference_validate` gives for every document
    of ``corpus``; malformed documents become ``error`` entries."""
    documents = []
    for path in discover_corpus(corpus):
        try:
            problems = reference_validate(schema_set, path.read_text(encoding="utf-8"))
        except InstanceValidationError as error:
            documents.append(DocumentReport(path=str(path), ok=False, error=str(error)))
        else:
            documents.append(DocumentReport(path=str(path), ok=not problems, problems=problems))
    return BatchReport(documents=documents, elapsed_ms=0.0)


class _Validator:
    """Stateful tree walker accumulating :class:`ValidationProblem` items."""

    def __init__(self, schema_set: SchemaSet, engine: Engine) -> None:
        self.schema_set = schema_set
        self.engine = engine
        self.problems: list[ValidationProblem] = []

    def _report(self, path: str, message: str) -> None:
        self.problems.append(ValidationProblem(path, message))

    # -- elements ----------------------------------------------------------------

    def validate_element(
        self, element: _ResolvedElement, decl: ElementDecl, schema: Schema, path: str
    ) -> None:
        if decl.is_ref:
            target = _find_global_element(self.schema_set, decl.ref)
            if target is None:
                self._report(path, f"dangling element reference {decl.ref.clark()}")
                return
            self.validate_element(element, target, self.schema_set.schema_for(decl.ref.namespace), path)
            return
        if decl.type is None:
            return  # anyType: accept anything
        self.validate_against_type(element, decl.type, path)

    def validate_against_type(self, element: _ResolvedElement, type_name: QName, path: str) -> None:
        if type_name.namespace == XSD_NS:
            self._validate_simple(element, type_name, [], path)
            return
        definition = _find_type(self.schema_set, type_name)
        if definition is None:
            self._report(path, f"unresolved type {type_name.clark()}")
            return
        if isinstance(definition, SimpleType):
            self._validate_simple(element, type_name, [], path)
            return
        if definition.simple_content is not None:
            self._validate_simple_content(element, definition, path)
            return
        self._validate_complex(element, definition, type_name, path)

    def _validate_simple(
        self, element: _ResolvedElement, type_name: QName, facets: list[Facet], path: str
    ) -> None:
        """An element whose type is a built-in or a global simple type."""
        if element.children:
            self._report(path, f"simple-typed element must not have children")
        self._check_attributes(element, [], path)
        self._validate_simple_value(element.text, type_name, facets, path)

    # -- complex content --------------------------------------------------------------

    def _validate_complex(
        self, element: _ResolvedElement, definition: ComplexType, type_name: QName, path: str
    ) -> None:
        schema = self.schema_set.schema_for(type_name.namespace)
        if element.text.strip():
            self._report(path, f"unexpected character content in complex type {definition.name!r}")
        self._check_attributes(element, definition.attributes, path)
        tokens = [child.qname for child in element.children]
        if definition.particle is None:
            if tokens:
                self._report(path, f"type {definition.name!r} allows no children, found {len(tokens)}")
            return
        result = self._match(definition, schema, tokens)
        if not result.ok:
            self._report(path, result.describe_failure())
            return
        for child, child_decl in zip(element.children, result.assignments):
            child_path = f"{path}/{child.qname.local}"
            self.validate_element(child, child_decl, schema, child_path)

    def _match(self, definition: ComplexType, schema: Schema, tokens: list[QName]) -> MatchResult:
        if self.engine == "backtracking":
            return match_backtracking(
                definition.particle, tokens, lambda decl: _symbol_of(decl, schema)
            )
        return _compiled_model(self.schema_set, definition, schema).match(tokens)

    # -- simple content -------------------------------------------------------------------

    def _validate_simple_content(
        self, element: _ResolvedElement, definition: ComplexType, path: str
    ) -> None:
        if element.children:
            self._report(path, f"type {definition.name!r} has simple content but children were found")
        base, attributes, facets = self._flatten_simple_content(definition, path)
        self._check_attributes(element, attributes, path)
        if base is not None:
            self._validate_simple_value(element.text, base, facets, path)

    def _flatten_simple_content(
        self, definition: ComplexType, path: str
    ) -> tuple[QName | None, list[AttributeDecl], list[Facet]]:
        """Walk the simpleContent derivation chain; returns (base, attrs, facets)."""
        content = definition.simple_content
        assert content is not None
        base = content.base
        facets = list(content.facets)
        if base.namespace == XSD_NS:
            return base, list(content.attributes), facets
        base_definition = _find_type(self.schema_set, base)
        if base_definition is None:
            self._report(path, f"unresolved simpleContent base {base.clark()}")
            return None, list(content.attributes), facets
        if isinstance(base_definition, SimpleType):
            return base, list(content.attributes), facets
        if base_definition.simple_content is None:
            self._report(path, f"simpleContent base {base.clark()} is not a simple-content type")
            return None, list(content.attributes), facets
        inherited_base, inherited_attrs, inherited_facets = self._flatten_simple_content(
            base_definition, path
        )
        if content.derivation == "extension":
            merged = inherited_attrs + content.attributes
        else:
            by_name = {attribute.name: attribute for attribute in inherited_attrs}
            for attribute in content.attributes:
                by_name[attribute.name] = attribute
            merged = list(by_name.values())
        return inherited_base, merged, inherited_facets + facets

    # -- simple values ----------------------------------------------------------------------

    def _validate_simple_value(
        self, value: str, type_name: QName, extra_facets: list[Facet], path: str
    ) -> None:
        base, facets = self._flatten_simple_type(type_name, path)
        facets = facets + extra_facets
        if base is None:
            return
        normalized = datatypes.normalize_whitespace(base, value)
        if not datatypes.check_builtin(base, normalized):
            self._report(path, f"value {value!r} is not a valid {base.local}")
            return
        for problem in datatypes.check_facets(facets, normalized, base):
            self._report(path, problem)

    def _flatten_simple_type(self, type_name: QName, path: str) -> tuple[QName | None, list[Facet]]:
        """Resolve a simple type to its built-in base plus accumulated facets."""
        if type_name.namespace == XSD_NS:
            return type_name, []
        definition = _find_type(self.schema_set, type_name)
        if definition is None:
            self._report(path, f"unresolved simple type {type_name.clark()}")
            return None, []
        if isinstance(definition, ComplexType):
            self._report(path, f"type {type_name.clark()} is complex where a simple type is required")
            return None, []
        base, facets = self._flatten_simple_type(definition.base, path)
        return base, facets + list(definition.facets)

    # -- attributes --------------------------------------------------------------------------

    def _check_attributes(
        self, element: _ResolvedElement, declared: list[AttributeDecl], path: str
    ) -> None:
        by_name = {attribute.name: attribute for attribute in declared}
        seen: set[str] = set()
        for qname, value in element.attributes.items():
            if qname.namespace in _IGNORED_ATTR_NAMESPACES:
                continue
            declaration = by_name.get(qname.local) if not qname.namespace else None
            if declaration is None:
                self._report(path, f"undeclared attribute {qname.clark()!r}")
                continue
            if declaration.use is AttributeUse.PROHIBITED:
                self._report(path, f"attribute {qname.local!r} is prohibited here")
                continue
            seen.add(qname.local)
            self._validate_simple_value(value, declaration.type, [], f"{path}/@{qname.local}")
        for attribute in declared:
            if attribute.use is AttributeUse.REQUIRED and attribute.name not in seen:
                self._report(path, f"missing required attribute {attribute.name!r}")


def match_backtracking(particle: Particle, tokens: list[QName], symbol_of: SymbolOf) -> MatchResult:
    """Match by direct recursive backtracking (reference implementation)."""

    def match_particle(node: Particle, pos: int):
        """Yield (end position, assignment slice) for every way to match."""
        min_occurs = node.min_occurs
        max_occurs = node.max_occurs
        if max_occurs is not None and max_occurs > MAX_UNROLL:
            max_occurs = None

        def match_once(start: int):
            if isinstance(node, ElementDecl):
                if start < len(tokens) and symbol_of(node) == tokens[start]:
                    yield start + 1, [node]
                return
            if isinstance(node, SequenceGroup):
                def seq(idx: int, at: int, acc: list[ElementDecl]):
                    if idx == len(node.particles):
                        yield at, acc
                        return
                    for end, sub in match_particle(node.particles[idx], at):
                        yield from seq(idx + 1, end, acc + sub)

                yield from seq(0, start, [])
                return
            for child in node.particles:  # ChoiceGroup
                yield from match_particle(child, start)

        def repeat(count: int, at: int, acc: list[ElementDecl]):
            if count >= min_occurs:
                yield at, acc
            if max_occurs is not None and count >= max_occurs:
                return
            for end, sub in match_once(at):
                if end == at:
                    # An empty occurrence: only worth counting while the
                    # minimum is unmet (it can never consume input, so
                    # repeating it further would loop forever).
                    if count < min_occurs:
                        yield from repeat(count + 1, end, acc + sub)
                    continue
                yield from repeat(count + 1, end, acc + sub)

        yield from repeat(0, pos, [])

    best_failure = -1
    for end, assignment in match_particle(particle, 0):
        if end == len(tokens):
            return MatchResult(ok=True, assignments=assignment)
        best_failure = max(best_failure, end)
    failure_index = best_failure if 0 <= best_failure < len(tokens) else (None if best_failure >= len(tokens) else 0)
    return MatchResult(ok=False, failure_index=failure_index, expected=())
