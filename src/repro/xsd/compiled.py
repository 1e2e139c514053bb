"""Compiled instance validation: zero schema-graph walking per document.

:func:`~repro.xsd.validator.validate_instance` re-resolves every type
reference, re-flattens every simple-type derivation chain and re-parses
every facet on every call -- fine for one document, wasteful for the
corpus-sized workloads the paper's pipeline ends in ("The schemas are then
used to validate XML messages exchanged during a business process").

:class:`CompiledSchemaSet` front-loads all of that at construction:

* global element and type lookups become dict hits (the interpreted
  ``find_type`` scans ``schema.items`` linearly per call),
* one :class:`~repro.xsd.content_model.CompiledModel` NFA is pre-built per
  complex type (the interpreted path builds them lazily per ``SchemaSet``),
* simple-type derivation chains and simpleContent hierarchies are
  flattened once, their facets pre-compiled via
  :func:`~repro.xsd.datatypes.compile_facets` (patterns compiled once,
  numeric bounds parsed once),
* every element declaration -- global or nested in a particle -- gets a
  resolved validation plan, including the diagnostic messages schema
  defects will produce (dangling references, unresolved types).

The compiled walk produces the *same* :class:`ValidationProblem` list, in
the same order, as ``validate_instance(..., engine="nfa")`` -- asserted
property-based in ``tests/test_instance_pipeline.py``.

Compiled sets are cached in a :class:`CompilationCache` (the LRU pattern
of :class:`~repro.xsdgen.cache.GenerationCache`) keyed by
:func:`fingerprint_schema_set`, so repeated pipeline runs over one schema
set compile once.  Observability: the ``instances.compile`` span,
``instances.compile_hits``/``compile_misses``/``compile_evictions``
counters and the ``instances.compile_cache_size`` gauge (see
docs/observability.md).
"""

from __future__ import annotations

import hashlib
import threading
import xml.etree.ElementTree as ET
import xml.parsers.expat
from collections import OrderedDict
from typing import Callable, Iterable

from repro.errors import InstanceValidationError, SchemaError
from repro.obs.metrics import counter, gauge
from repro.obs.trace import span
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
    SimpleType,
)
from repro.xsd.content_model import CompiledModel, DeterminizedModel, determinize
from repro.xsd.validator import (
    SchemaSet,
    ValidationProblem,
    _IGNORED_ATTR_NAMESPACES,
    _ResolvedElement,
    _resolve_instance,
)
from repro.xsd.writer import schema_to_string

__all__ = [
    "CompilationCache",
    "CompiledSchemaSet",
    "compile_schema_set",
    "fingerprint_schema_set",
    "fingerprint_schema_texts",
    "get_compilation_cache",
    "set_compilation_cache",
]


def fingerprint_schema_set(schema_set: SchemaSet) -> str:
    """A stable content hash of a schema set (serialized schema bytes).

    Two sets holding structurally identical schemas fingerprint alike
    regardless of load order; any change that can alter validation
    behavior changes the serialized form and therefore the digest.
    """
    return fingerprint_schema_texts(
        (namespace, schema_to_string(schema_set.schema_for(namespace)))
        for namespace in schema_set.namespaces
    )


def fingerprint_schema_texts(texts: Iterable[tuple[str, str]]) -> str:
    """:func:`fingerprint_schema_set` over already serialized schemas.

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


# -- parsing straight to resolved form ----------------------------------------
#
# The interpreted path parses into an XmlElement tree and then converts it
# into namespace-resolved form (two tree constructions per document).  The
# compiled path parses with expat directly into resolved nodes, with
# per-scope tag/attribute memos and process-wide QName interning -- and
# reproduces the interpreted path's behavior exactly: the same text-node
# rules, the same error messages, the same namespace fallbacks.

_qname_intern: dict[tuple[str, str], QName] = {}
_QNAME_INTERN_LIMIT = 8192


def _intern_qname(namespace: str, local: str) -> QName:
    key = (namespace, local)
    qname = _qname_intern.get(key)
    if qname is None:
        if len(_qname_intern) >= _QNAME_INTERN_LIMIT:
            _qname_intern.clear()
        qname = QName(namespace, local)
        _qname_intern[key] = qname
    return qname


class _Scope:
    """One in-scope prefix map plus per-scope name-resolution memos."""

    __slots__ = ("map", "tags", "attrs")

    def __init__(self, map: dict[str | None, str]) -> None:
        self.map = map
        self.tags: dict[str, QName] = {}
        self.attrs: dict[str, QName] = {}

    def resolve_tag(self, tag: str) -> QName:
        qname = self.tags.get(tag)
        if qname is None:
            try:
                prefix, local = split_qname(tag)
            except ValueError as error:
                raise InstanceValidationError(str(error)) from None
            if prefix == "xml":
                # Implicitly declared on every document (mirroring the
                # interpreted resolver and ElementTree's C parser).
                namespace = XML_NAMESPACE
            elif prefix is not None:
                namespace = self.map.get(prefix)
                if namespace is None:
                    raise InstanceValidationError(
                        f"undeclared prefix {prefix!r} on element {tag!r}"
                    )
            else:
                namespace = self.map.get(None, "")
            qname = _intern_qname(namespace, local)
            self.tags[tag] = qname
        return qname

    def resolve_attr(self, name: str) -> QName:
        qname = self.attrs.get(name)
        if qname is None:
            try:
                prefix, local = split_qname(name)
            except ValueError as error:
                raise InstanceValidationError(str(error)) from None
            # Unprefixed attributes live in no namespace per the XML spec;
            # xml:* lives in the implicit XML namespace; any other
            # undeclared prefix falls back to no namespace (mirroring the
            # interpreted resolver).
            if prefix == "xml":
                namespace = XML_NAMESPACE
            else:
                namespace = self.map.get(prefix, "") if prefix is not None else ""
            qname = _intern_qname(namespace, local)
            self.attrs[name] = qname
        return qname


class _Node:
    """A namespace-resolved instance element (the compiled walk's input)."""

    __slots__ = ("qname", "attributes", "children", "text")

    def __init__(self, qname: QName, attributes: dict[QName, str]) -> None:
        self.qname = qname
        self.attributes = attributes
        self.children: list[_Node] = []
        self.text = ""


class _Frame:
    __slots__ = ("node", "scope", "texts", "has_element_child")

    def __init__(self, node: _Node, scope: _Scope) -> None:
        self.node = node
        self.scope = scope
        self.texts: list[str] = []
        self.has_element_child = False


_clark_intern: dict[str, QName] = {}


def _intern_clark(name: str) -> QName:
    """The interned QName of an ElementTree ``{namespace}local`` name."""
    qname = _clark_intern.get(name)
    if qname is None:
        if len(_clark_intern) >= _QNAME_INTERN_LIMIT:
            _clark_intern.clear()
        if name.startswith("{"):
            namespace, _, local = name[1:].partition("}")
        else:
            namespace, local = "", name
        qname = _intern_qname(namespace, local)
        _clark_intern[name] = qname
    return qname


def _parse_document(text: str) -> _Node:
    """Parse ``text`` into resolved nodes, matching the interpreted path.

    Fast path: :func:`xml.etree.ElementTree.fromstring` resolves
    namespaces in C; its parse-error messages are identical to
    :func:`~repro.xmlutil.writer.parse_xml`'s.  The one divergence is an
    undeclared prefix -- ElementTree rejects the document outright where
    the interpreted resolver parses it and then reports the offending
    element -- so that case falls back to :func:`_parse_document_expat`,
    which reproduces the interpreted behavior exactly.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as error:
        if "unbound prefix" in str(error):
            return _parse_document_expat(text)
        raise InstanceValidationError(
            f"document is not well-formed XML: {error}"
        ) from error
    return _convert_tree(root)


_NO_ATTRS: dict = {}


def _convert_tree(element: "ET.Element") -> _Node:
    node = _Node.__new__(_Node)
    attrib = element.attrib
    if attrib:
        node.attributes = {_intern_clark(name): value for name, value in attrib.items()}
    else:
        # Plans never mutate attribute dicts, so attribute-less elements
        # (the common case) share one empty dict.
        node.attributes = _NO_ATTRS
    node.qname = _intern_clark(element.tag)
    children = [_convert_tree(child) for child in element]
    node.children = children
    text = element.text
    # Same text rules as the interpreted reader: only text before the
    # first child element counts, and whitespace-only text counts only in
    # childless elements (children's tail text never does).
    node.text = text if text and (not children or text.strip()) else ""
    return node


def _parse_document_expat(text: str) -> _Node:
    """Parse ``text`` directly into resolved nodes (expat, single pass).

    Raises :class:`InstanceValidationError` with exactly the messages the
    interpreted ``validate_instance`` path produces, for both malformed
    XML and undeclared element prefixes.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    stack: list[_Frame] = []
    roots: list[_Node] = []
    root_scope = _Scope({})

    def handle_start(tag: str, raw_attributes: list[str]) -> None:
        scope = stack[-1].scope if stack else root_scope
        plain: list[tuple[str, str]] | None = None
        new_map: dict[str | None, str] | None = None
        for index in range(0, len(raw_attributes), 2):
            name = raw_attributes[index]
            if name.startswith("xmlns"):
                if name == "xmlns":
                    if new_map is None:
                        new_map = dict(scope.map)
                    new_map[None] = raw_attributes[index + 1]
                    continue
                if name[5] == ":":
                    if new_map is None:
                        new_map = dict(scope.map)
                    new_map[name[6:]] = raw_attributes[index + 1]
                    continue
            if plain is None:
                plain = []
            plain.append((name, raw_attributes[index + 1]))
        if new_map is not None:
            scope = _Scope(new_map)
        attributes: dict[QName, str] = {}
        if plain is not None:
            for name, value in plain:
                attributes[scope.resolve_attr(name)] = value
        node = _Node(scope.resolve_tag(tag), attributes)
        if stack:
            parent = stack[-1]
            parent.has_element_child = True
            parent.node.children.append(node)
        else:
            roots.append(node)
        stack.append(_Frame(node, scope))

    def handle_end(tag: str) -> None:
        frame = stack.pop()
        leading = "".join(frame.texts)
        # Same text rules as the XmlElement reader: only text before the
        # first child element survives; whitespace-only runs survive only
        # in childless elements.
        if leading.strip() or (leading and not frame.has_element_child):
            frame.node.text = leading

    def handle_text(data: str) -> None:
        if stack and not stack[-1].has_element_child:
            stack[-1].texts.append(data)

    parser.StartElementHandler = handle_start
    parser.EndElementHandler = handle_end
    parser.CharacterDataHandler = handle_text
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as error:
        raise InstanceValidationError(
            f"document is not well-formed XML: {error}"
        ) from error
    if not roots:
        raise InstanceValidationError(
            "document is not well-formed XML: document contained no root element"
        )
    return roots[0]


# -- pre-compiled plan nodes ---------------------------------------------------
#
# Plans carry the element *path* as a mutable segment stack and only
# materialize the "/A/B/C" string when a problem is actually reported --
# valid content (the common case) allocates no path strings at all.


def _materialize(segments: list[str]) -> str:
    return "/" + "/".join(segments)


def _value_path(segments: list[str], attribute: str) -> str:
    path = "/" + "/".join(segments)
    if attribute:
        return f"{path}/@{attribute}"
    return path


class _ValueCheck:
    """A pre-flattened simple-value check (built-in base + compiled facets)."""

    __slots__ = ("messages", "base", "normalize", "lexical", "facet_check")

    def __init__(
        self,
        messages: tuple[str, ...],
        base: QName | None,
        facet_check: Callable[[str], list[str]] | None,
    ) -> None:
        self.messages = messages
        self.base = base
        self.facet_check = facet_check
        if base is not None:
            self.normalize, self.lexical = datatypes.compile_builtin(base)
        else:
            self.normalize = self.lexical = None

    def run(
        self,
        value: str,
        segments: list[str],
        attribute: str,
        problems: list[ValidationProblem],
    ) -> None:
        if self.messages:
            path = _value_path(segments, attribute)
            for message in self.messages:
                problems.append(ValidationProblem(path, message))
        base = self.base
        if base is None:
            return
        normalized = self.normalize(value)
        if not self.lexical(normalized):
            problems.append(
                ValidationProblem(
                    _value_path(segments, attribute),
                    f"value {value!r} is not a valid {base.local}",
                )
            )
            return
        check = self.facet_check
        if check is None:
            return
        facet_problems = check(normalized)
        if facet_problems:
            path = _value_path(segments, attribute)
            for problem in facet_problems:
                problems.append(ValidationProblem(path, problem))


class _AttrPlan:
    """Pre-indexed attribute uses of one type (lookup dict + required list)."""

    __slots__ = ("by_name", "declared", "required")

    def __init__(
        self,
        by_name: dict[str, tuple[AttributeDecl, _ValueCheck]],
        declared: tuple[tuple[str, bool], ...],
    ) -> None:
        self.by_name = by_name
        self.declared = declared
        # In declared order, so missing-required reports keep the
        # interpreted engine's ordering.
        self.required = tuple(name for name, required in declared if required)

    def run(
        self,
        element: _ResolvedElement,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        if not element.attributes and not self.declared:
            return
        required = self.required
        seen: set[str] | None = set() if required else None
        for qname, value in element.attributes.items():
            if qname.namespace in _IGNORED_ATTR_NAMESPACES:
                continue
            entry = self.by_name.get(qname.local) if not qname.namespace else None
            if entry is None:
                problems.append(
                    ValidationProblem(
                        _materialize(segments),
                        f"undeclared attribute {qname.clark()!r}",
                    )
                )
                continue
            declaration, check = entry
            if declaration.use is AttributeUse.PROHIBITED:
                problems.append(
                    ValidationProblem(
                        _materialize(segments),
                        f"attribute {qname.local!r} is prohibited here",
                    )
                )
                continue
            if seen is not None:
                seen.add(qname.local)
            check.run(value, segments, qname.local, problems)
        if required:
            for name in required:
                if name not in seen:
                    problems.append(
                        ValidationProblem(
                            _materialize(segments),
                            f"missing required attribute {name!r}",
                        )
                    )


_EMPTY_ATTRS = _AttrPlan({}, ())


class _AcceptPlan:
    """anyType: accept anything (declaration without a type)."""

    __slots__ = ()

    def run(
        self,
        element: _ResolvedElement,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        return


class _ErrorPlan:
    """A schema defect surfaced at every occurrence (e.g. unresolved type)."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def run(
        self,
        element: _ResolvedElement,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        problems.append(ValidationProblem(_materialize(segments), self.message))


class _SimplePlan:
    """An element whose type is a built-in or a global simple type."""

    __slots__ = ("value",)

    def __init__(self, value: _ValueCheck) -> None:
        self.value = value

    def run(
        self,
        element: _ResolvedElement,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        if element.children:
            problems.append(
                ValidationProblem(
                    _materialize(segments),
                    "simple-typed element must not have children",
                )
            )
        if element.attributes:
            _EMPTY_ATTRS.run(element, segments, problems)
        self.value.run(element.text, segments, "", problems)


class _SimpleContentPlan:
    """A complex type with simpleContent: attributes plus a text value."""

    __slots__ = ("children_message", "content_messages", "attrs", "value")

    def __init__(
        self,
        children_message: str,
        content_messages: tuple[str, ...],
        attrs: _AttrPlan,
        value: _ValueCheck | None,
    ) -> None:
        self.children_message = children_message
        self.content_messages = content_messages
        self.attrs = attrs
        self.value = value

    def run(
        self,
        element: _ResolvedElement,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        if element.children:
            problems.append(
                ValidationProblem(_materialize(segments), self.children_message)
            )
        for message in self.content_messages:
            problems.append(ValidationProblem(_materialize(segments), message))
        self.attrs.run(element, segments, problems)
        if self.value is not None:
            self.value.run(element.text, segments, "", problems)


class _ComplexPlan:
    """A complex type: content-model NFA plus per-child compiled plans.

    Filled in two phases (registered before its children compile) so
    recursive types -- a type containing elements of itself -- terminate.
    """

    __slots__ = (
        "text_message",
        "attrs",
        "model",
        "dfa",
        "no_children_prefix",
        "child_plans",
    )

    def __init__(self) -> None:
        self.text_message = ""
        self.attrs = _EMPTY_ATTRS
        self.model: CompiledModel | DeterminizedModel | None = None
        self.dfa: list | None = None
        self.no_children_prefix = ""
        self.child_plans: dict[int, object] = {}

    def set_model(self, model: CompiledModel | DeterminizedModel) -> None:
        self.model = model
        # Keep the raw DFA tables at hand so run() can walk them inline
        # without allocating a MatchResult for every valid element.
        self.dfa = model._tables if isinstance(model, DeterminizedModel) else None

    def run(
        self,
        element: _ResolvedElement,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        if element.text.strip():
            problems.append(ValidationProblem(_materialize(segments), self.text_message))
        self.attrs.run(element, segments, problems)
        children = element.children
        model = self.model
        if model is None:
            if children:
                problems.append(
                    ValidationProblem(
                        _materialize(segments),
                        self.no_children_prefix + str(len(children)),
                    )
                )
            return
        dfa = self.dfa
        if dfa is not None:
            state = 0
            decls: list = []
            for child in children:
                entry = dfa[state][0].get(child.qname)
                if entry is None:
                    break
                state = entry[0]
                decls.append(entry[1])
            else:
                if dfa[state][1]:
                    child_plans = self.child_plans
                    for child, child_decl in zip(children, decls):
                        segments.append(child.qname.local)
                        child_plans[id(child_decl)].run(child, segments, problems)
                        segments.pop()
                    return
            # Slow path: rerun through match() for the exact failure report.
            result = model.match([child.qname for child in children])
            problems.append(
                ValidationProblem(_materialize(segments), result.describe_failure())
            )
            return
        result = model.match([child.qname for child in children])
        if not result.ok:
            problems.append(
                ValidationProblem(_materialize(segments), result.describe_failure())
            )
            return
        child_plans = self.child_plans
        for child, child_decl in zip(children, result.assignments):
            segments.append(child.qname.local)
            child_plans[id(child_decl)].run(child, segments, problems)
            segments.pop()


# -- the compiled schema set --------------------------------------------------


class CompiledSchemaSet:
    """A :class:`SchemaSet` compiled for repeated instance validation.

    Construction resolves every reference and pre-builds every content
    model; :meth:`validate` then walks documents against plan objects
    only.  Output is identical (same problems, same order) to
    ``validate_instance(schema_set, document)``.

    Instances are immutable after construction and safe to share across
    threads -- :meth:`validate` touches no mutable compiled state.
    """

    def __init__(self, schema_set: SchemaSet, fingerprint: str | None = None) -> None:
        self.schema_set = schema_set
        self.fingerprint = fingerprint or fingerprint_schema_set(schema_set)
        self._schemas: dict[str, Schema] = {
            namespace: schema_set.schema_for(namespace)
            for namespace in schema_set.namespaces
        }
        self._globals: dict[QName, ElementDecl] = {}
        self._types: dict[QName, ComplexType | SimpleType] = {}
        for namespace, schema in self._schemas.items():
            for item in schema.global_elements:
                self._globals.setdefault(QName(namespace, item.name), item)
            for item in schema.items:
                if isinstance(item, (ComplexType, SimpleType)):
                    self._types.setdefault(QName(namespace, item.name), item)
        self._type_plans: dict[QName, object] = {}
        self._decl_plans: dict[int, object] = {}
        with span(
            "instances.compile",
            namespaces=len(self._schemas),
            types=len(self._types),
            global_elements=len(self._globals),
            fingerprint=self.fingerprint[:12],
        ):
            # Compile every global type and element eagerly so validation
            # never pays a first-touch cost (and schema defects surface
            # deterministically, not input-dependently).
            for qname in self._types:
                self._type_plan(qname)
            for decl in self._globals.values():
                self._decl_plan(decl, frozenset())

    # -- validation ------------------------------------------------------------

    def validate(self, document: XmlElement | str) -> list[ValidationProblem]:
        """Validate one instance document; returns all problems (empty = valid)."""
        if isinstance(document, str):
            root: _Node | _ResolvedElement = _parse_document(document)
        else:
            root = _resolve_instance(document, {})
        decl = self._globals.get(root.qname)
        if decl is None:
            return [
                ValidationProblem(
                    f"/{root.qname.local}",
                    f"no global element declaration for {root.qname.clark()}",
                )
            ]
        problems: list[ValidationProblem] = []
        self._decl_plans[id(decl)].run(root, [root.qname.local], problems)
        return problems

    # -- compilation ------------------------------------------------------------

    def _decl_plan(self, decl: ElementDecl, resolving: frozenset[int]) -> object:
        plan = self._decl_plans.get(id(decl))
        if plan is not None:
            return plan
        if decl.is_ref:
            if id(decl) in resolving:
                raise SchemaError(f"cyclic element reference {decl.ref.clark()}")
            target = self._globals.get(decl.ref)
            if target is None:
                plan = _ErrorPlan(f"dangling element reference {decl.ref.clark()}")
            else:
                plan = self._decl_plan(target, resolving | {id(decl)})
        elif decl.type is None:
            plan = _AcceptPlan()
        else:
            plan = self._type_plan(decl.type)
        self._decl_plans[id(decl)] = plan
        return plan

    def _type_plan(self, type_name: QName) -> object:
        plan = self._type_plans.get(type_name)
        if plan is not None:
            return plan
        if type_name.namespace == XSD_NS:
            plan = _SimplePlan(self._value_check(type_name, []))
        else:
            definition = self._types.get(type_name)
            if definition is None:
                plan = _ErrorPlan(f"unresolved type {type_name.clark()}")
            elif isinstance(definition, SimpleType):
                plan = _SimplePlan(self._value_check(type_name, []))
            elif definition.simple_content is not None:
                plan = self._compile_simple_content(definition)
            else:
                return self._compile_complex(type_name, definition)
        self._type_plans[type_name] = plan
        return plan

    def _compile_complex(self, type_name: QName, definition: ComplexType) -> _ComplexPlan:
        plan = _ComplexPlan()
        # Register before compiling children: recursive types resolve to
        # this very plan object.
        self._type_plans[type_name] = plan
        schema = self._schemas[type_name.namespace]
        plan.text_message = (
            f"unexpected character content in complex type {definition.name!r}"
        )
        plan.attrs = self._attr_plan(definition.attributes)
        plan.no_children_prefix = (
            f"type {definition.name!r} allows no children, found "
        )
        if definition.particle is not None:
            nfa = CompiledModel(
                definition.particle, lambda decl: self._symbol_of(decl, schema)
            )
            # Determinize when provably result-identical; else keep the NFA.
            plan.set_model(determinize(nfa) or nfa)
            for decl in _particle_decls(definition.particle):
                plan.child_plans[id(decl)] = self._decl_plan(decl, frozenset())
        return plan

    def _compile_simple_content(self, definition: ComplexType) -> _SimpleContentPlan:
        messages: list[str] = []
        base, attributes, facets = self._flatten_simple_content(
            definition, messages, frozenset()
        )
        value = self._value_check(base, facets) if base is not None else None
        return _SimpleContentPlan(
            children_message=(
                f"type {definition.name!r} has simple content but children were found"
            ),
            content_messages=tuple(messages),
            attrs=self._attr_plan(attributes),
            value=value,
        )

    def _flatten_simple_content(
        self, definition: ComplexType, messages: list[str], resolving: frozenset[int]
    ) -> tuple[QName | None, list[AttributeDecl], list[Facet]]:
        content = definition.simple_content
        assert content is not None
        base = content.base
        facets = list(content.facets)
        if base.namespace == XSD_NS:
            return base, list(content.attributes), facets
        base_definition = self._types.get(base)
        if base_definition is None:
            messages.append(f"unresolved simpleContent base {base.clark()}")
            return None, list(content.attributes), facets
        if isinstance(base_definition, SimpleType):
            return base, list(content.attributes), facets
        if base_definition.simple_content is None:
            messages.append(
                f"simpleContent base {base.clark()} is not a simple-content type"
            )
            return None, list(content.attributes), facets
        if id(base_definition) in resolving:
            raise SchemaError(f"cyclic simpleContent derivation at {base.clark()}")
        inherited_base, inherited_attrs, inherited_facets = self._flatten_simple_content(
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

    def _value_check(self, type_name: QName, extra_facets: list[Facet]) -> _ValueCheck:
        """The compiled form of ``_Validator._validate_simple_value``."""
        messages: list[str] = []
        base, facets = self._flatten_simple_type(type_name, messages, frozenset())
        facets = facets + extra_facets
        if base is None:
            return _ValueCheck(tuple(messages), None, None)
        # Facet-less values (plain xsd:string and friends) skip the facet
        # closure entirely on the hot path.
        check = datatypes.compile_facets(facets, base) if facets else None
        return _ValueCheck(tuple(messages), base, check)

    def _flatten_simple_type(
        self, type_name: QName, messages: list[str], resolving: frozenset[QName]
    ) -> tuple[QName | None, list[Facet]]:
        if type_name.namespace == XSD_NS:
            return type_name, []
        definition = self._types.get(type_name)
        if definition is None:
            messages.append(f"unresolved simple type {type_name.clark()}")
            return None, []
        if isinstance(definition, ComplexType):
            messages.append(
                f"type {type_name.clark()} is complex where a simple type is required"
            )
            return None, []
        if type_name in resolving:
            raise SchemaError(f"cyclic simple-type derivation at {type_name.clark()}")
        base, facets = self._flatten_simple_type(
            definition.base, messages, resolving | {type_name}
        )
        return base, facets + list(definition.facets)

    def _attr_plan(self, declared: list[AttributeDecl]) -> _AttrPlan:
        if not declared:
            return _EMPTY_ATTRS
        by_name = {
            attribute.name: (attribute, self._value_check(attribute.type, []))
            for attribute in declared
        }
        order = tuple(
            (attribute.name, attribute.use is AttributeUse.REQUIRED)
            for attribute in declared
        )
        return _AttrPlan(by_name, order)

    @staticmethod
    def _symbol_of(decl: ElementDecl, schema: Schema) -> QName:
        if decl.is_ref:
            return _intern_qname(decl.ref.namespace, decl.ref.local)
        namespace = (
            schema.target_namespace if schema.element_form_default == "qualified" else ""
        )
        # Interned so content-model transition keys are the same objects
        # the parser produces (dict lookups hit the identity fast path).
        return _intern_qname(namespace, decl.name)


def _particle_decls(particle: object) -> list[ElementDecl]:
    """Every element declaration nested anywhere in a particle tree."""
    found: list[ElementDecl] = []

    def walk(node: object) -> None:
        if isinstance(node, ElementDecl):
            found.append(node)
            return
        for child in getattr(node, "particles", ()):
            walk(child)

    walk(particle)
    return found


# -- compilation cache ---------------------------------------------------------


class CompilationCache:
    """Thread-safe LRU of compiled schema sets, keyed by fingerprint.

    The validate-side sibling of :class:`~repro.xsdgen.cache.GenerationCache`:
    one instance is safely shared across pipelines and threads, and a
    schema change misses (new fingerprint) instead of returning a stale
    compilation.  Counters: ``instances.compile_hits`` / ``compile_misses``
    / ``compile_evictions``; gauge: ``instances.compile_cache_size``.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("CompilationCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CompiledSchemaSet] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = counter("instances.compile_hits")
        self._misses = counter("instances.compile_misses")
        self._evictions = counter("instances.compile_evictions")
        self._size = gauge("instances.compile_cache_size")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> CompiledSchemaSet | None:
        """The compiled set for ``key``; None (and a miss) when absent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry
        self._misses.inc()
        return None

    def put(self, compiled: CompiledSchemaSet) -> None:
        """Insert (or refresh) a compiled set under its fingerprint."""
        with self._lock:
            self._entries[compiled.fingerprint] = compiled
            self._entries.move_to_end(compiled.fingerprint)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._size.set(0)


_default_cache = CompilationCache()


def get_compilation_cache() -> CompilationCache:
    """The process-global compilation cache."""
    return _default_cache


def set_compilation_cache(cache: CompilationCache) -> CompilationCache:
    """Replace the process-global compilation cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def compile_schema_set(
    schema_set: SchemaSet, cache: CompilationCache | None = None
) -> CompiledSchemaSet:
    """The compiled form of ``schema_set``, via the compilation cache.

    Fingerprints the set, returns the cached compilation on a hit and
    compiles (then caches) on a miss.  Pass ``cache=None`` to use the
    process-global cache.
    """
    cache = cache if cache is not None else get_compilation_cache()
    key = fingerprint_schema_set(schema_set)
    hit = cache.get(key)
    if hit is not None:
        return hit
    compiled = CompiledSchemaSet(schema_set, fingerprint=key)
    cache.put(compiled)
    return compiled
