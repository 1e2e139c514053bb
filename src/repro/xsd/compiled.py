"""Instance validation, compiled: zero schema-graph walking per document.

The paper's pipeline ends with schemas "used to validate XML messages
exchanged during a business process"; :class:`CompiledSchemaSet` is the
validator for those messages (:func:`~repro.xsd.validator.validate_instance`
is a thin wrapper over it).  It front-loads every schema lookup at
construction:

* global element and type lookups become dict hits,
* one :class:`~repro.xsd.content_model.CompiledModel` NFA is pre-built per
  complex type (determinized to a DFA when that is provably
  result-identical),
* simple-type derivation chains and simpleContent hierarchies are
  flattened once, their facets pre-compiled via
  :func:`~repro.xsd.datatypes.compile_facets` (patterns compiled once,
  numeric bounds parsed once),
* every element declaration -- global or nested in a particle -- gets a
  resolved validation plan, including the diagnostic messages schema
  defects will produce (dangling references, unresolved types).

Plans walk the ElementTree that :func:`xml.etree.ElementTree.fromstring`
builds in C, keyed on its Clark-notation tags, with no intermediate copy
of the document.  Every document is first held to :data:`max_depth` and
:data:`max_elements`; a breach is an :class:`InstanceValidationError`,
like a malformed document.

The test suite keeps a direct tree-walking validator as a reference
oracle (``tests/reference_validator.py``); the compiled walk produces the
same :class:`ValidationProblem` list, in the same order -- asserted
property-based in ``tests/test_instance_pipeline.py``.

Compiled sets are cached in a :class:`CompilationCache` (a bounded
:class:`~repro.lru.Lru`) keyed by the schema set's memoized
:attr:`~repro.xsd.validator.SchemaSet.fingerprint`, so repeated
validation over one schema set compiles once.  Observability:
the ``instances.compile`` span,
``instances.compile_hits``/``compile_misses``/``compile_evictions``
counters and the ``instances.compile_cache_size`` gauge (see
docs/observability.md).
"""

from __future__ import annotations

import functools
import xml.etree.ElementTree as ET
from typing import Callable, Iterable

from repro.errors import InstanceValidationError, SchemaError
from repro.lru import Lru
from repro.obs.metrics import counter, gauge
from repro.obs.trace import span
from repro.xmlutil.qname import XML_NAMESPACE, QName, split_qname
from repro.xmlutil.reader import parse_as_written, text_of
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
    fingerprint_schema_texts,
)

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
    """The compilation-cache key of ``schema_set``: its memoized
    :attr:`~repro.xsd.validator.SchemaSet.fingerprint`.

    Any change that can alter validation behavior changes the serialized
    schemas and therefore the digest.
    """
    return schema_set.fingerprint


# -- parsing to an ElementTree ------------------------------------------------
#
# Plans walk the ``xml.etree.ElementTree`` tree that ``ET.fromstring``
# builds in C: tags and attribute names arrive in Clark notation
# (``{namespace}local``), and element text is read through
# :func:`~repro.xmlutil.reader.text_of`.  The two inputs ElementTree
# cannot take directly -- text with an undeclared prefix, and
# ``XmlElement`` trees -- go through one iterative prefix resolver
# (``_Scope``) in ``_tree_of``: the text first through
# :func:`~repro.xmlutil.reader.parse_as_written`, the reader of every
# document whose names the C parser cannot resolve.  ``_tree_of`` is
# also how ``repro.binding`` and the RELAX NG validator read an
# ``XmlElement`` document.

#: Deepest element nesting a document may have.  The plan walk recurses
#: once per level, so this stays well under the interpreter's recursion
#: limit.
max_depth = 512
#: Most elements a document may have (the XMI reader's default).
max_elements = 1_000_000

@functools.lru_cache(maxsize=8192)
def _clark_qname(name: str) -> QName:
    """The QName of an ElementTree ``{namespace}local`` name."""
    if name.startswith("{"):
        namespace, _, local = name[1:].partition("}")
        return QName(namespace, local)
    return QName("", name)


def _split(name: str) -> tuple[str | None, str]:
    try:
        return split_qname(name)
    except ValueError as error:
        raise InstanceValidationError(str(error)) from None


class _Scope:
    """The in-scope prefix map of one element."""

    __slots__ = ("map",)

    def __init__(self, map: dict[str | None, str]) -> None:
        self.map = map

    def start(
        self, builder: ET.TreeBuilder, tag: str, attributes: Iterable[tuple[str, str]]
    ) -> _Scope:
        """Open ``tag`` on ``builder`` with Clark names; returns its scope."""
        plain: list[tuple[str, str]] = []
        new_map: dict[str | None, str] | None = None
        for name, value in attributes:
            if name == "xmlns":
                prefix = None
            elif name.startswith("xmlns:"):
                prefix = name[6:]
            else:
                plain.append((name, value))
                continue
            if new_map is None:
                new_map = dict(self.map)
            new_map[prefix] = value
        scope = _Scope(new_map) if new_map is not None else self
        prefix, local = _split(tag)
        if prefix == "xml":
            # Implicitly declared on every document.
            namespace = XML_NAMESPACE
        elif prefix is None:
            namespace = scope.map.get(None, "")
        else:
            namespace = scope.map.get(prefix)
            if namespace is None:
                raise InstanceValidationError(
                    f"undeclared prefix {prefix!r} on element {tag!r}"
                )
        attrib: dict[str, str] = {}
        for name, value in plain:
            prefix, attr_local = _split(name)
            # Unprefixed attributes live in no namespace per the XML spec;
            # xml:* lives in the implicit XML namespace; any other
            # undeclared prefix falls back to no namespace.
            if prefix is None:
                attr_namespace = ""
            elif prefix == "xml":
                attr_namespace = XML_NAMESPACE
            else:
                attr_namespace = scope.map.get(prefix, "")
            attrib[QName(attr_namespace, attr_local).clark()] = value
        builder.start(QName(namespace, local).clark(), attrib)
        return scope


def _parse_document(text: str) -> ET.Element:
    """Parse ``text`` into a namespace-resolved ElementTree.

    Fast path: :func:`xml.etree.ElementTree.fromstring` resolves
    namespaces in C.  ElementTree rejects a document with an undeclared
    prefix outright; that case goes through :func:`parse_as_written` and
    :func:`_tree_of`, which report the offending element instead.

    A document can only breach :data:`max_depth` or :data:`max_elements`
    with more ``<`` than ``max_depth`` or through entity expansion, so
    only such documents pay for :func:`_check_bounds`.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as error:
        if "unbound prefix" not in str(error):
            raise InstanceValidationError(
                f"document is not well-formed XML: {error}"
            ) from error
        try:
            written = parse_as_written(text)
        except ET.ParseError as error:
            # The unbound prefix was reported first; a later syntax error
            # still makes the document malformed.
            raise InstanceValidationError(
                f"document is not well-formed XML: {error}"
            ) from error
        return _tree_of(written)
    if text.count("<") > max_depth or "<!ENTITY" in text:
        _check_bounds(root)
    return root


def _tree_of(document: XmlElement | ET.Element) -> ET.Element:
    """``document``, an ``XmlElement`` tree or a :func:`parse_as_written`
    tree, as a namespace-resolved ElementTree (iteratively, so any depth
    converts and then meets :func:`_check_bounds`)."""
    builder = ET.TreeBuilder()
    scopes = [_Scope({})]
    # ``None`` marks the end of the element opened before it.
    pending: list[XmlElement | ET.Element | None] = [document]
    while pending:
        element = pending.pop()
        if element is None:
            scopes.pop()
            builder.end("")
            continue
        if isinstance(element, ET.Element):
            attributes, text, children = element.attrib.items(), element.text, list(element)
        else:
            attributes, text = element.attributes.items(), element.text_content
            children = element.element_children
        scopes.append(scopes[-1].start(builder, element.tag, attributes))
        if text:
            builder.data(text)
        pending.append(None)
        pending.extend(reversed(children))
    root = builder.close()
    _check_bounds(root)
    return root


def _check_bounds(root: ET.Element) -> None:
    """Raise unless ``root`` is within :data:`max_depth` and :data:`max_elements`.

    Walks in document order with one child iterator per open element that
    has children, so the walk holds at most ``max_depth`` iterators.
    """
    count = 1
    levels = [iter(root)] if len(root) else []
    while levels:
        if len(levels) >= max_depth:
            raise InstanceValidationError(
                f"document nests too deeply: element #{count + 1} (in document "
                f"order) is at depth {max_depth + 1}, over max_depth={max_depth}"
            )
        for child in levels[-1]:
            count += 1
            if count > max_elements:
                raise InstanceValidationError(
                    f"document exceeds max_elements={max_elements} elements"
                )
            if len(child):
                levels.append(iter(child))
                break
        else:
            levels.pop()


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


_STRING = QName(XSD_NS, "string")

#: Clark-name prefixes of the attribute namespaces the validator ignores.
_IGNORED_ATTR_PREFIXES = tuple(f"{{{namespace}}}" for namespace in _IGNORED_ATTR_NAMESPACES)


class _AttrPlan:
    """Pre-indexed attribute uses of one type (lookup dict + required list).

    ``free`` holds the declared, non-prohibited names whose value check
    cannot fail, so an attribute set within ``free`` that holds every
    required name is valid.  :meth:`run` accepts such a set in two set
    comparisons made in C; any other set goes through its exact loop,
    which reports every problem in order.
    """

    __slots__ = ("by_name", "declared", "required", "free", "required_names")

    def __init__(
        self,
        by_name: dict[str, tuple[AttributeDecl, _ValueCheck | None]],
        declared: tuple[tuple[str, bool], ...],
    ) -> None:
        self.by_name = by_name
        self.declared = declared
        # In declared order, so missing-required reports follow the
        # schema's attribute order.
        self.required = tuple(name for name, required in declared if required)
        self.required_names = frozenset(self.required)
        self.free = frozenset(
            name
            for name, (declaration, check) in by_name.items()
            if check is None and declaration.use is not AttributeUse.PROHIBITED
        )

    def run(
        self,
        attrib: dict[str, str],
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        keys = attrib.keys()
        if keys <= self.free and keys >= self.required_names:
            return
        required = self.required
        seen: set[str] | None = set() if required else None
        for name, value in attrib.items():
            # Namespaced names are in Clark notation; declared attributes
            # are always unqualified.
            if name[0] == "{":
                if name.startswith(_IGNORED_ATTR_PREFIXES):
                    continue
                entry = None
            else:
                entry = self.by_name.get(name)
            if entry is None:
                problems.append(
                    ValidationProblem(
                        _materialize(segments), f"undeclared attribute {name!r}"
                    )
                )
                continue
            declaration, check = entry
            if declaration.use is AttributeUse.PROHIBITED:
                problems.append(
                    ValidationProblem(
                        _materialize(segments),
                        f"attribute {name!r} is prohibited here",
                    )
                )
                continue
            if seen is not None:
                seen.add(name)
            if check is not None:
                check.run(value, segments, name, problems)
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
        element: ET.Element,
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
        element: ET.Element,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        problems.append(ValidationProblem(_materialize(segments), self.message))


class _SimplePlan:
    """An element whose type is a built-in or a global simple type."""

    __slots__ = ("value", "leaf_attrs")

    def __init__(self, value: _ValueCheck | None) -> None:
        self.value = value
        # A childless element without attributes passes ``_EMPTY_ATTRS``
        # and, with no value check, has nothing else to fail.
        self.leaf_attrs = _EMPTY_ATTRS if value is None else None

    def run(
        self,
        element: ET.Element,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        if len(element):
            problems.append(
                ValidationProblem(
                    _materialize(segments),
                    "simple-typed element must not have children",
                )
            )
        attrib = element.attrib
        if attrib:
            _EMPTY_ATTRS.run(attrib, segments, problems)
        if self.value is not None:
            self.value.run(text_of(element), segments, "", problems)


class _SimpleContentPlan:
    """A complex type with simpleContent: attributes plus a text value."""

    __slots__ = ("children_message", "content_messages", "attrs", "value", "leaf_attrs")

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
        # What alone decides a childless element, when nothing else can fail.
        self.leaf_attrs = attrs if value is None and not content_messages else None

    def run(
        self,
        element: ET.Element,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        if len(element):
            problems.append(
                ValidationProblem(_materialize(segments), self.children_message)
            )
        for message in self.content_messages:
            problems.append(ValidationProblem(_materialize(segments), message))
        self.attrs.run(element.attrib, segments, problems)
        if self.value is not None:
            self.value.run(text_of(element), segments, "", problems)


class _ComplexPlan:
    """A complex type: content-model automaton plus per-child compiled plans.

    Filled in two phases (registered before its children compile) so
    recursive types -- a type containing elements of itself -- terminate.
    A determinized model is also kept as ``dfa``: per state, a table from
    child Clark tag to ``(next state, child plan, local name, leaf_attrs)``
    plus the accepting flag, walked inline without allocating a
    ``MatchResult``.  A childless child whose attributes pass the fast test
    of its plan's ``leaf_attrs`` is valid, and is skipped without a call.
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
        self.dfa: (
            list[tuple[dict[str, tuple[int, object, str, _AttrPlan | None]], bool]] | None
        ) = None
        self.no_children_prefix = ""
        self.child_plans: dict[int, object] = {}

    def set_model(
        self, model: CompiledModel | DeterminizedModel, child_plans: dict[int, object]
    ) -> None:
        self.model = model
        self.child_plans = child_plans
        if isinstance(model, DeterminizedModel):
            self.dfa = []
            for transitions, accepting, _expected in model._tables:
                table = {}
                for symbol, (target, decl) in transitions.items():
                    plan = child_plans[id(decl)]
                    leaf_attrs = getattr(plan, "leaf_attrs", None)
                    table[symbol.clark()] = (target, plan, symbol.local, leaf_attrs)
                self.dfa.append((table, accepting))

    def run(
        self,
        element: ET.Element,
        segments: list[str],
        problems: list[ValidationProblem],
    ) -> None:
        text = element.text
        if text and text.strip():
            problems.append(ValidationProblem(_materialize(segments), self.text_message))
        attrib = element.attrib
        if attrib or self.attrs.declared:
            self.attrs.run(attrib, segments, problems)
        model = self.model
        if model is None:
            if len(element):
                problems.append(
                    ValidationProblem(
                        _materialize(segments),
                        self.no_children_prefix + str(len(element)),
                    )
                )
            return
        dfa = self.dfa
        if dfa is not None:
            state = 0
            matched: list[tuple[int, object, str, _AttrPlan | None]] = []
            for child in element:
                entry = dfa[state][0].get(child.tag)
                if entry is None:
                    break
                state = entry[0]
                matched.append(entry)
            else:
                if dfa[state][1]:
                    for child, (_, plan, local, leaf_attrs) in zip(element, matched):
                        if leaf_attrs is not None and not len(child):
                            keys = child.attrib.keys()
                            if keys <= leaf_attrs.free and keys >= leaf_attrs.required_names:
                                continue
                        segments.append(local)
                        plan.run(child, segments, problems)
                        segments.pop()
                    return
        # Not determinized, or the DFA rejected: match() gives the exact
        # assignment or failure report.
        result = model.match([_clark_qname(child.tag) for child in element])
        if not result.ok:
            problems.append(
                ValidationProblem(_materialize(segments), result.describe_failure())
            )
            return
        child_plans = self.child_plans
        for child, child_decl in zip(element, result.assignments):
            segments.append(_clark_qname(child.tag).local)
            child_plans[id(child_decl)].run(child, segments, problems)
            segments.pop()


# -- the compiled schema set --------------------------------------------------


class CompiledSchemaSet:
    """A :class:`SchemaSet` compiled for repeated instance validation.

    Construction resolves every reference and pre-builds every content
    model; :meth:`validate` then walks documents against plan objects
    only.

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
            self._roots: dict[str, tuple[object, str]] = {
                qname.clark(): (self._decl_plan(decl, frozenset()), qname.local)
                for qname, decl in self._globals.items()
            }

    # -- validation ------------------------------------------------------------

    def validate(self, document: XmlElement | str) -> list[ValidationProblem]:
        """Validate one instance document; returns all problems (empty = valid).

        Raises :class:`InstanceValidationError` when the document cannot be
        validated: malformed XML, an undeclared element prefix, or more
        nesting or elements than :data:`max_depth` / :data:`max_elements`.
        """
        if isinstance(document, str):
            root = _parse_document(document)
        else:
            root = _tree_of(document)
        entry = self._roots.get(root.tag)
        if entry is None:
            qname = _clark_qname(root.tag)
            return [
                ValidationProblem(
                    f"/{qname.local}",
                    f"no global element declaration for {qname.clark()}",
                )
            ]
        plan, local = entry
        problems: list[ValidationProblem] = []
        plan.run(root, [local], problems)
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
            child_plans = {
                id(decl): self._decl_plan(decl, frozenset())
                for decl in _particle_decls(definition.particle)
            }
            # Determinize when provably result-identical; else keep the NFA.
            plan.set_model(determinize(nfa) or nfa, child_plans)
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

    def _value_check(self, type_name: QName, extra_facets: list[Facet]) -> _ValueCheck | None:
        """The value check for ``type_name`` plus ``extra_facets``; None when
        no value can fail it (plain ``xsd:string`` without facets)."""
        messages: list[str] = []
        base, facets = self._flatten_simple_type(type_name, messages, frozenset())
        facets = facets + extra_facets
        if base is None:
            return _ValueCheck(tuple(messages), None, None)
        if base == _STRING and not facets:
            return None
        # Facet-less values of the other built-ins skip the facet closure
        # entirely on the hot path.
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
            return decl.ref
        namespace = (
            schema.target_namespace if schema.element_form_default == "qualified" else ""
        )
        return QName(namespace, decl.name)


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


class CompilationCache(Lru[str, CompiledSchemaSet]):
    """Thread-safe LRU of compiled schema sets, keyed by fingerprint.

    One instance is safely shared across pipelines and threads, and a
    schema change misses (new fingerprint) instead of returning a stale
    compilation.  :func:`compile_schema_set` counts its traffic:
    ``instances.compile_hits`` / ``compile_misses`` / ``compile_evictions``
    and the ``instances.compile_cache_size`` gauge.
    """

    def __init__(self, max_entries: int = 32) -> None:
        super().__init__(max_entries)

    def clear(self) -> None:
        """Drop every entry."""
        super().clear()
        gauge("instances.compile_cache_size").set(0)


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
        counter("instances.compile_hits").inc()
        return hit
    counter("instances.compile_misses").inc()
    compiled = CompiledSchemaSet(schema_set, fingerprint=key)
    counter("instances.compile_evictions").inc(len(cache.put(key, compiled)))
    gauge("instances.compile_cache_size").set(len(cache))
    return compiled
