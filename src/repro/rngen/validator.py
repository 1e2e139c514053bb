"""A derivative-based RELAX NG validator (James Clark's algorithm).

Validates instance documents against grammars produced by
:mod:`repro.rngen.relaxng`.  The implementation follows Clark's
"An algorithm for RELAX NG validation": patterns are immutable values and
validation computes Brzozowski-style derivatives --

``childDeriv`` = ``startTagOpenDeriv`` -> ``attDeriv``* ->
``startTagCloseDeriv`` -> children -> ``endTagDeriv`` -- with
``nullable`` deciding acceptance.

Supported pattern subset: everything the generator emits (``empty``,
``text``, ``data``, ``value``, ``choice``, ``group``, ``optional``,
``zeroOrMore``, ``oneOrMore``, ``element``, ``attribute``, ``ref``).
``interleave`` and name classes other than literal names are not needed
and not implemented.

The point of this module is the equivalence test: an instance valid per
the XSD validator must be valid per this independent engine against the
translated grammar (and mutated instances must fail both).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import SchemaError
from repro.xmlutil.qname import QName
from repro.xmlutil.reader import text_of
from repro.xmlutil.writer import XmlElement
from repro.xsd import datatypes
from repro.xsd.compiled import _clark_qname, _tree_of
from repro.xsd.components import XSD_NS


class Pattern:
    """Base class; subclasses are frozen dataclasses usable as cache keys."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Pattern):
    pass


@dataclass(frozen=True)
class NotAllowed(Pattern):
    pass


@dataclass(frozen=True)
class Text(Pattern):
    pass


@dataclass(frozen=True)
class Choice(Pattern):
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class Group(Pattern):
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class OneOrMore(Pattern):
    pattern: Pattern


@dataclass(frozen=True)
class ElementP(Pattern):
    name: QName
    ref: str  # define name holding the content pattern (lazy for recursion)


@dataclass(frozen=True)
class AttributeP(Pattern):
    name: str
    pattern: Pattern


@dataclass(frozen=True)
class DataP(Pattern):
    type_local: str


@dataclass(frozen=True)
class ValueP(Pattern):
    value: str


@dataclass(frozen=True)
class After(Pattern):
    """Clark's After pattern: what must match now / what matches afterwards."""

    left: Pattern
    right: Pattern


_EMPTY = Empty()
_NOT_ALLOWED = NotAllowed()
_TEXT = Text()


def choice(left: Pattern, right: Pattern) -> Pattern:
    if isinstance(left, NotAllowed):
        return right
    if isinstance(right, NotAllowed):
        return left
    if left == right:
        return left
    return Choice(left, right)


def group(left: Pattern, right: Pattern) -> Pattern:
    if isinstance(left, NotAllowed) or isinstance(right, NotAllowed):
        return _NOT_ALLOWED
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    return Group(left, right)


def after(left: Pattern, right: Pattern) -> Pattern:
    if isinstance(left, NotAllowed) or isinstance(right, NotAllowed):
        return _NOT_ALLOWED
    return After(left, right)


@dataclass
class RngGrammar:
    """A compiled grammar: the start pattern plus named content defines."""

    start: Pattern
    defines: dict[str, Pattern] = field(default_factory=dict)

    def content_of(self, ref: str) -> Pattern:
        pattern = self.defines.get(ref)
        if pattern is None:
            raise SchemaError(f"grammar has no define {ref!r}")
        return pattern


# ---------------------------------------------------------------------------
# Grammar compilation from the XML syntax the generator emits
# ---------------------------------------------------------------------------


def compile_grammar(grammar_xml: XmlElement) -> RngGrammar:
    """Compile a generated ``<grammar>`` tree into patterns.

    Elements are compiled lazily into *content defines* keyed by the source
    node's identity, so recursive models terminate: an ``<element>`` node is
    compiled exactly once no matter how many type bodies reference it.
    """
    compiler = _Compiler()
    for define in grammar_xml.find_all("define"):
        compiler.named_defines[define.attributes["name"]] = define
    start = grammar_xml.find("start")
    if start is None:
        raise SchemaError("grammar has no <start>")
    grammar = RngGrammar(start=compiler.compile_children(start))
    # Drain the element-content work list (new entries may appear while
    # compiling earlier ones).
    while compiler.pending:
        key, node = compiler.pending.popitem()
        grammar.defines[key] = compiler.compile_children(node)
    return grammar


class _Compiler:
    def __init__(self) -> None:
        self.named_defines: dict[str, XmlElement] = {}
        #: content-define key -> the <element> node whose children to compile
        self.pending: dict[str, XmlElement] = {}
        self._content_key_of: dict[int, str] = {}

    def compile_children(self, node: XmlElement) -> Pattern:
        result: Pattern = _EMPTY
        for child in node.element_children:
            result = group(result, self.compile_pattern(child))
        return result

    def compile_pattern(self, node: XmlElement) -> Pattern:
        tag = node.tag
        if tag == "empty":
            return _EMPTY
        if tag == "notAllowed":
            return _NOT_ALLOWED
        if tag == "text":
            return _TEXT
        if tag == "data":
            return DataP(node.attributes.get("type", "string"))
        if tag == "value":
            return ValueP(node.text_content)
        if tag == "ref":
            name = node.attributes["name"]
            target = self.named_defines.get(name)
            if target is None:
                raise SchemaError(f"ref to unknown define {name!r}")
            # Inline the define's body; elements inside stay lazy.
            return self.compile_children(target)
        if tag == "element":
            return self._element_pattern(node)
        if tag == "attribute":
            content = self.compile_children(node)
            return AttributeP(node.attributes["name"], content if node.element_children else _TEXT)
        if tag == "optional":
            return choice(_EMPTY, self.compile_children(node))
        if tag == "zeroOrMore":
            return choice(_EMPTY, OneOrMore(self.compile_children(node)))
        if tag == "oneOrMore":
            return OneOrMore(self.compile_children(node))
        if tag == "group":
            return self.compile_children(node)
        if tag == "choice":
            result: Pattern = _NOT_ALLOWED
            for child in node.element_children:
                result = choice(result, self.compile_pattern(child))
            return result
        raise SchemaError(f"unsupported RELAX NG pattern <{tag}>")

    def _element_pattern(self, node: XmlElement) -> ElementP:
        qname = QName(node.attributes.get("ns", ""), node.attributes["name"])
        key = self._content_key_of.get(id(node))
        if key is None:
            key = f"content.{len(self._content_key_of) + 1}.{qname.local}"
            self._content_key_of[id(node)] = key
            self.pending[key] = node
        return ElementP(qname, key)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


class RngValidator:
    """Validates instance documents against a compiled grammar."""

    def __init__(self, grammar: RngGrammar) -> None:
        self.grammar = grammar
        self._nullable = lru_cache(maxsize=None)(self._nullable_raw)

    # -- nullable -----------------------------------------------------------------

    def _nullable_raw(self, pattern: Pattern) -> bool:
        if isinstance(pattern, (Empty,)):
            return True
        if isinstance(pattern, (NotAllowed, ElementP, AttributeP, DataP, ValueP)):
            return False
        if isinstance(pattern, Text):
            return True
        if isinstance(pattern, Choice):
            return self._nullable(pattern.left) or self._nullable(pattern.right)
        if isinstance(pattern, (Group, After)):
            if isinstance(pattern, After):
                return False
            return self._nullable(pattern.left) and self._nullable(pattern.right)
        if isinstance(pattern, OneOrMore):
            return self._nullable(pattern.pattern)
        raise SchemaError(f"nullable: unknown pattern {pattern!r}")

    # -- text -------------------------------------------------------------------------

    def _text_deriv(self, pattern: Pattern, value: str) -> Pattern:
        if isinstance(pattern, Text):
            return _TEXT
        if isinstance(pattern, DataP):
            qname = QName(XSD_NS, pattern.type_local)
            normalized = datatypes.normalize_whitespace(qname, value)
            return _EMPTY if datatypes.check_builtin(qname, normalized) else _NOT_ALLOWED
        if isinstance(pattern, ValueP):
            return _EMPTY if value.strip() == pattern.value.strip() else _NOT_ALLOWED
        if isinstance(pattern, Choice):
            return choice(self._text_deriv(pattern.left, value), self._text_deriv(pattern.right, value))
        if isinstance(pattern, Group):
            left = group(self._text_deriv(pattern.left, value), pattern.right)
            if self._nullable(pattern.left):
                return choice(left, self._text_deriv(pattern.right, value))
            return left
        if isinstance(pattern, OneOrMore):
            return group(
                self._text_deriv(pattern.pattern, value),
                choice(_EMPTY, OneOrMore(pattern.pattern)),
            )
        if isinstance(pattern, After):
            return after(self._text_deriv(pattern.left, value), pattern.right)
        return _NOT_ALLOWED

    # -- start tag ------------------------------------------------------------------------

    def _start_tag_open_deriv(self, pattern: Pattern, qname: QName) -> Pattern:
        if isinstance(pattern, ElementP):
            if pattern.name == qname:
                return after(self.grammar.content_of(pattern.ref), _EMPTY)
            return _NOT_ALLOWED
        if isinstance(pattern, Choice):
            return choice(
                self._start_tag_open_deriv(pattern.left, qname),
                self._start_tag_open_deriv(pattern.right, qname),
            )
        if isinstance(pattern, Group):
            left = self._apply_after(
                lambda p: group(p, pattern.right),
                self._start_tag_open_deriv(pattern.left, qname),
            )
            if self._nullable(pattern.left):
                return choice(left, self._start_tag_open_deriv(pattern.right, qname))
            return left
        if isinstance(pattern, OneOrMore):
            return self._apply_after(
                lambda p: group(p, choice(_EMPTY, OneOrMore(pattern.pattern))),
                self._start_tag_open_deriv(pattern.pattern, qname),
            )
        if isinstance(pattern, After):
            return self._apply_after(
                lambda p: after(p, pattern.right),
                self._start_tag_open_deriv(pattern.left, qname),
            )
        return _NOT_ALLOWED

    def _apply_after(self, func, pattern: Pattern) -> Pattern:
        if isinstance(pattern, After):
            return after(pattern.left, func(pattern.right))
        if isinstance(pattern, Choice):
            return choice(self._apply_after(func, pattern.left), self._apply_after(func, pattern.right))
        if isinstance(pattern, NotAllowed):
            return _NOT_ALLOWED
        raise SchemaError(f"applyAfter on non-After pattern {pattern!r}")

    # -- attributes ------------------------------------------------------------------------------

    def _att_deriv(self, pattern: Pattern, name: str, value: str) -> Pattern:
        if isinstance(pattern, AttributeP):
            if pattern.name == name and self._value_matches(pattern.pattern, value):
                return _EMPTY
            return _NOT_ALLOWED
        if isinstance(pattern, Choice):
            return choice(self._att_deriv(pattern.left, name, value), self._att_deriv(pattern.right, name, value))
        if isinstance(pattern, Group):
            return choice(
                group(self._att_deriv(pattern.left, name, value), pattern.right),
                group(pattern.left, self._att_deriv(pattern.right, name, value)),
            )
        if isinstance(pattern, OneOrMore):
            return group(
                self._att_deriv(pattern.pattern, name, value),
                choice(_EMPTY, OneOrMore(pattern.pattern)),
            )
        if isinstance(pattern, After):
            return after(self._att_deriv(pattern.left, name, value), pattern.right)
        return _NOT_ALLOWED

    def _value_matches(self, pattern: Pattern, value: str) -> bool:
        derivative = self._text_deriv(pattern, value)
        return self._nullable(derivative) or (value == "" and self._nullable(pattern))

    def _start_tag_close_deriv(self, pattern: Pattern) -> Pattern:
        if isinstance(pattern, AttributeP):
            return _NOT_ALLOWED
        if isinstance(pattern, Choice):
            return choice(self._start_tag_close_deriv(pattern.left), self._start_tag_close_deriv(pattern.right))
        if isinstance(pattern, Group):
            return group(self._start_tag_close_deriv(pattern.left), self._start_tag_close_deriv(pattern.right))
        if isinstance(pattern, OneOrMore):
            inner = self._start_tag_close_deriv(pattern.pattern)
            if isinstance(inner, NotAllowed):
                return _NOT_ALLOWED
            return OneOrMore(inner)
        if isinstance(pattern, After):
            return after(self._start_tag_close_deriv(pattern.left), pattern.right)
        return pattern

    def _end_tag_deriv(self, pattern: Pattern) -> Pattern:
        if isinstance(pattern, Choice):
            return choice(self._end_tag_deriv(pattern.left), self._end_tag_deriv(pattern.right))
        if isinstance(pattern, After):
            if self._nullable(pattern.left):
                return pattern.right
            return _NOT_ALLOWED
        return _NOT_ALLOWED

    # -- the element walk ------------------------------------------------------------------------

    def _element_deriv(self, pattern: Pattern, root: ET.Element) -> Pattern:
        """The derivative of ``pattern`` over ``root``'s subtree, walked with
        one ``[children left, content derivative]`` frame per open element
        instead of recursion, so document depth costs no interpreter frames."""
        stack: list[list] = []
        element = root
        while True:
            current = self._start_tag_open_deriv(pattern, _clark_qname(element.tag))
            for name, value in element.attrib.items():
                current = self._att_deriv(current, _clark_qname(name).local, value)
            current = self._start_tag_close_deriv(current)
            text = text_of(element)
            if text.strip():
                current = self._text_deriv(current, text)
            elif not len(element):
                # Empty content also satisfies a text/data pattern with "".
                current = choice(current, self._text_deriv(current, ""))
            stack.append([iter(element), current])
            while (child := next(stack[-1][0], None)) is None:
                ended = self._end_tag_deriv(stack.pop()[1])
                if not stack:
                    return ended
                stack[-1][1] = ended
            pattern, element = stack[-1][1], child

    # -- entry point -----------------------------------------------------------------------------------

    def validate(self, document: XmlElement) -> bool:
        """True when ``document`` matches the grammar's start pattern."""
        final = self._element_deriv(self.grammar.start, _tree_of(document))
        return self._nullable(final)


def validate_with_rng(grammar_xml: XmlElement, document: XmlElement) -> bool:
    """Compile ``grammar_xml`` and validate ``document`` against it."""
    return RngValidator(compile_grammar(grammar_xml)).validate(document)
