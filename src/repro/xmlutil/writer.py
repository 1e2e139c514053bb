"""A deterministic XML element tree and pretty-printing writer.

The standard library's ``xml.etree`` can serialize, but its namespace
handling renames prefixes (``ns0``/``ns1``) which would destroy the
prefix-bearing output the paper's Figures 6-8 show (``cdt1``, ``qdt1``,
``commonAggregates``, ``bie2``).  This module keeps prefixes explicit:
elements carry already-prefixed tags plus ``xmlns`` declarations as ordinary
attributes, exactly as the generator computed them.

:func:`parse_xml` is the matching reader used by the XSD parser and the
instance validator; it preserves the declared prefix map per element.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import dataclass, field

from repro.xmlutil.escape import escape_attribute, escape_text, is_valid_xml_name


class XmlElement:
    """A mutable XML element with ordered attributes and mixed children.

    ``tag`` is the name as written (possibly prefixed).  Children are either
    :class:`XmlElement` instances or strings (text nodes).  Attribute order
    is insertion order, which the writer preserves so output is stable.

    ``source_line``/``source_column`` are the 1-based position of the
    element's start tag when the tree came from :func:`parse_xml`, and
    ``None`` for programmatically built trees.  The XMI reader threads them
    into located load diagnostics.
    """

    __slots__ = ("tag", "attributes", "children", "source_line", "source_column")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None) -> None:
        if not is_valid_xml_name(tag.replace(":", "_", 1) if ":" in tag else tag):
            raise ValueError(f"invalid XML element name: {tag!r}")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[XmlElement | str] = []
        self.source_line: int | None = None
        self.source_column: int | None = None

    def set(self, name: str, value: str) -> "XmlElement":
        """Set an attribute and return self (chainable)."""
        self.attributes[name] = value
        return self

    def add(self, tag: str, attributes: dict[str, str] | None = None) -> "XmlElement":
        """Append and return a new child element."""
        child = XmlElement(tag, attributes)
        self.children.append(child)
        return child

    def append(self, child: "XmlElement") -> "XmlElement":
        """Append an existing element and return it."""
        self.children.append(child)
        return child

    def text(self, value: str) -> "XmlElement":
        """Append a text node and return self."""
        self.children.append(value)
        return self

    @property
    def element_children(self) -> list["XmlElement"]:
        """Child elements only (text nodes skipped)."""
        return [child for child in self.children if isinstance(child, XmlElement)]

    @property
    def text_content(self) -> str:
        """Concatenated direct text content."""
        return "".join(child for child in self.children if isinstance(child, str))

    def find(self, tag: str) -> "XmlElement | None":
        """First child element with the given (prefixed) tag, or None."""
        for child in self.element_children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["XmlElement"]:
        """All child elements with the given (prefixed) tag."""
        return [child for child in self.element_children if child.tag == tag]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag} attrs={len(self.attributes)} children={len(self.children)}>"


@dataclass
class XmlWriter:
    """Serializes an :class:`XmlElement` tree with two-space indentation.

    ``sort_attributes`` keeps the writer deterministic even if callers build
    attribute dicts in varying order; the generator leaves it off because it
    controls ordering itself (namespace declarations first, as in Figure 6).
    """

    indent: str = "  "
    declaration: bool = True
    sort_attributes: bool = False

    def to_string(self, root: XmlElement) -> str:
        """Render the tree to a string."""
        out = io.StringIO()
        if self.declaration:
            out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        self._write_element(out, root, 0)
        out.write("\n")
        return out.getvalue()

    def write(self, root: XmlElement, path: str) -> None:
        """Render the tree and write it to ``path`` as UTF-8."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_string(root))

    def _write_element(self, out: io.StringIO, element: XmlElement, depth: int) -> None:
        pad = self.indent * depth
        out.write(f"{pad}<{element.tag}")
        items = element.attributes.items()
        if self.sort_attributes:
            items = sorted(items)
        for name, value in items:
            out.write(f' {name}="{escape_attribute(value)}"')
        if not element.children:
            out.write("/>")
            return
        out.write(">")
        has_elements = any(isinstance(child, XmlElement) for child in element.children)
        if not has_elements:
            # Pure text content stays on one line so values round-trip intact.
            for child in element.children:
                out.write(escape_text(str(child)))
            out.write(f"</{element.tag}>")
            return
        for child in element.children:
            out.write("\n")
            if isinstance(child, XmlElement):
                self._write_element(out, child, depth + 1)
            else:
                out.write(f"{self.indent * (depth + 1)}{escape_text(child)}")
        out.write(f"\n{pad}</{element.tag}>")


@dataclass
class ParsedElement:
    """Wrapper pairing an :class:`XmlElement` with its in-scope namespaces."""

    element: XmlElement
    namespaces: dict[str | None, str] = field(default_factory=dict)


def parse_xml(text: str) -> XmlElement:
    """Parse XML text into an :class:`XmlElement` tree, preserving prefixes.

    Namespace declarations are kept as literal ``xmlns``/``xmlns:p``
    attributes and tags keep their written prefixes, mirroring what the
    writer produces.  Built directly on the stdlib expat parser (namespace
    processing off, so names arrive exactly as written) which also reports
    the line/column of every start tag -- recorded on the elements as
    ``source_line``/``source_column`` (both 1-based) so readers can attach
    source locations to their diagnostics.

    Malformed input raises :class:`xml.etree.ElementTree.ParseError` with
    ``position`` set, matching the previous pull-parser behavior.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True

    stack: list[XmlElement] = []
    #: The text runs read so far inside each open element, before its
    #: first child element.
    texts: list[list[str]] = []
    roots: list[XmlElement] = []
    new_element = XmlElement.__new__

    def handle_start(tag: str, attributes: list[str]) -> None:
        # Expat has already enforced the XML Name production on ``tag``, a
        # stricter check than the constructor's, so it is not run again.
        element = new_element(XmlElement)
        element.tag = tag
        element.attributes = dict(zip(attributes[::2], attributes[1::2]))
        element.children = []
        element.source_line = parser.CurrentLineNumber
        element.source_column = parser.CurrentColumnNumber + 1
        if stack:
            stack[-1].children.append(element)
        else:
            roots.append(element)
        stack.append(element)
        texts.append([])

    def handle_end(tag: str) -> None:
        element = stack.pop()
        leading = "".join(texts.pop())
        # Match the previous reader: only the text before the first child
        # element survives; whitespace-only runs survive only in childless
        # elements (so indentation never becomes a text node).  Until then
        # ``children`` holds only elements.
        if leading.strip() or (leading and not element.children):
            element.children.insert(0, leading)

    def handle_text(data: str) -> None:
        if stack and not stack[-1].children:
            texts[-1].append(data)

    parser.StartElementHandler = handle_start
    parser.EndElementHandler = handle_end
    parser.CharacterDataHandler = handle_text
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as error:
        wrapped = ET.ParseError(str(error))
        wrapped.code = error.code
        wrapped.position = (error.lineno, error.offset)
        raise wrapped from None
    if not roots:
        raise ValueError("document contained no root element")
    return roots[0]
