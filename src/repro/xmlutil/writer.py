"""A deterministic XML element tree and pretty-printing writer.

The standard library's ``xml.etree`` can serialize, but its namespace
handling renames prefixes (``ns0``/``ns1``) which would destroy the
prefix-bearing output the paper's Figures 6-8 show (``cdt1``, ``qdt1``,
``commonAggregates``, ``bie2``).  This module keeps prefixes explicit:
elements carry already-prefixed tags plus ``xmlns`` declarations as ordinary
attributes, exactly as the generator computed them.

Documents are read back through :mod:`repro.xmlutil.reader`, into the
ElementTree the C parser builds.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.xmlutil.escape import escape_attribute, escape_text, is_valid_xml_name


class XmlElement:
    """A mutable XML element with ordered attributes and mixed children.

    ``tag`` is the name as written (possibly prefixed).  Children are either
    :class:`XmlElement` instances or strings (text nodes).  Attribute order
    is insertion order, which the writer preserves so output is stable.
    """

    __slots__ = ("tag", "attributes", "children")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None) -> None:
        if not is_valid_xml_name(tag.replace(":", "_", 1) if ":" in tag else tag):
            raise ValueError(f"invalid XML element name: {tag!r}")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[XmlElement | str] = []

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
