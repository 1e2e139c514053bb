"""An independent XML reader for tests (test support, not product code).

``repro`` reads documents into the ElementTree the C parser builds
(:mod:`repro.xmlutil.reader`).  :func:`parse_xml` is a separate reader
built on the expat callbacks: it yields the writer's own
:class:`~repro.xmlutil.writer.XmlElement` trees, with tags, attribute
names and ``xmlns`` declarations exactly as written.  Tests use it as
an oracle for what the product reads and as a way to build trees from
text.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import xml.parsers.expat

from repro.xmlutil.writer import XmlElement


def parse_xml(text: str) -> XmlElement:
    """Parse XML text into an :class:`XmlElement` tree, preserving prefixes.

    Only the text before an element's first child survives, and
    whitespace-only text only in childless elements (so indentation never
    becomes a text node).  Malformed input raises
    :class:`xml.etree.ElementTree.ParseError` with ``position`` set.
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
        if stack:
            stack[-1].children.append(element)
        else:
            roots.append(element)
        stack.append(element)
        texts.append([])

    def handle_end(tag: str) -> None:
        element = stack.pop()
        leading = "".join(texts.pop())
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
