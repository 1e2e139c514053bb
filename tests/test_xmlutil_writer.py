"""Unit tests for the XML element tree, writer and parser."""

import xml.etree.ElementTree as ET
import xml.parsers.expat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmlutil.escape import is_valid_xml_name
from repro.xmlutil.writer import XmlElement, XmlWriter

from tests.xml_oracle import parse_xml


class TestXmlElement:
    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            XmlElement("1bad")

    def test_prefixed_tag_accepted(self):
        assert XmlElement("xsd:schema").tag == "xsd:schema"

    def test_chaining(self):
        element = XmlElement("a").set("x", "1").text("hi")
        assert element.attributes == {"x": "1"}
        assert element.text_content == "hi"

    def test_add_returns_child(self):
        parent = XmlElement("a")
        child = parent.add("b", {"k": "v"})
        assert child in parent.element_children
        assert child.attributes["k"] == "v"

    def test_find_and_find_all(self):
        parent = XmlElement("a")
        parent.add("b")
        parent.add("b")
        parent.add("c")
        assert parent.find("c") is not None
        assert parent.find("missing") is None
        assert len(parent.find_all("b")) == 2

    def test_element_children_skips_text(self):
        parent = XmlElement("a")
        parent.text("text")
        parent.add("b")
        assert len(parent.element_children) == 1


class TestXmlWriter:
    def test_declaration_and_indent(self):
        root = XmlElement("a")
        root.add("b").text("x")
        text = XmlWriter().to_string(root)
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert "  <b>x</b>" in text

    def test_self_closing_empty_element(self):
        assert "<a/>" in XmlWriter().to_string(XmlElement("a"))

    def test_attribute_escaping(self):
        root = XmlElement("a", {"v": 'x"y'})
        assert 'v="x&quot;y"' in XmlWriter().to_string(root)

    def test_text_escaping(self):
        root = XmlElement("a")
        root.text("a < b & c")
        assert "a &lt; b &amp; c" in XmlWriter().to_string(root)

    def test_attribute_order_preserved(self):
        root = XmlElement("a")
        root.set("z", "1")
        root.set("a", "2")
        text = XmlWriter().to_string(root)
        assert text.index('z="1"') < text.index('a="2"')

    def test_sorted_attributes_option(self):
        root = XmlElement("a")
        root.set("z", "1")
        root.set("a", "2")
        text = XmlWriter(sort_attributes=True).to_string(root)
        assert text.index('a="2"') < text.index('z="1"')

    def test_deterministic_output(self):
        root = XmlElement("a")
        root.add("b", {"x": "1"}).text("t")
        writer = XmlWriter()
        assert writer.to_string(root) == writer.to_string(root)


class TestParseXml:
    def test_simple_round_trip(self):
        root = XmlElement("a", {"k": "v"})
        root.add("b").text("hello & goodbye")
        text = XmlWriter().to_string(root)
        parsed = parse_xml(text)
        assert parsed.tag == "a"
        assert parsed.attributes["k"] == "v"
        assert parsed.find("b").text_content == "hello & goodbye"

    def test_prefix_preservation(self):
        text = (
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
            'xmlns:cdt="urn:cdt"><xsd:element name="X" type="cdt:Y"/></xsd:schema>'
        )
        parsed = parse_xml(text)
        assert parsed.tag == "xsd:schema"
        assert parsed.attributes["xmlns:cdt"] == "urn:cdt"
        child = parsed.element_children[0]
        assert child.tag == "xsd:element"
        assert child.attributes["type"] == "cdt:Y"

    def test_default_namespace_elements(self):
        text = '<root xmlns="urn:d"><child/></root>'
        parsed = parse_xml(text)
        assert parsed.tag == "root"
        assert parsed.attributes["xmlns"] == "urn:d"
        assert parsed.element_children[0].tag == "child"

    def test_empty_document_raises(self):
        with pytest.raises(Exception):
            parse_xml("not xml at all")

    def test_nested_structure(self):
        text = "<a><b><c>deep</c></b></a>"
        parsed = parse_xml(text)
        assert parsed.find("b").find("c").text_content == "deep"


def _expat_accepts(name: str) -> bool:
    """True when expat reads ``<name/>`` as one element called ``name``."""
    seen = []
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = lambda tag, attributes: seen.append(tag)
    try:
        parser.Parse(f"<{name}/>", True)
    except xml.parsers.expat.ExpatError:
        return False
    return seen == [name]


class TestParseNameCheck:
    """``parse_xml`` leaves tag names to expat; the constructor keeps its check."""

    def test_every_bmp_name_char_expat_accepts_is_a_valid_name(self):
        rejected = []
        for code in range(0x20, 0x10000):
            if 0xD800 <= code <= 0xDFFF:
                continue  # lone surrogates cannot reach the parser
            for name in (chr(code), "a" + chr(code)):
                if _expat_accepts(name) and not is_valid_xml_name(name):
                    rejected.append(f"U+{code:04X} in {name!r}")
        assert rejected == []

    @pytest.mark.parametrize("text", ["<1bad/>", "<a><-b/></a>", "<a><.b/></a>", "<\u00d7/>"])
    def test_parse_raises_on_a_bad_tag_name(self, text):
        with pytest.raises(ET.ParseError):
            parse_xml(text)

    def test_constructor_still_checks(self):
        with pytest.raises(ValueError):
            XmlElement("1bad")


_name = st.from_regex(r"[a-zA-Z][a-zA-Z0-9]{0,8}", fullmatch=True)
_text_value = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FFF),
    min_size=1,
    max_size=30,
).map(lambda s: " ".join(s.split())).filter(bool)


@st.composite
def _element_trees(draw, depth=0):
    element = XmlElement(draw(_name))
    for attr_name in draw(st.lists(_name, max_size=3, unique=True)):
        element.set(attr_name, draw(_text_value))
    if depth < 2:
        for _ in range(draw(st.integers(0, 3))):
            element.children.append(draw(_element_trees(depth=depth + 1)))
    if not element.element_children and draw(st.booleans()):
        element.text(draw(_text_value))
    return element


class TestWriterParserProperties:
    @given(_element_trees())
    def test_write_parse_write_is_identity(self, tree):
        writer = XmlWriter()
        once = writer.to_string(tree)
        twice = writer.to_string(parse_xml(once))
        assert once == twice


# Text where whitespace matters: the normalized _text_value above never
# exercises \r (which parsers normalize away unless written as &#13;).
_whitespace_rich_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"),
        whitelist_characters="\r\n\t",
        max_codepoint=0x2FFF,
    ),
    min_size=1,
    max_size=30,
)


class TestRoundTripFidelity:
    def test_carriage_return_in_text_round_trips(self):
        root = XmlElement("a")
        root.add("b").text("line1\rline2\r\nline3")
        writer = XmlWriter()
        once = writer.to_string(root)
        assert "&#13;" in once  # a literal \r would be normalized on parse
        parsed = parse_xml(once)
        assert parsed.find("b").text_content == "line1\rline2\r\nline3"
        assert writer.to_string(parsed) == once

    def test_carriage_return_in_attribute_round_trips(self):
        root = XmlElement("a", {"note": "one\rtwo"})
        writer = XmlWriter()
        once = writer.to_string(root)
        parsed = parse_xml(once)
        assert parsed.attributes["note"] == "one\rtwo"
        assert writer.to_string(parsed) == once

    def test_xml_lang_attribute_round_trips(self):
        root = XmlElement("a", {"xml:lang": "en-US"})
        root.text("Hoarding Permit")
        writer = XmlWriter()
        once = writer.to_string(root)
        parsed = parse_xml(once)
        assert parsed.attributes["xml:lang"] == "en-US"
        assert writer.to_string(parsed) == once

    @given(_whitespace_rich_text)
    def test_text_with_control_whitespace_round_trips(self, value):
        root = XmlElement("a")
        root.text(value)
        writer = XmlWriter()
        once = writer.to_string(root)
        parsed = parse_xml(once)
        assert parsed.text_content == value
        assert writer.to_string(parsed) == once

    @given(_whitespace_rich_text)
    def test_attribute_with_control_whitespace_round_trips(self, value):
        root = XmlElement("a", {"v": value})
        writer = XmlWriter()
        once = writer.to_string(root)
        parsed = parse_xml(once)
        assert parsed.attributes["v"] == value
        assert writer.to_string(parsed) == once
