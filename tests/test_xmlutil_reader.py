"""The ElementTree reader: C-parser fast path, names as written, lazy positions."""

import xml.etree.ElementTree as ET

import pytest

import repro.xmlutil.reader as reader
from repro.xmi import load_xmi
from repro.xmlutil.reader import parse_as_written, read_document, text_of

from tests.xml_oracle import parse_xml

ROOT_DECLARED = (
    '<x:a xmlns:x="urn:x" xmlns="urn:d" x:id="1" plain="2">'
    "<b><x:c>t</x:c></b></x:a>"
)


class TestReadDocument:
    def test_root_declarations_take_the_c_parser(self):
        document = read_document(ROOT_DECLARED)
        assert not document.as_written
        assert document.root.tag == "{urn:x}a"
        assert document.prefixes == {"x": "urn:x", None: "urn:d"}

    def test_names_map_both_ways(self):
        document = read_document(ROOT_DECLARED)
        assert document.name("x", "id") == "{urn:x}id"
        assert document.name(None, "b") == "{urn:d}b"
        assert document.name("undeclared", "b") is None
        child = document.root[0]
        assert document.written(child.tag) == "b"
        assert document.written(child[0].tag) == "x:c"
        assert document.written("{urn:x}id") == "x:id"
        assert document.written("{http://www.w3.org/XML/1998/namespace}lang") == "xml:lang"

    @pytest.mark.parametrize(
        "text",
        [
            '<a xmlns:p="urn:p"><b xmlns:p="urn:q"><p:c/></b></a>',  # rebound below the root
            '<a xmlns:p="urn:p" xmlns:q="urn:p"><p:b/></a>',  # one namespace, two prefixes
            "<a><p:b/></a>",  # undeclared prefix
            '<a note="see xmlns"><b/></a>',  # "xmlns" outside a declaration
            "<a xmlns:p=''/>",  # an undeclaration the C parser refuses
        ],
    )
    def test_other_documents_keep_names_as_written(self, text):
        document = read_document(text)
        assert document.as_written
        oracle = parse_xml(text)
        assert document.root.tag == oracle.tag
        assert document.root.attrib == oracle.attributes
        assert document.name("p", "b") == "p:b"
        assert document.written("p:b") == "p:b"

    @pytest.mark.parametrize("text", ["<a><b></a>", "not xml", "<a/><b/>", "<a><p:b></a>"])
    def test_errors_match_the_expat_reader(self, text):
        with pytest.raises(ET.ParseError) as ours:
            read_document(text)
        try:
            parse_xml(text)
        except ET.ParseError as theirs:
            assert (str(ours.value), ours.value.position) == (str(theirs), theirs.position)
        else:
            pytest.fail("the oracle accepted a document the reader rejected")

    def test_parse_as_written_keeps_declarations(self):
        root = parse_as_written('<p:a xmlns:p="urn:p"><p:b k="v"/></p:a>')
        assert root.tag == "p:a"
        assert root.attrib == {"xmlns:p": "urn:p"}
        assert root[0].attrib == {"k": "v"}


class TestLocate:
    TEXT = '<a xmlns:x="urn:x">\n  <x:b/>\n  <c>\n    <d/></c>\n</a>'

    @pytest.mark.parametrize("as_written", [False, True])
    def test_positions_follow_document_order(self, as_written):
        text = self.TEXT if not as_written else self.TEXT.replace("<c>", '<c xmlns:y="urn:y">')
        document = read_document(text)
        assert document.as_written == as_written
        elements = list(document.root.iter())
        assert [document.locate(element) for element in elements] == [
            (1, 1), (2, 3), (3, 3), (4, 5)
        ]

    def test_one_pass_per_document(self, monkeypatch):
        calls = []
        original = reader.start_tag_positions

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(reader, "start_tag_positions", counting)
        document = read_document(self.TEXT)
        assert calls == []  # nothing is located until asked
        for element in document.root.iter():
            document.locate(element)
        assert len(calls) == 1

    def test_lenient_load_with_many_issues_locates_once(self, monkeypatch):
        calls = []
        original = reader.start_tag_positions

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(reader, "start_tag_positions", counting)
        body = "\n".join(
            f'    <packagedElement xmi:type="uml:Class" name="C{index}"/>' for index in range(4)
        )
        text = (
            '<xmi:XMI xmlns:xmi="http://www.omg.org/XMI" '
            'xmlns:uml="http://www.omg.org/spec/UML/20090901">\n'
            f'  <uml:Model xmi:id="id_1" name="M">\n{body}\n  </uml:Model>\n</xmi:XMI>\n'
        )
        result = load_xmi(text)
        assert [issue.kind for issue in result.issues] == ["missing-id"] * 4
        assert [issue.line for issue in result.issues] == [3, 4, 5, 6]
        assert len(calls) == 1

    def test_a_clean_load_never_locates(self, monkeypatch, figure1):
        from repro.xmi import write_xmi

        text = write_xmi(figure1.model.model)
        monkeypatch.setattr(reader, "start_tag_positions", None)  # any call fails
        assert load_xmi(text).ok


class TestTextOf:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("<a>x</a>", "x"),
            ("<a>  </a>", "  "),
            ("<a>  <b/></a>", ""),
            ("<a>x<b/>tail</a>", "x"),
            ("<a/>", ""),
        ],
    )
    def test_matches_the_expat_reader(self, text, expected):
        assert text_of(ET.fromstring(text)) == expected
        assert parse_xml(text).text_content == expected
