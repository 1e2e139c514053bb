"""Round-trip tests for the XSD writer and parser."""

from repro.xmlutil.qname import QName
from repro.xsd.components import (
    Annotation,
    AttributeDecl,
    AttributeUse,
    ChoiceGroup,
    ComplexType,
    ElementDecl,
    Facet,
    ImportDecl,
    Schema,
    SequenceGroup,
    SimpleContent,
    SimpleType,
)
from repro.xsd.components import xsd
from repro.xsd.parser import parse_schema
from repro.xsd.writer import schema_to_string


def _sample_schema() -> Schema:
    schema = Schema(
        "urn:t",
        prefixes={"t": "urn:t", "cdt": "urn:cdt", "ccts": "urn:ccts"},
        version="0.9",
    )
    schema.imports.append(ImportDecl("urn:cdt", "../f/cdt.xsd"))
    schema.items.append(
        SimpleType(
            "CodeListType",
            base=xsd("token"),
            facets=[Facet("enumeration", "A"), Facet("enumeration", "B")],
        )
    )
    schema.items.append(
        ComplexType(
            "CodeType",
            simple_content=SimpleContent(
                base=xsd("string"),
                derivation="extension",
                attributes=[
                    AttributeDecl("ListName", xsd("string"), AttributeUse.REQUIRED),
                    AttributeDecl("Language", xsd("string"), AttributeUse.OPTIONAL),
                ],
            ),
        )
    )
    schema.items.append(
        ComplexType(
            "ThingType",
            particle=SequenceGroup(
                [
                    ElementDecl(name="Kind", type=QName("urn:t", "CodeType"), min_occurs=0),
                    ElementDecl(name="Other", type=QName("urn:cdt", "TextType"), max_occurs=None),
                    ElementDecl(ref=QName("urn:t", "Shared"), min_occurs=0),
                    ChoiceGroup(
                        [ElementDecl(name="A", type=xsd("string")), ElementDecl(name="B", type=xsd("integer"))],
                        min_occurs=0,
                        max_occurs=3,
                    ),
                ]
            ),
            annotation=Annotation([("AcronymCode", "ABIE"), ("Definition", "a thing")]),
        )
    )
    schema.items.append(ElementDecl(name="Shared", type=QName("urn:t", "CodeType")))
    schema.items.append(ElementDecl(name="Thing", type=QName("urn:t", "ThingType")))
    return schema


class TestWriter:
    def test_form_defaults_and_version(self):
        text = schema_to_string(_sample_schema())
        assert 'attributeFormDefault="unqualified"' in text
        assert 'elementFormDefault="qualified"' in text
        assert 'version="0.9"' in text

    def test_occurrence_defaults_omitted(self):
        text = schema_to_string(_sample_schema())
        assert '<xsd:element name="Kind"' not in text  # minOccurs comes first
        assert 'minOccurs="0" name="Kind"' in text
        assert 'maxOccurs="unbounded" name="Other"' in text
        assert 'name="Shared" type="t:CodeType"' in text

    def test_annotation_block(self):
        text = schema_to_string(_sample_schema())
        assert "<xsd:annotation>" in text
        assert "<ccts:AcronymCode>ABIE</ccts:AcronymCode>" in text

    def test_simple_type_facets(self):
        text = schema_to_string(_sample_schema())
        assert '<xsd:restriction base="xsd:token">' in text
        assert '<xsd:enumeration value="A"/>' in text

    def test_missing_prefix_raises(self):
        schema = Schema("urn:t", prefixes={"t": "urn:t"})
        schema.items.append(
            ComplexType("X", particle=SequenceGroup([ElementDecl(name="a", type=QName("urn:unknown", "T"))]))
        )
        import pytest
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            schema_to_string(schema)


class TestRoundTrip:
    def test_write_parse_write_identity(self):
        once = schema_to_string(_sample_schema())
        twice = schema_to_string(parse_schema(once))
        assert once == twice

    def test_parse_resolves_qnames(self):
        parsed = parse_schema(schema_to_string(_sample_schema()))
        thing = parsed.complex_type("ThingType")
        first = thing.particle.particles[0]
        assert first.type == QName("urn:t", "CodeType")
        other = thing.particle.particles[1]
        assert other.type == QName("urn:cdt", "TextType")
        assert other.max_occurs is None
        ref = thing.particle.particles[2]
        assert ref.ref == QName("urn:t", "Shared")

    def test_parse_simple_content(self):
        parsed = parse_schema(schema_to_string(_sample_schema()))
        code = parsed.complex_type("CodeType")
        assert code.simple_content.derivation == "extension"
        assert code.simple_content.base == xsd("string")
        uses = {a.name: a.use for a in code.simple_content.attributes}
        assert uses["ListName"] is AttributeUse.REQUIRED

    def test_parse_imports(self):
        parsed = parse_schema(schema_to_string(_sample_schema()))
        assert parsed.imports[0].namespace == "urn:cdt"
        assert parsed.imports[0].schema_location == "../f/cdt.xsd"

    def test_parse_nested_choice(self):
        parsed = parse_schema(schema_to_string(_sample_schema()))
        thing = parsed.complex_type("ThingType")
        choice = thing.particle.particles[3]
        assert isinstance(choice, ChoiceGroup)
        assert choice.min_occurs == 0 and choice.max_occurs == 3

    def test_parse_annotation(self):
        parsed = parse_schema(schema_to_string(_sample_schema()))
        thing = parsed.complex_type("ThingType")
        assert ("Definition", "a thing") in thing.annotation.entries

    def test_generated_easybiz_schemas_round_trip(self, easybiz_result):
        for generated in easybiz_result.schemas.values():
            once = generated.to_string()
            twice = schema_to_string(parse_schema(once))
            assert once == twice


class TestInScopePrefixes:
    """QName-valued ``type``, ``ref`` and ``base`` resolve through the
    prefixes in scope at their element, not only the root's."""

    HEAD = '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">'

    def test_prefix_declared_on_the_element(self):
        parsed = parse_schema(
            self.HEAD + '<xsd:element xmlns:b="urn:b" name="X" type="b:T"/></xsd:schema>'
        )
        assert parsed.items[0].type == QName("urn:b", "T")

    def test_prefix_declared_on_an_ancestor_and_rebound_below(self):
        parsed = parse_schema(
            self.HEAD
            + '<xsd:complexType name="C" xmlns:b="urn:b"><xsd:sequence>'
            '<xsd:element name="x" type="b:T"/>'
            '<xsd:element name="y" type="b:T" xmlns:b="urn:other"/>'
            '</xsd:sequence>'
            '<xsd:attribute name="a" type="b:A"/></xsd:complexType>'
            '<xsd:simpleType name="S" xmlns:b="urn:s"><xsd:restriction base="b:string"/>'
            '</xsd:simpleType></xsd:schema>'
        )
        particles = parsed.complex_type("C").particle.particles
        assert [element.type for element in particles] == [
            QName("urn:b", "T"), QName("urn:other", "T"),
        ]
        assert parsed.complex_type("C").attributes[0].type == QName("urn:b", "A")
        assert parsed.items[1].base == QName("urn:s", "string")

    def test_undeclared_prefix_still_raises(self):
        import pytest

        from repro.errors import SchemaError

        text = (
            self.HEAD
            + '<xsd:element xmlns:b="urn:b" name="X" type="b:T"/>'
            '<xsd:element name="Y" type="b:T"/></xsd:schema>'
        )
        with pytest.raises(SchemaError, match="undeclared prefix 'b' in type reference 'b:T'"):
            parse_schema(text)
