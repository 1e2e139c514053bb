"""Figure 8: the CDTLibrary schema fragment for CodeType, plus QDT/ENUM rules."""

import pytest

from repro.xmlutil.qname import QName
from repro.xsd.components import XSD_NS, AttributeUse

CDT_NS = "urn:au:gov:vic:easybiz:types:draft:coredatatypes"
QDT_NS = "urn:au:gov:vic:easybiz:types:draft:CommonDataTypes"
ENUM_NS = "urn:au:gov:vic:easybiz:types:draft:EnumerationTypes"


@pytest.fixture
def cdt_schema(easybiz_result):
    return easybiz_result.schemas[CDT_NS].schema


@pytest.fixture
def qdt_schema(easybiz_result):
    return easybiz_result.schemas[QDT_NS].schema


@pytest.fixture
def enum_schema(easybiz_result):
    return easybiz_result.schemas[ENUM_NS].schema


class TestCodeTypeFigure8:
    def test_simple_content_extension_of_string(self, cdt_schema):
        code = cdt_schema.complex_type("CodeType")
        assert code.particle is None
        assert code.simple_content.derivation == "extension"
        assert code.simple_content.base == QName(XSD_NS, "string")

    def test_four_supplementary_attributes_with_figure8_uses(self, cdt_schema):
        attributes = {a.name: a for a in cdt_schema.complex_type("CodeType").simple_content.attributes}
        assert set(attributes) == {
            "CodeListAgName", "CodeListName", "CodeListSchemeURI", "LanguageIdentifier",
        }
        assert attributes["CodeListAgName"].use is AttributeUse.REQUIRED
        assert attributes["CodeListName"].use is AttributeUse.REQUIRED
        assert attributes["CodeListSchemeURI"].use is AttributeUse.REQUIRED
        assert attributes["LanguageIdentifier"].use is AttributeUse.OPTIONAL

    def test_attribute_types_are_builtins(self, cdt_schema):
        for attribute in cdt_schema.complex_type("CodeType").simple_content.attributes:
            assert attribute.type == QName(XSD_NS, "string")

    def test_rendered_fragment_matches_figure8(self, easybiz_result):
        text = easybiz_result.schemas[CDT_NS].to_string()
        assert '<xsd:complexType name="CodeType">' in text
        assert "<xsd:simpleContent>" in text
        assert '<xsd:extension base="xsd:string">' in text
        assert '<xsd:attribute name="CodeListAgName" type="xsd:string" use="required"/>' in text
        assert '<xsd:attribute name="CodeListName" type="xsd:string" use="required"/>' in text
        assert '<xsd:attribute name="CodeListSchemeURI" type="xsd:string" use="required"/>' in text
        assert '<xsd:attribute name="LanguageIdentifier" type="xsd:string" use="optional"/>' in text

    def test_every_cdt_gets_a_type(self, cdt_schema):
        names = {ct.name for ct in cdt_schema.complex_types}
        assert {"CodeType", "TextType", "IdentifierType", "DateType",
                "DateTimeType", "BinaryObjectType", "MeasureType", "AmountType"} <= names

    def test_decimal_contents_map_to_decimal(self, cdt_schema):
        assert cdt_schema.complex_type("AmountType").simple_content.base == QName(XSD_NS, "decimal")
        assert cdt_schema.complex_type("MeasureType").simple_content.base == QName(XSD_NS, "decimal")

    def test_binary_content_maps_to_base64(self, cdt_schema):
        assert cdt_schema.complex_type("BinaryObjectType").simple_content.base == QName(XSD_NS, "base64Binary")


class TestQdtGeneration:
    def test_enum_restricted_qdt_extends_enum_simple_type(self, qdt_schema):
        country = qdt_schema.complex_type("CountryTypeType")
        assert country.simple_content.derivation == "extension"
        assert country.simple_content.base == QName(ENUM_NS, "CountryType_CodeType")
        kept = {a.name for a in country.simple_content.attributes}
        assert kept == {"CodeListName"}

    def test_plain_qdt_restricts_cdt_complex_type(self, qdt_schema):
        indicator = qdt_schema.complex_type("Indicator_CodeType")
        assert indicator.simple_content.derivation == "restriction"
        assert indicator.simple_content.base == QName(CDT_NS, "CodeType")

    def test_dropped_optional_sup_is_prohibited(self, qdt_schema):
        indicator = qdt_schema.complex_type("Indicator_CodeType")
        uses = {a.name: a.use for a in indicator.simple_content.attributes}
        # LanguageIdentifier is optional on Code and dropped -> prohibited;
        # the three required SUPs cannot be prohibited in a valid restriction.
        assert uses == {"LanguageIdentifier": AttributeUse.PROHIBITED}

    def test_qdt_schema_imports_enum_and_cdt(self, qdt_schema):
        imported = {imp.namespace for imp in qdt_schema.imports}
        assert imported == {ENUM_NS, CDT_NS}


class TestEnumGeneration:
    def test_simple_types_restrict_token(self, enum_schema):
        country = enum_schema.simple_type("CountryType_CodeType")
        assert country.base == QName(XSD_NS, "token")

    def test_enumeration_values_are_literal_names(self, enum_schema):
        country = enum_schema.simple_type("CountryType_CodeType")
        assert country.enumeration_values == ["USA", "AUT", "AUS"]
        council = enum_schema.simple_type("CouncilType_CodeType")
        assert council.enumeration_values == [
            "kingston", "morningtonpeninsula", "northerngrampians", "portphillip", "pyrenees",
        ]

    def test_rendered_enumeration_tags(self, easybiz_result):
        text = easybiz_result.schemas[ENUM_NS].to_string()
        assert '<xsd:restriction base="xsd:token">' in text
        assert '<xsd:enumeration value="USA"/>' in text
