"""Unit tests for the RELAX NG and RDF Schema extensions."""

import pytest

from repro.rngen import model_to_rdfs, rdfs_to_string, result_to_rng, rng_to_string
from repro.rngen.relaxng import RNG_NS, XSD_DATATYPES

from tests.xml_oracle import parse_xml


@pytest.fixture
def grammar(easybiz_result):
    return result_to_rng(easybiz_result, "HoardingPermit")


def _defines(grammar):
    return {node.attributes["name"]: node for node in grammar.find_all("define")}


class TestRelaxNgStructure:
    def test_grammar_root(self, grammar):
        assert grammar.tag == "grammar"
        assert grammar.attributes["xmlns"] == RNG_NS
        assert grammar.attributes["datatypeLibrary"] == XSD_DATATYPES

    def test_start_references_root_element(self, grammar):
        start = grammar.find("start")
        assert start.find("ref").attributes["name"] == "e.doc.HoardingPermit"

    def test_every_complex_type_has_a_define(self, grammar, easybiz_result):
        defines = _defines(grammar)
        for generated in easybiz_result.schemas.values():
            prefix = generated.schema.prefix_for(generated.namespace.urn)
            for complex_type in generated.schema.complex_types:
                assert f"t.{prefix}.{complex_type.name}" in defines

    def test_occurrence_wrappers(self, grammar):
        permit = _defines(grammar)["t.doc.HoardingPermitType"]
        wrappers = [child.tag for child in permit.element_children]
        # 6 optionals (4 BBIEs + CurrentApplication + Billing), one
        # zeroOrMore (IncludedAttachment), one bare element (IncludedRegistration).
        assert wrappers.count("optional") == 6
        assert wrappers.count("zeroOrMore") == 1
        assert wrappers.count("element") == 1

    def test_shared_aggregation_becomes_element_ref(self, grammar):
        person = _defines(grammar)["t.commonAggregates.Person_IdentificationType"]
        refs = [
            child.find("ref") or child
            for child in person.element_children
        ]
        names = [node.attributes.get("name") for node in refs if node.tag == "ref" or node.find("ref")]
        flat = rng_to_string(grammar)
        assert '<ref name="e.commonAggregates.AssignedAddress"/>' in flat

    def test_simple_content_flattens_to_data_and_attributes(self, grammar):
        code = _defines(grammar)["t.cdt.CodeType"]
        text = rng_to_string(grammar)
        assert code.find("data").attributes["type"] == "string"
        attribute_names = {
            node.attributes["name"]
            for node in code.find_all("attribute")
        }
        assert {"CodeListAgName", "CodeListName", "CodeListSchemeURI"} <= attribute_names
        assert '<attribute name="LanguageIdentifier">' in text

    def test_enumeration_becomes_value_choice(self, grammar):
        country = _defines(grammar)["t.enum.CountryType_CodeType"]
        choice = country.find("choice")
        values = [child.text_content for child in choice.find_all("value")]
        assert values == ["USA", "AUT", "AUS"]

    def test_qdt_with_enum_content(self, grammar):
        country_type = _defines(grammar)["t.qdt.CountryTypeType"]
        choice = country_type.find("choice")
        assert [c.text_content for c in choice.find_all("value")] == ["USA", "AUT", "AUS"]

    def test_prohibited_attribute_omitted(self, grammar):
        indicator = _defines(grammar)["t.qdt.Indicator_CodeType"]
        attribute_names = {node.attributes["name"] for node in indicator.find_all("attribute")}
        # LanguageIdentifier was prohibited in the XSD restriction -> absent.
        assert "LanguageIdentifier" not in attribute_names

    def test_rendered_grammar_is_well_formed(self, grammar):
        text = rng_to_string(grammar)
        reparsed = parse_xml(text)
        assert reparsed.tag == "grammar"
        assert len(reparsed.find_all("define")) == len(grammar.find_all("define"))

    def test_unknown_root_rejected(self, easybiz_result):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            result_to_rng(easybiz_result, "NotAnElement")


class TestRdfs:
    def test_classes_for_aggregates(self, easybiz):
        rdf = model_to_rdfs(easybiz.model)
        abouts = {node.attributes.get("rdf:about") for node in rdf.find_all("rdfs:Class")}
        assert any(about.endswith("#HoardingPermit") for about in abouts)
        assert any(about.endswith("#Person_Identification") for about in abouts)

    def test_based_on_becomes_subclass(self, easybiz):
        rdf = model_to_rdfs(easybiz.model)
        application_abies = [
            node for node in rdf.find_all("rdfs:Class")
            if node.attributes.get("rdf:about", "").endswith("CommonAggregates#Application")
        ]
        assert application_abies
        subclass = application_abies[0].find("rdfs:subClassOf")
        assert subclass.attributes["rdf:resource"].endswith("CandidateCoreComponents#Application")

    def test_properties_carry_domain_and_range(self, easybiz):
        rdf = model_to_rdfs(easybiz.model)
        properties = {
            node.attributes["rdf:about"]: node for node in rdf.find_all("rdf:Property")
        }
        bbie = next(uri for uri in properties if uri.endswith("#HoardingPermit.ClosureReason"))
        node = properties[bbie]
        assert node.find("rdfs:domain").attributes["rdf:resource"].endswith("#HoardingPermit")
        assert node.find("rdfs:range").attributes["rdf:resource"].endswith("#Text")

    def test_asbie_subproperty_of_ascc(self, easybiz):
        rdf = model_to_rdfs(easybiz.model)
        properties = [
            node for node in rdf.find_all("rdf:Property")
            if node.attributes["rdf:about"].endswith("EB005-HoardingPermit#HoardingPermit.Billing")
        ]
        assert properties
        parent = properties[0].find("rdfs:subPropertyOf")
        assert parent.attributes["rdf:resource"].endswith("CandidateCoreComponents#HoardingPermit.Billing")

    def test_definitions_become_comments(self, figure1):
        figure1.person.definition = "A natural person."
        text = rdfs_to_string(figure1.model)
        assert "<rdfs:comment>A natural person.</rdfs:comment>" in text

    def test_rendered_document_is_well_formed(self, easybiz):
        text = rdfs_to_string(easybiz.model)
        reparsed = parse_xml(text)
        assert reparsed.tag == "rdf:RDF"
