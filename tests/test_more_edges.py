"""Targeted edge-path tests for branches the main suites skim over."""

import pytest

from repro.xmlutil.qname import QName


class TestRelaxNgBoundedOccurs:
    def test_bounded_range_unrolls(self):
        """minOccurs=2 maxOccurs=4 -> two copies plus two optionals."""
        from repro.catalog.primitives import add_standard_prim_library
        from repro.ccts.derivation import derive_abie
        from repro.ccts.model import CctsModel
        from repro.instances import InstanceGenerator
        from repro.rngen import result_to_rng
        from repro.xsdgen import SchemaGenerator

        from tests.rng_validator import RngValidator, compile_grammar

        model = CctsModel("Bounded")
        business = model.add_business_library("B", "urn:bounded")
        prims = add_standard_prim_library(business)
        string = prims.primitive("String").element
        cdts = business.add_cdt_library("Cdts")
        text = cdts.add_cdt("Text")
        text.set_content(string)
        ccs = business.add_cc_library("Ccs")
        acc = ccs.add_acc("Box")
        acc.add_bcc("Item", text, "2..4")
        doc = business.add_doc_library("Doc")
        derivation = derive_abie(doc, acc)
        derivation.include("Item", "2..4")
        result = SchemaGenerator(model).generate(doc, root="Box")
        grammar = compile_grammar(result_to_rng(result, "Box"))
        validator = RngValidator(grammar)

        def box(count):
            from repro.xmlutil.writer import XmlElement

            root = XmlElement("d:Box", {"xmlns:d": result.root.namespace.urn})
            for _ in range(count):
                root.add("d:Item").text("x")
            return root

        assert not validator.validate(box(1))
        assert validator.validate(box(2))
        assert validator.validate(box(3))
        assert validator.validate(box(4))
        assert not validator.validate(box(5))
        # And the XSD validator agrees at the boundaries.
        from repro.xsd.validator import validate_instance

        schema_set = result.schema_set()
        assert validate_instance(schema_set, box(2)) == []
        assert validate_instance(schema_set, box(5))
        # The instance generator respects the lower bound.
        generated = InstanceGenerator(schema_set).generate("Box")
        items = [c for c in generated.element_children if c.tag.endswith("Item")]
        assert len(items) >= 2


class TestBindingScalarCoercion:
    def test_python_scalars_marshal(self, ecommerce):
        from repro.binding import marshal, unmarshal
        from repro.xsdgen import SchemaGenerator

        schema_set = SchemaGenerator(ecommerce.model).generate(
            ecommerce.doc_library, root="PurchaseOrder"
        ).schema_set()
        data = {
            "Identification": 12345,              # int -> "12345"
            "IssueDate": "2007-04-15",
            "BuyerParty": {
                "Identification": "B", "Name": "N",
                "PostalAddress": {"Street": "s", "CityName": "c"},
            },
            "SellerParty": {
                "Identification": "S", "Name": "N",
                "PostalAddress": {"Street": "s", "CityName": "c"},
            },
            "OrderedLineItem": [
                {"Identification": "L", "Quantity": 3, "UnitPrice": 19.9},
            ],
        }
        document = marshal(schema_set, "PurchaseOrder", data)
        back = unmarshal(schema_set, document)
        assert back["Identification"] == "12345"
        assert back["OrderedLineItem"][0]["Quantity"] == "3"
        assert back["OrderedLineItem"][0]["UnitPrice"] == "19.9"

    def test_bool_coercion(self):
        from repro.binding.marshal import _to_text

        assert _to_text(True) == "true"
        assert _to_text(False) == "false"
        assert _to_text(7) == "7"


class TestSpreadsheetEdgeCases:
    def test_unknown_library_kind_rejected(self):
        from repro.errors import InterchangeError
        from repro.interchange import import_csv
        from repro.interchange.spreadsheet import COLUMNS

        header = ",".join(COLUMNS)
        text = f"{header}\nACC,Lib,FancyLibrary,,Thing,,,,,\n"
        with pytest.raises(InterchangeError, match="unknown library kind"):
            import_csv(text)

    def test_unknown_classifier_kind_rejected(self):
        from repro.errors import InterchangeError
        from repro.interchange import import_csv
        from repro.interchange.spreadsheet import COLUMNS

        header = ",".join(COLUMNS)
        text = f"{header}\nWAT,Lib,CCLibrary,,Thing,,,,,\n"
        with pytest.raises(InterchangeError, match="unknown classifier kind"):
            import_csv(text)

    def test_reference_to_missing_classifier_rejected(self):
        from repro.errors import InterchangeError
        from repro.interchange import import_csv
        from repro.interchange.spreadsheet import COLUMNS

        header = ",".join(COLUMNS)
        text = (
            f"{header}\n"
            "ACC,Lib,CCLibrary,,Thing,,,,,\n"
            "BCC,Lib,CCLibrary,Thing,Field,Ghost,1,,,\n"
        )
        with pytest.raises(InterchangeError, match="unknown classifier"):
            import_csv(text)


class TestCompatEdgeCases:
    def test_type_category_change_is_breaking(self, easybiz_schema_set):
        from repro.xsd.compat import check_compatibility
        from repro.xsd.components import Schema, SimpleType
        from repro.xsd.validator import SchemaSet

        enum_ns = "urn:au:gov:vic:easybiz:types:draft:EnumerationTypes"
        # Replace the ENUM schema with one where a simpleType became complex.
        from repro.xsd.components import ComplexType, SequenceGroup

        hacked = Schema(enum_ns, prefixes={"enum": enum_ns})
        hacked.items.append(ComplexType("CountryType_CodeType", particle=SequenceGroup()))
        old = easybiz_schema_set
        new_set = SchemaSet([old.schema_for(ns) for ns in old.namespaces if ns != enum_ns] + [hacked])
        report = check_compatibility(old, new_set)
        assert any("category" in str(c) for c in report.breaking)

    def test_simple_type_base_change_is_breaking(self, easybiz_schema_set):
        from repro.xsd.compat import check_compatibility
        from repro.xsd.components import Facet, Schema, SimpleType, xsd
        from repro.xsd.validator import SchemaSet

        enum_ns = "urn:au:gov:vic:easybiz:types:draft:EnumerationTypes"
        old_schema = easybiz_schema_set.schema_for(enum_ns)
        hacked = Schema(enum_ns, prefixes=dict(old_schema.prefixes))
        for item in old_schema.simple_types:
            hacked.items.append(SimpleType(item.name, base=xsd("string"), facets=list(item.facets)))
        new_set = SchemaSet(
            [easybiz_schema_set.schema_for(ns) for ns in easybiz_schema_set.namespaces if ns != enum_ns]
            + [hacked]
        )
        report = check_compatibility(easybiz_schema_set, new_set)
        assert any("base changed" in str(c) for c in report.breaking)


class TestParseXmlXmlPrefix:
    def test_xml_lang_attribute(self):
        from tests.xml_oracle import parse_xml

        parsed = parse_xml('<a xml:lang="en">x</a>')
        assert parsed.attributes.get("xml:lang") == "en"


class TestMinimalCliInstance:
    def test_minimal_flag(self, tmp_path, capsys):
        from repro.cli import main

        xmi = tmp_path / "m.xmi"
        main(["example", "easybiz", "--out", str(xmi)])
        schemas = tmp_path / "schemas"
        main(["generate", str(xmi), "--library", "EB005-HoardingPermit",
              "--root", "HoardingPermit", "--out", str(schemas)])
        capsys.readouterr()
        assert main(["instance", str(schemas), "--root", "HoardingPermit", "--minimal"]) == 0
        out = capsys.readouterr().out
        assert "IncludedRegistration" in out
        assert "ClosureReason" not in out
