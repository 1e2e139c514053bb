"""The approved CDT catalog and the e-commerce model."""

import pytest

from repro.catalog.cdts import PAPER_CDTS, STANDARD_CDTS
from repro.validation import validate_model
from repro.xsdgen import SchemaGenerator
from repro.xsdgen.primitives import builtin_for_primitive_name, builtin_or_string


class TestStandardCatalog:
    def test_twenty_approved_cdts(self):
        assert len(STANDARD_CDTS) == 20

    def test_ten_cct_families_covered(self):
        names = {name for name, _, _ in STANDARD_CDTS}
        assert {"Amount", "BinaryObject", "Code", "DateTime", "Identifier",
                "Indicator", "Measure", "Numeric", "Quantity", "Text"} <= names

    def test_every_cdt_builds_with_content_and_sups(self, ecommerce):
        cdt_library = ecommerce.model.cdt_libraries()[0]
        assert len(cdt_library.cdts) == len(STANDARD_CDTS)
        for cdt in cdt_library.cdts:
            assert cdt.content_component is not None

    def test_amount_carries_currency_sups(self, ecommerce):
        cdt_library = ecommerce.model.cdt_libraries()[0]
        amount = cdt_library.cdt("Amount")
        assert [s.name for s in amount.supplementary_components] == [
            "AmountCurrencyIdentificationCode",
            "AmountCurrencyCodeListVersionIdentifier",
        ]

    def test_paper_catalog_is_reduced_code_shape(self):
        code = next(spec for spec in PAPER_CDTS if spec[0] == "Code")
        assert [sup[0] for sup in code[2]] == [
            "CodeListAgName", "CodeListName", "CodeListSchemeURI", "LanguageIdentifier",
        ]


class TestPrimitiveMapping:
    @pytest.mark.parametrize(
        "name,local",
        [
            ("String", "string"),
            ("Integer", "integer"),
            ("Boolean", "boolean"),
            ("Decimal", "decimal"),
            ("Binary", "base64Binary"),
            ("Date", "date"),
            ("DateTime", "dateTime"),
        ],
    )
    def test_known_mappings(self, name, local):
        assert builtin_for_primitive_name(name).local == local

    def test_unknown_returns_none(self):
        assert builtin_for_primitive_name("Quaternion") is None

    def test_fallback_is_string(self):
        assert builtin_or_string("Quaternion").local == "string"


class TestEcommerceModel:
    def test_validates_clean(self, ecommerce):
        assert validate_model(ecommerce.model).ok

    def test_purchase_order_structure(self, ecommerce):
        order = ecommerce.purchase_order
        assert order.name == "PurchaseOrder"
        assert [a.role for a in order.asbies] == ["Buyer", "Seller", "Ordered"]
        ordered = order.asbie("Ordered")
        assert str(ordered.multiplicity) == "1..*"

    def test_generation_end_to_end(self, ecommerce):
        from repro.instances import InstanceGenerator
        from repro.xsd.validator import validate_instance

        result = SchemaGenerator(ecommerce.model).generate(
            ecommerce.doc_library, root="PurchaseOrder"
        )
        assert len(result.schemas) == 5
        schema_set = result.schema_set()
        document = InstanceGenerator(schema_set).generate("PurchaseOrder")
        assert validate_instance(schema_set, document) == []

    def test_currency_enum_enforced(self, ecommerce):
        from repro.instances import InstanceGenerator
        from repro.xsd.validator import validate_instance

        from tests.mutate import corrupt_enumeration_value

        result = SchemaGenerator(ecommerce.model).generate(
            ecommerce.doc_library, root="PurchaseOrder"
        )
        schema_set = result.schema_set()
        document = InstanceGenerator(schema_set).generate("PurchaseOrder")
        corrupt_enumeration_value(document, "Currency", "BTC")
        problems = validate_instance(schema_set, document)
        assert any("BTC" in p.message for p in problems)
