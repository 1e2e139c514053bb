"""Unit tests for the data-binding layer (dict <-> business document)."""

import pytest

from repro.binding import marshal, marshal_string, unmarshal
from repro.errors import InstanceValidationError, SchemaError
from repro.xsd.validator import validate_instance


@pytest.fixture
def order_pipeline(ecommerce):
    from repro.xsdgen import SchemaGenerator

    result = SchemaGenerator(ecommerce.model).generate(ecommerce.doc_library, root="PurchaseOrder")
    return result.schema_set()


def _order_data():
    return {
        "Identification": "PO-2007-001",
        "IssueDate": "2007-04-15",
        "Currency": {"#value": "EUR", "@CodeListName": "ISO4217"},
        "BuyerParty": {
            "Identification": "B-1",
            "Name": "Custom Powder Coating GmbH",
            "PostalAddress": {
                "Street": "Favoritenstr. 9-11",
                "CityName": "Vienna",
                "Country": "AT",
            },
        },
        "SellerParty": {
            "Identification": "S-9",
            "Name": "EasyBiz Pty Ltd",
            "PostalAddress": {
                "Street": "1 Collins St",
                "CityName": "Melbourne",
            },
        },
        "OrderedLineItem": [
            {"Identification": "L-1", "Quantity": "5", "UnitPrice": "19.90"},
            {"Identification": "L-2", "Quantity": "1", "UnitPrice": "240.00",
             "Description": "Mounting kit"},
        ],
    }


class TestMarshal:
    def test_marshalled_document_is_schema_valid(self, order_pipeline):
        document = marshal(order_pipeline, "PurchaseOrder", _order_data())
        assert validate_instance(order_pipeline, document) == []

    def test_string_form(self, order_pipeline):
        text = marshal_string(order_pipeline, "PurchaseOrder", _order_data())
        assert text.startswith("<?xml")
        assert "PO-2007-001" in text
        assert validate_instance(order_pipeline, text) == []

    def test_repeated_elements_from_list(self, order_pipeline):
        document = marshal(order_pipeline, "PurchaseOrder", _order_data())
        lines = [c for c in document.element_children if c.tag.endswith("OrderedLineItem")]
        assert len(lines) == 2
        data = _order_data()
        data["OrderedLineItem"] = [
            {"Identification": f"L-{i}", "Quantity": str(i + 1), "UnitPrice": "9.99"}
            for i in range(10)
        ]
        document = marshal(order_pipeline, "PurchaseOrder", data)
        assert len(document.element_children) >= 13
        assert unmarshal(order_pipeline, document) == data

    def test_simple_content_attributes(self, order_pipeline):
        document = marshal(order_pipeline, "PurchaseOrder", _order_data())
        currency = next(c for c in document.element_children if c.tag.endswith("Currency"))
        assert currency.attributes["CodeListName"] == "ISO4217"
        assert currency.text_content == "EUR"

    def test_plain_string_for_simple_content_without_attrs(self, order_pipeline):
        data = _order_data()
        data["Currency"] = "USD"
        document = marshal(order_pipeline, "PurchaseOrder", data)
        assert validate_instance(order_pipeline, document) == []

    def test_unknown_key_rejected(self, order_pipeline):
        data = _order_data()
        data["Typo"] = "x"
        with pytest.raises(InstanceValidationError, match="unknown keys"):
            marshal(order_pipeline, "PurchaseOrder", data)

    def test_missing_required_field_rejected(self, order_pipeline):
        data = _order_data()
        del data["BuyerParty"]
        with pytest.raises(InstanceValidationError, match="minimum 1"):
            marshal(order_pipeline, "PurchaseOrder", data)

    def test_too_many_occurrences_rejected(self, order_pipeline):
        data = _order_data()
        data["IssueDate"] = ["2007-01-01", "2007-01-02"]
        with pytest.raises(InstanceValidationError, match="maximum 1"):
            marshal(order_pipeline, "PurchaseOrder", data)

    def test_bad_enum_value_caught_by_validation(self, order_pipeline):
        data = _order_data()
        data["Currency"] = "BTC"
        with pytest.raises(InstanceValidationError, match="invalid"):
            marshal(order_pipeline, "PurchaseOrder", data)

    def test_validation_can_be_skipped(self, order_pipeline):
        data = _order_data()
        data["Currency"] = "BTC"
        document = marshal(order_pipeline, "PurchaseOrder", data, validate=False)
        assert validate_instance(order_pipeline, document)

    def test_unknown_root_rejected(self, order_pipeline):
        with pytest.raises(SchemaError):
            marshal(order_pipeline, "Invoice", {})

    def test_wrong_shape_rejected(self, order_pipeline):
        with pytest.raises(InstanceValidationError, match="expected a dict"):
            marshal(order_pipeline, "PurchaseOrder", "just a string")


class TestUnmarshal:
    def test_round_trip(self, order_pipeline):
        data = _order_data()
        document = marshal(order_pipeline, "PurchaseOrder", data)
        assert unmarshal(order_pipeline, document) == data

    def test_round_trip_from_string(self, order_pipeline):
        text = marshal_string(order_pipeline, "PurchaseOrder", _order_data())
        assert unmarshal(order_pipeline, text) == _order_data()

    def test_generated_instances_unmarshal(self, easybiz_schema_set):
        from repro.instances import InstanceGenerator

        document = InstanceGenerator(easybiz_schema_set).generate("HoardingPermit")
        data = unmarshal(easybiz_schema_set, document)
        assert data["IncludedRegistration"]["Type"]["#value"] == "Sample text"
        assert isinstance(data["IncludedAttachment"], list)

    def test_unexpected_element_rejected(self, order_pipeline):
        document = marshal(order_pipeline, "PurchaseOrder", _order_data())
        prefix = document.tag.partition(":")[0]
        document.add(f"{prefix}:Bogus")
        with pytest.raises(InstanceValidationError, match="unexpected element"):
            unmarshal(order_pipeline, document)

    def test_easybiz_round_trip(self, easybiz_schema_set):
        permit = {
            "ClosureReason": "Scaffolding on the footpath",
            "IncludedRegistration": {
                "Type": {
                    "#value": "LLR-7",
                    # Indicator/Registration QDTs keep Code's required SUPs
                    # (an XSD restriction cannot drop them, see EXPERIMENTS.md).
                    "@CodeListAgName": "EasyBiz",
                    "@CodeListName": "RegistrationTypes",
                    "@CodeListSchemeURI": "urn:easybiz:registration-types",
                },
            },
            "IncludedAttachment": [
                {"Description": "site plan"},
                {"Description": "insurance certificate"},
            ],
        }
        document = marshal(easybiz_schema_set, "HoardingPermit", permit)
        assert validate_instance(easybiz_schema_set, document) == []
        assert unmarshal(easybiz_schema_set, document) == permit
