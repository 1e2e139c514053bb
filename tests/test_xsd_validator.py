"""Unit tests for the instance validator."""

import pytest

from repro.errors import InstanceValidationError, SchemaError
from repro.xmlutil.qname import QName
from repro.xsd.components import (
    AttributeDecl,
    AttributeUse,
    ComplexType,
    ElementDecl,
    Facet,
    Schema,
    SequenceGroup,
    SimpleContent,
    SimpleType,
)
from repro.xsd.components import xsd
from repro.xsd.validator import SchemaSet, assert_valid, validate_instance

from tests.reference_validator import reference_validate

NS = "urn:v"


def _schema_set() -> SchemaSet:
    schema = Schema(NS, prefixes={"v": NS})
    schema.items.append(
        SimpleType("CurrencyCodeType", base=xsd("token"), facets=[Facet("enumeration", "EUR"), Facet("enumeration", "USD")])
    )
    schema.items.append(
        ComplexType(
            "AmountType",
            simple_content=SimpleContent(
                base=xsd("decimal"),
                derivation="extension",
                attributes=[
                    AttributeDecl("currency", QName(NS, "CurrencyCodeType"), AttributeUse.REQUIRED),
                    AttributeDecl("note", xsd("string"), AttributeUse.OPTIONAL),
                ],
            ),
        )
    )
    schema.items.append(
        ComplexType(
            "RestrictedAmountType",
            simple_content=SimpleContent(
                base=QName(NS, "AmountType"),
                derivation="restriction",
                attributes=[AttributeDecl("note", xsd("string"), AttributeUse.PROHIBITED)],
            ),
        )
    )
    schema.items.append(
        ComplexType(
            "OrderType",
            particle=SequenceGroup(
                [
                    ElementDecl(name="Id", type=xsd("integer")),
                    ElementDecl(name="Total", type=QName(NS, "AmountType"), min_occurs=0),
                    ElementDecl(name="Net", type=QName(NS, "RestrictedAmountType"), min_occurs=0),
                ]
            ),
        )
    )
    schema.items.append(ElementDecl(name="Order", type=QName(NS, "OrderType")))
    return SchemaSet([schema])


def _doc(body: str) -> str:
    return f'<v:Order xmlns:v="{NS}">{body}</v:Order>'


class TestHappyPath:
    def test_minimal_valid(self):
        assert validate_instance(_schema_set(), _doc("<v:Id>7</v:Id>")) == []

    def test_full_valid(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="EUR" note="n">12.50</v:Total>')
        assert validate_instance(_schema_set(), doc) == []

    def test_assert_valid_passes(self):
        assert_valid(_schema_set(), _doc("<v:Id>7</v:Id>"))


class TestStructureErrors:
    def test_unknown_root(self):
        problems = validate_instance(_schema_set(), f'<v:Nope xmlns:v="{NS}"/>')
        assert problems and "no global element" in problems[0].message

    def test_missing_required_child(self):
        problems = validate_instance(_schema_set(), _doc(""))
        assert problems and "content model mismatch" in problems[0].message

    def test_wrong_order(self):
        doc = _doc('<v:Total currency="EUR">1</v:Total><v:Id>7</v:Id>')
        assert validate_instance(_schema_set(), doc)

    def test_unexpected_text_in_complex_type(self):
        doc = _doc("chatter<v:Id>7</v:Id>")
        problems = validate_instance(_schema_set(), doc)
        assert any("character content" in p.message for p in problems)

    def test_problem_paths_are_informative(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="EUR">abc</v:Total>')
        problems = validate_instance(_schema_set(), doc)
        assert problems[0].path == "/Order/Total"


class TestSimpleContent:
    def test_bad_decimal(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="EUR">twelve</v:Total>')
        problems = validate_instance(_schema_set(), doc)
        assert any("not a valid decimal" in p.message for p in problems)

    def test_missing_required_attribute(self):
        doc = _doc("<v:Id>7</v:Id><v:Total>12.50</v:Total>")
        problems = validate_instance(_schema_set(), doc)
        assert any("missing required attribute 'currency'" in p.message for p in problems)

    def test_enum_typed_attribute(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="XXX">1</v:Total>')
        problems = validate_instance(_schema_set(), doc)
        assert any("enumerated" in p.message for p in problems)

    def test_undeclared_attribute(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="EUR" bogus="1">1</v:Total>')
        problems = validate_instance(_schema_set(), doc)
        assert any("undeclared attribute" in p.message for p in problems)

    def test_restriction_inherits_required_attribute(self):
        doc = _doc("<v:Id>7</v:Id><v:Net>1</v:Net>")
        problems = validate_instance(_schema_set(), doc)
        assert any("missing required attribute 'currency'" in p.message for p in problems)

    def test_restriction_prohibits_attribute(self):
        doc = _doc('<v:Id>7</v:Id><v:Net currency="EUR" note="n">1</v:Net>')
        problems = validate_instance(_schema_set(), doc)
        assert any("prohibited" in p.message for p in problems)

    def test_children_under_simple_content(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="EUR"><v:Id>1</v:Id></v:Total>')
        problems = validate_instance(_schema_set(), doc)
        assert any("simple content" in p.message for p in problems)


class TestSchemaSetMechanics:
    def test_schema_for_unknown_namespace(self):
        with pytest.raises(SchemaError):
            _schema_set().schema_for("urn:none")

    def test_find_type_and_element(self):
        schema_set = _schema_set()
        assert schema_set.find_type(QName(NS, "OrderType")) is not None
        assert schema_set.find_type(QName(NS, "Nope")) is None
        assert schema_set.find_global_element(QName(NS, "Order")) is not None
        assert schema_set.find_global_element(QName("urn:none", "Order")) is None

    def test_xsi_attributes_ignored(self):
        doc = (
            f'<v:Order xmlns:v="{NS}" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            f'xsi:schemaLocation="x y"><v:Id>7</v:Id></v:Order>'
        )
        assert validate_instance(_schema_set(), doc) == []

    def test_undeclared_prefix_raises(self):
        with pytest.raises(InstanceValidationError):
            validate_instance(_schema_set(), "<w:Order><w:Id>7</w:Id></w:Order>")

    def test_assert_valid_raises(self):
        with pytest.raises(InstanceValidationError):
            assert_valid(_schema_set(), _doc(""))

    def test_backtracking_engine_agrees(self):
        doc = _doc('<v:Id>7</v:Id><v:Total currency="EUR">1</v:Total>')
        assert reference_validate(_schema_set(), doc, engine="backtracking") == []
        assert reference_validate(_schema_set(), _doc(""), engine="backtracking")

    def test_add_invalidates_the_memoized_fingerprint(self):
        schema_set = _schema_set()
        other = "urn:w"
        document = f'<w:Note xmlns:w="{other}">hello</w:Note>'
        [problem] = validate_instance(schema_set, document)
        assert "no global element declaration" in problem.message
        before = schema_set.fingerprint
        schema = Schema(other, prefixes={"w": other})
        schema.items.append(ElementDecl(name="Note", type=xsd("string")))
        schema_set.add(schema)
        assert schema_set.fingerprint != before
        assert validate_instance(schema_set, document) == []
