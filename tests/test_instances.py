"""Unit tests for instance generation and mutation."""

import pytest

from repro.errors import SchemaError
from repro.instances import InstanceGenerator, sample_value
from repro.xmlutil.qname import QName
from repro.xsd.components import XSD_NS, Facet
from repro.xsd.validator import validate_instance

from tests.mutate import (
    add_unknown_attribute,
    add_unknown_child,
    corrupt_enumeration_value,
    drop_required_attribute,
    drop_required_child,
)


def _q(local):
    return QName(XSD_NS, local)


class TestSampleValues:
    @pytest.mark.parametrize(
        "local", ["string", "integer", "decimal", "boolean", "date", "dateTime", "base64Binary", "token"]
    )
    def test_samples_are_lexically_valid(self, local):
        from repro.xsd.datatypes import check_builtin

        assert check_builtin(_q(local), sample_value(_q(local), []))

    def test_enumeration_dominates(self):
        facets = [Facet("enumeration", "AUS"), Facet("enumeration", "AUT")]
        assert sample_value(_q("token"), facets) == "AUS"

    def test_length_facets_respected(self):
        assert len(sample_value(_q("string"), [Facet("length", "5")])) == 5
        assert len(sample_value(_q("string"), [Facet("maxLength", "3")])) <= 3

    def test_range_facets_respected(self):
        assert sample_value(_q("integer"), [Facet("minInclusive", "100")]) == "100"


class TestGenerator:
    def test_generated_instances_validate(self, easybiz_schema_set):
        generator = InstanceGenerator(easybiz_schema_set)
        document = generator.generate("HoardingPermit")
        assert validate_instance(easybiz_schema_set, document) == []

    def test_generated_string_form_validates(self, easybiz_schema_set):
        generator = InstanceGenerator(easybiz_schema_set)
        text = generator.generate_string("HoardingPermit")
        assert text.startswith("<?xml")
        assert validate_instance(easybiz_schema_set, text) == []

    def test_minimal_instance_omits_optionals(self, easybiz_schema_set):
        generator = InstanceGenerator(easybiz_schema_set, fill_optional=False)
        document = generator.generate("HoardingPermit")
        locals_ = [child.tag.rpartition(":")[2] for child in document.element_children]
        assert "ClosureReason" not in locals_
        assert "IncludedRegistration" in locals_
        assert validate_instance(easybiz_schema_set, document) == []

    def test_repeat_unbounded_controls_fanout(self, easybiz_schema_set):
        generator = InstanceGenerator(easybiz_schema_set, repeat_unbounded=4)
        document = generator.generate("HoardingPermit")
        attachments = [c for c in document.element_children if c.tag.endswith("IncludedAttachment")]
        assert len(attachments) == 4

    def test_determinism(self, easybiz_schema_set):
        first = InstanceGenerator(easybiz_schema_set).generate_string("HoardingPermit")
        second = InstanceGenerator(easybiz_schema_set).generate_string("HoardingPermit")
        assert first == second

    def test_unknown_root_raises(self, easybiz_schema_set):
        with pytest.raises(SchemaError):
            InstanceGenerator(easybiz_schema_set).generate("NotAnElement")

    def test_qname_root(self, easybiz_schema_set):
        root = QName("urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit", "HoardingPermit")
        document = InstanceGenerator(easybiz_schema_set).generate(root)
        assert validate_instance(easybiz_schema_set, document) == []


class TestMutations:
    @pytest.fixture
    def instance(self, easybiz_schema_set):
        return InstanceGenerator(easybiz_schema_set).generate("HoardingPermit")

    def test_drop_required_child_invalidates(self, easybiz_schema_set, instance):
        assert drop_required_child(instance, "IncludedRegistration")
        problems = validate_instance(easybiz_schema_set, instance)
        assert problems and "IncludedRegistration" in problems[0].message

    def test_drop_missing_child_returns_false(self, instance):
        assert not drop_required_child(instance, "NoSuchThing")

    def test_corrupt_enum_invalidates(self, easybiz_schema_set, instance):
        assert corrupt_enumeration_value(instance, "CountryName")
        problems = validate_instance(easybiz_schema_set, instance)
        assert any("enumerated" in p.message for p in problems)

    def test_drop_required_attribute_invalidates(self, easybiz_schema_set, instance):
        # The IsClosed* elements carry required code-list attributes.
        assert drop_required_attribute(instance, "CodeListAgName")
        problems = validate_instance(easybiz_schema_set, instance)
        assert any("missing required attribute" in p.message for p in problems)

    def test_add_unknown_child_invalidates(self, easybiz_schema_set, instance):
        add_unknown_child(instance)
        assert validate_instance(easybiz_schema_set, instance)

    def test_add_unknown_attribute_invalidates(self, easybiz_schema_set, instance):
        add_unknown_attribute(instance)
        problems = validate_instance(easybiz_schema_set, instance)
        assert any("undeclared attribute" in p.message for p in problems)

    def test_every_mutation_is_detected(self, easybiz_schema_set):
        mutations = [
            lambda doc: drop_required_child(doc, "IncludedRegistration"),
            lambda doc: drop_required_child(doc, "Designation"),
            lambda doc: corrupt_enumeration_value(doc, "CountryName"),
            lambda doc: drop_required_attribute(doc, "CodeListName"),
            lambda doc: add_unknown_child(doc),
            lambda doc: add_unknown_attribute(doc),
        ]
        for index, mutate in enumerate(mutations):
            document = InstanceGenerator(easybiz_schema_set).generate("HoardingPermit")
            assert mutate(document), f"mutation #{index} found no target"
            assert validate_instance(easybiz_schema_set, document), f"mutation #{index} undetected"
