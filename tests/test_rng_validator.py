"""Tests for the derivative-based RELAX NG validator.

The key property: the independent RNG engine must agree with the XSD
validator on every instance -- valid ones and every mutation -- which
demonstrates the generated RELAX NG grammar really describes the same
document language.
"""

import pytest

from repro.instances import InstanceGenerator
from repro.rngen import result_to_rng
from repro.xmlutil.qname import QName
from repro.xsd.validator import validate_instance

from tests.mutate import (
    add_unknown_attribute,
    add_unknown_child,
    corrupt_enumeration_value,
    drop_required_attribute,
    drop_required_child,
)
from tests.rng_validator import (
    AttributeP,
    Choice,
    DataP,
    ElementP,
    Empty,
    Group,
    NotAllowed,
    OneOrMore,
    RngValidator,
    Text,
    ValueP,
    choice,
    compile_grammar,
    group,
)
from tests.xml_oracle import parse_xml


@pytest.fixture
def rng_validator(easybiz_result):
    grammar = compile_grammar(result_to_rng(easybiz_result, "HoardingPermit"))
    return RngValidator(grammar)


class TestPatternAlgebra:
    def test_choice_simplification(self):
        assert choice(NotAllowed(), Text()) == Text()
        assert choice(Text(), NotAllowed()) == Text()
        assert choice(Text(), Text()) == Text()
        assert isinstance(choice(Text(), Empty()), Choice)

    def test_group_simplification(self):
        assert group(Empty(), Text()) == Text()
        assert group(Text(), Empty()) == Text()
        assert group(NotAllowed(), Text()) == NotAllowed()
        assert isinstance(group(Text(), Text()), Group)

    def test_patterns_are_hashable(self):
        patterns = {Empty(), Text(), DataP("string"), ValueP("x"),
                    OneOrMore(Text()), AttributeP("a", Text()),
                    ElementP(QName("urn:x", "E"), "c1")}
        assert len(patterns) == 7


class TestCompilation:
    def test_grammar_compiles(self, easybiz_result):
        grammar = compile_grammar(result_to_rng(easybiz_result, "HoardingPermit"))
        assert isinstance(grammar.start, ElementP)
        assert grammar.start.name.local == "HoardingPermit"
        assert grammar.defines  # content defines drained from the work list

    def test_recursive_grammar_terminates(self):
        # element A contains optional A: compilation must not loop.
        text = (
            '<grammar xmlns="http://relaxng.org/ns/structure/1.0">'
            '<start><ref name="e.A"/></start>'
            '<define name="e.A"><element name="A" ns=""><optional><ref name="e.A"/></optional>'
            "</element></define></grammar>"
        )
        grammar = compile_grammar(parse_xml(text))
        validator = RngValidator(grammar)
        assert validator.validate(parse_xml("<A><A/></A>"))
        assert validator.validate(parse_xml("<A><A><A/></A></A>"))
        assert not validator.validate(parse_xml("<A><B/></A>"))

    def test_unknown_ref_rejected(self):
        from repro.errors import SchemaError

        text = (
            '<grammar xmlns="http://relaxng.org/ns/structure/1.0">'
            '<start><ref name="nope"/></start></grammar>'
        )
        with pytest.raises(SchemaError):
            compile_grammar(parse_xml(text))


class TestValidation:
    def test_valid_instances_accepted(self, rng_validator, easybiz_schema_set):
        for fill in (True, False):
            document = InstanceGenerator(easybiz_schema_set, fill_optional=fill).generate("HoardingPermit")
            assert rng_validator.validate(document)

    def test_unbounded_repetition_accepted(self, rng_validator, easybiz_schema_set):
        document = InstanceGenerator(easybiz_schema_set, repeat_unbounded=5).generate("HoardingPermit")
        assert rng_validator.validate(document)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: drop_required_child(doc, "IncludedRegistration"),
            lambda doc: drop_required_child(doc, "Designation"),
            lambda doc: corrupt_enumeration_value(doc, "CountryName"),
            lambda doc: drop_required_attribute(doc, "CodeListName"),
            lambda doc: add_unknown_child(doc),
            lambda doc: add_unknown_attribute(doc),
        ],
        ids=["drop-registration", "drop-designation", "bad-enum",
             "drop-attr", "extra-child", "extra-attr"],
    )
    def test_mutations_rejected(self, mutate, rng_validator, easybiz_schema_set):
        document = InstanceGenerator(easybiz_schema_set).generate("HoardingPermit")
        assert mutate(document)
        assert not rng_validator.validate(document)

    def test_agrees_with_xsd_validator(self, rng_validator, easybiz_schema_set):
        mutations = [
            None,
            lambda doc: drop_required_child(doc, "IncludedRegistration"),
            lambda doc: drop_required_child(doc, "PersonalSignature"),
            lambda doc: corrupt_enumeration_value(doc, "CountryName"),
            lambda doc: add_unknown_child(doc, under="IncludedRegistration"),
        ]
        for mutate in mutations:
            document = InstanceGenerator(easybiz_schema_set).generate("HoardingPermit")
            if mutate is not None:
                assert mutate(document)
            xsd_verdict = validate_instance(easybiz_schema_set, document) == []
            rng_verdict = rng_validator.validate(document)
            assert xsd_verdict == rng_verdict, f"validators disagree after {mutate}"
            assert rng_verdict is (mutate is None)

    def test_wrong_root_rejected(self, rng_validator):
        assert not rng_validator.validate(parse_xml("<WrongRoot/>"))

    def test_ecommerce_grammar(self, ecommerce):
        from repro.xsdgen import SchemaGenerator

        result = SchemaGenerator(ecommerce.model).generate(ecommerce.doc_library, root="PurchaseOrder")
        validator = RngValidator(compile_grammar(result_to_rng(result, "PurchaseOrder")))
        schema_set = result.schema_set()
        document = InstanceGenerator(schema_set).generate("PurchaseOrder")
        assert validator.validate(document)
        broken = InstanceGenerator(schema_set).generate("PurchaseOrder")
        drop_required_child(broken, "BuyerParty")
        assert not validator.validate(broken)
