"""``SchemaSet`` as the one resolver of schema components: its index of
global types and elements, its root and reference lookups, and the
particle walk of :mod:`repro.xsd.components`.  Broken derivation chains
are covered in ``tests/test_schema_defects.py``."""

import pytest

from repro.errors import SchemaError
from repro.xmlutil.qname import QName
from repro.xsd.components import (
    ChoiceGroup,
    ComplexType,
    ElementDecl,
    Schema,
    SequenceGroup,
    SimpleType,
    particle_elements,
    xsd,
)
from repro.xsd.validator import SchemaSet

NS = "urn:t"


class TestIndex:
    def test_first_declaration_of_a_name_wins(self):
        first, second = ComplexType("T"), SimpleType("T")
        element, duplicate = ElementDecl(name="E", type=xsd("string")), ElementDecl(name="E")
        schema_set = SchemaSet([Schema(NS, items=[first, element, second, duplicate])])
        assert schema_set.find_type(QName(NS, "T")) is first
        assert schema_set.find_global_element(QName(NS, "E")) is element
        assert list(schema_set.global_types) == [QName(NS, "T")]

    def test_add_drops_the_index(self):
        schema_set = SchemaSet([Schema(NS, items=[ComplexType("T")])])
        assert schema_set.find_type(QName("urn:u", "U")) is None
        assert schema_set.instance_prefixes == {NS: "ns1"}
        schema_set.add(Schema("urn:u", items=[SimpleType("U")]))
        assert schema_set.find_type(QName("urn:u", "U")) is not None
        assert schema_set.instance_prefixes == {NS: "ns1", "urn:u": "ns2"}

    def test_no_namespace_takes_no_prefix(self):
        schema_set = SchemaSet([Schema("urn:b"), Schema(""), Schema("urn:a")])
        assert schema_set.instance_prefixes == {"urn:a": "ns2", "urn:b": "ns3"}


class TestLookups:
    @pytest.fixture
    def schema_set(self):
        return SchemaSet(
            [
                Schema("urn:a", items=[ElementDecl(name="Doc"), ElementDecl(name="Both")]),
                Schema("urn:b", items=[ElementDecl(name="Both")]),
            ]
        )

    def test_root_by_local_name(self, schema_set):
        qname, decl = schema_set.root_element("Doc")
        assert qname == QName("urn:a", "Doc") and decl.name == "Doc"

    def test_root_by_local_name_and_namespace(self, schema_set):
        assert schema_set.root_element("Both", "urn:b")[0] == QName("urn:b", "Both")

    @pytest.mark.parametrize("root", ["Both", "Nope"])
    def test_ambiguous_or_missing_local_name(self, schema_set, root):
        with pytest.raises(SchemaError, match="resolves to [02] namespaces"):
            schema_set.root_element(root)

    def test_missing_qualified_root(self, schema_set):
        with pytest.raises(SchemaError, match=r"no global element \{urn:b\}Doc"):
            schema_set.root_element(QName("urn:b", "Doc"))

    def test_reference_resolves_to_the_global_declaration(self, schema_set):
        local = ElementDecl(name="Local")
        assert schema_set.resolve_element(local) is local
        target = schema_set.resolve_element(ElementDecl(ref=QName("urn:b", "Both")))
        assert target is schema_set.find_global_element(QName("urn:b", "Both"))
        with pytest.raises(SchemaError, match=r"dangling element reference \{urn:b\}Doc"):
            schema_set.resolve_element(ElementDecl(ref=QName("urn:b", "Doc")))


def test_particle_elements_in_document_order():
    a, b, c, d = (ElementDecl(name=name) for name in "abcd")
    tree = SequenceGroup([a, ChoiceGroup([b, SequenceGroup([c])]), SequenceGroup([]), d])
    assert particle_elements(tree) == [a, b, c, d]
    assert particle_elements(None) == []
