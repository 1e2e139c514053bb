"""A broken derivation chain ends in :class:`SchemaError`, in every consumer.

The instance generator, the marshaller and the RELAX NG translator build
output, so they stop at the chain's first defect.  The compiled validator
raises a cycle as :class:`SchemaError` and reports any other defect on
each document that reaches it.  ``upcc instance`` and
``upcc check-instance`` print the error and exit 1.
"""

from types import SimpleNamespace

import pytest

from repro.binding import marshal
from repro.cli import main
from repro.errors import SchemaError
from repro.instances import InstanceGenerator
from repro.rngen import result_to_rng
from repro.xmlutil.qname import QName
from repro.xsd.compiled import CompiledSchemaSet
from repro.xsd.parser import parse_schema
from repro.xsd.validator import SchemaSet, ValidationProblem

NS = "urn:t"
ROOT = QName(NS, "Root")


def _schema_text(body: str) -> str:
    return (
        '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:t="urn:t" '
        'targetNamespace="urn:t" elementFormDefault="qualified">'
        '<xsd:element name="Root" type="t:A"/>' + body + "</xsd:schema>"
    )


def _extension(name: str, base: str) -> str:
    return (
        f'<xsd:complexType name="{name}"><xsd:simpleContent>'
        f'<xsd:extension base="{base}"/></xsd:simpleContent></xsd:complexType>'
    )


CYCLIC_CONTENT = _schema_text(_extension("A", "t:B") + _extension("B", "t:A"))

#: case -> (schema text, the defect's message, whether the compiled
#: validator raises it (True) or reports it on ``<Root>`` (False)).
CASES = {
    "cyclic-simple-content": (
        CYCLIC_CONTENT,
        "cyclic simpleContent derivation at {urn:t}B",
        True,
    ),
    "cyclic-simple-type": (
        _schema_text(
            _extension("A", "t:S1")
            + '<xsd:simpleType name="S1"><xsd:restriction base="t:S2"/></xsd:simpleType>'
            + '<xsd:simpleType name="S2"><xsd:restriction base="t:S1"/></xsd:simpleType>'
        ),
        "cyclic simple-type derivation at {urn:t}S1",
        True,
    ),
    "complex-base-without-simple-content": (
        _schema_text(
            _extension("A", "t:C")
            + '<xsd:complexType name="C"><xsd:sequence>'
            + '<xsd:element name="X" type="xsd:string"/></xsd:sequence></xsd:complexType>'
        ),
        "simpleContent base {urn:t}C is not a simple-content type",
        False,
    ),
    "unresolved-base": (
        _schema_text(_extension("A", "t:Missing")),
        "unresolved simpleContent base {urn:t}Missing",
        False,
    ),
}

STRICT_CONSUMERS = {
    "instance-generator": lambda schema_set: InstanceGenerator(schema_set).generate(ROOT),
    "marshal": lambda schema_set: marshal(schema_set, ROOT, "x", validate=False),
    "relax-ng": lambda schema_set: result_to_rng(
        SimpleNamespace(schema_set=lambda: schema_set, schemas={}), ROOT
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("consumer", sorted(STRICT_CONSUMERS) + ["compiled-validator"])
def test_a_broken_chain_is_a_schema_error(case, consumer):
    text, message, compile_raises = CASES[case]
    schema_set = SchemaSet([parse_schema(text)])
    if consumer != "compiled-validator":
        with pytest.raises(SchemaError) as raised:
            STRICT_CONSUMERS[consumer](schema_set)
        assert str(raised.value) == message
    elif compile_raises:
        with pytest.raises(SchemaError) as raised:
            CompiledSchemaSet(schema_set)
        assert str(raised.value) == message
    else:
        problems = CompiledSchemaSet(schema_set).validate('<Root xmlns="urn:t">x</Root>')
        assert problems == [ValidationProblem("/Root", message)]


@pytest.fixture
def cyclic_dir(tmp_path):
    directory = tmp_path / "schemas"
    directory.mkdir()
    (directory / "cyclic.xsd").write_text(CYCLIC_CONTENT, encoding="utf-8")
    return directory


def test_cli_instance_on_a_cyclic_schema_is_an_error(cyclic_dir, capsys):
    assert main(["instance", str(cyclic_dir), "--root", "Root"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cyclic simpleContent derivation at {urn:t}B\n"
    assert captured.out == ""


def test_cli_check_instance_on_a_cyclic_schema_is_an_error(cyclic_dir, tmp_path, capsys):
    document = tmp_path / "doc.xml"
    document.write_text('<Root xmlns="urn:t">x</Root>', encoding="utf-8")
    assert main(["check-instance", str(cyclic_dir), str(document)]) == 1
    assert capsys.readouterr().err == "error: cyclic simpleContent derivation at {urn:t}B\n"
