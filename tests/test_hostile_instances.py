"""Hostile instance documents: structure, entity expansion, depth and size.

Three contracts under test:

* differential -- on every structural mutation of
  ``tests/mutate.py`` (wide, huge text, many attributes,
  hostile namespaces) the pipeline's batch report equals the reference
  oracle's (``tests/reference_validator.py::reference_report``);
* entity expansion -- a billion-laughs document ends as a per-document
  "not well-formed" error (expat's amplification limit), quickly, through
  the pipeline, ``upcc check-instance`` and ``POST /validate``;
* bounds -- a document nesting deeper than
  :data:`repro.xsd.compiled.max_depth` or holding more than
  :data:`~repro.xsd.compiled.max_elements` elements is a located
  per-document error on every input path, in bounded time.
"""

from __future__ import annotations

import time
import xml.etree.ElementTree as ET

import pytest

from repro.binding import unmarshal
from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.cli import main
from repro.errors import InstanceValidationError
from repro.instances import InstanceGenerator, ValidationPipeline
from repro.serve import ServeApp, ServeConfig, UpccServer
from repro.serve.loadgen import request_json
from repro.xmi import write_xmi
from repro.xmlutil.qname import QName
from repro.xmlutil.writer import XmlElement, XmlWriter
from repro.xsd import compiled
from repro.xsd.components import ComplexType, ElementDecl, Schema, SequenceGroup
from repro.xsd.validator import SchemaSet, validate_instance
from repro.xsdgen import GenerationOptions, SchemaGenerator

from tests.mutate import (
    add_many_attributes,
    add_undeclared_prefix_attribute,
    inflate_text,
    rebind_target_namespace,
    widen,
)
from tests.reference_validator import reference_report
from tests.rng_validator import RngValidator, compile_grammar
from tests.xml_oracle import parse_xml

ROOTS = {
    "easybiz": ("HoardingPermit", build_easybiz_model),
    "ecommerce": ("PurchaseOrder", build_ecommerce_model),
}

STRUCTURAL_MUTATIONS = {
    "wide": widen,
    "huge_text": inflate_text,
    "many_attributes": add_many_attributes,
    "rebound_namespace": rebind_target_namespace,
    "undeclared_attribute_prefix": add_undeclared_prefix_attribute,
}

DEEP_LEVELS = 100_000


def _deep(levels: int = DEEP_LEVELS, root_attributes: str = "") -> str:
    return f"<a{root_attributes}>" + "<a>" * (levels - 1) + "</a>" * levels


def _billion_laughs(levels: int = 9, fanout: int = 10) -> str:
    """The classic entity bomb: ``fanout ** levels`` copies of "lol"."""
    lines = ['<?xml version="1.0"?>', "<!DOCTYPE lolz [", '  <!ENTITY lol0 "lol">']
    for level in range(1, levels + 1):
        lines.append(f'  <!ENTITY lol{level} "{f"&lol{level - 1};" * fanout}">')
    lines += ["]>", f"<lolz>&lol{levels};</lolz>"]
    return "\n".join(lines)


def _assert_deep_error(message: str) -> None:
    assert message.startswith("document nests too deeply"), message
    assert f"max_depth={compiled.max_depth}" in message


def _assert_bomb_error(message: str) -> None:
    assert message.startswith("document is not well-formed XML"), message
    assert "amplification" in message


@pytest.fixture(scope="module")
def corpora():
    """(schema_set, root_name) per catalog, built once for the module."""
    built = {}
    for name, (root, builder) in ROOTS.items():
        catalog = builder()
        result = SchemaGenerator(catalog.model, GenerationOptions()).generate(
            catalog.doc_library, root=root
        )
        built[name] = (result.schema_set(), root)
    return built


@pytest.fixture(scope="module")
def pipeline(corpora):
    return ValidationPipeline(corpora["easybiz"][0])


@pytest.fixture(scope="module")
def schemas_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    xmi = root / "easybiz.xmi"
    assert main(["example", "easybiz", "--out", str(xmi)]) == 0
    out = root / "schemas"
    assert main([
        "generate", str(xmi),
        "--library", "EB005-HoardingPermit",
        "--root", "HoardingPermit",
        "--out", str(out),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def served():
    """A running daemon plus the id of its registered easybiz schema set."""
    catalog = build_easybiz_model()
    config = ServeConfig(workers=2, queue_size=16, timeout_s=20)
    with UpccServer(ServeApp(), config) as server:
        status, payload = request_json(
            server.url,
            "/generate",
            {"xmi": write_xmi(catalog.model.model, None),
             "library": catalog.doc_library.name,
             "root": "HoardingPermit"},
        )
        assert status == 200, payload
        yield server, payload["schema_set"]


# -- structural mutations: compiled == reference --------------------------------


class TestStructuralMutations:
    @pytest.mark.parametrize("catalog", sorted(ROOTS))
    @pytest.mark.parametrize("mutation", sorted(STRUCTURAL_MUTATIONS))
    def test_report_identical_to_reference(self, corpora, tmp_path, catalog, mutation):
        schema_set, root = corpora[catalog]
        document = InstanceGenerator(schema_set).generate(root)
        assert STRUCTURAL_MUTATIONS[mutation](document)
        (tmp_path / f"{mutation}.xml").write_text(
            XmlWriter().to_string(document), encoding="utf-8"
        )
        report = ValidationPipeline(schema_set).run(tmp_path)
        assert report.docs_total == 1
        assert report.documents[0].error is None
        assert report.to_json() == reference_report(schema_set, tmp_path).to_json()

    def test_undeclared_attribute_prefix_takes_the_fallback(self, corpora):
        schema_set, root = corpora["easybiz"]
        document = InstanceGenerator(schema_set).generate(root)
        add_undeclared_prefix_attribute(document)
        text = XmlWriter().to_string(document)
        with pytest.raises(ET.ParseError, match="unbound prefix"):
            ET.fromstring(text)
        problems = compiled.compile_schema_set(schema_set).validate(text)
        assert [problem.message for problem in problems] == ["undeclared attribute 'flag'"]

    def test_mutations_report_their_defect(self, corpora):
        schema_set, root = corpora["easybiz"]
        compiled_set = compiled.compile_schema_set(schema_set)
        for mutation in (widen, add_many_attributes, rebind_target_namespace):
            document = InstanceGenerator(schema_set).generate(root)
            assert mutation(document)
            assert compiled_set.validate(document), mutation.__name__


# -- malformed documents that also use an undeclared prefix ----------------------


MALFORMED_WITH_UNBOUND_PREFIX = ["<p:a>", "<p:a><b></a>"]


class TestMalformedWithUnboundPrefix:
    """ElementTree reports the unbound prefix before the later syntax
    error, so these take the as-written fallback, which must still end as
    the document's own error rather than escape as ``ET.ParseError``."""

    @pytest.mark.parametrize("text", MALFORMED_WITH_UNBOUND_PREFIX)
    def test_validate(self, corpora, text):
        with pytest.raises(ET.ParseError, match="unbound prefix"):
            ET.fromstring(text)
        with pytest.raises(InstanceValidationError, match="not well-formed XML"):
            compiled.compile_schema_set(corpora["easybiz"][0]).validate(text)

    @pytest.mark.parametrize("text", MALFORMED_WITH_UNBOUND_PREFIX)
    def test_unmarshal(self, corpora, text):
        with pytest.raises(InstanceValidationError, match="not well-formed XML"):
            unmarshal(corpora["easybiz"][0], text)

    @pytest.mark.parametrize("text", MALFORMED_WITH_UNBOUND_PREFIX)
    def test_validate_string(self, pipeline, text):
        report = pipeline.validate_string(text, "bad.xml")
        assert not report.ok
        assert report.error.startswith("document is not well-formed XML")

    def test_batch_continues(self, pipeline, corpora):
        schema_set, root = corpora["easybiz"]
        good = XmlWriter().to_string(InstanceGenerator(schema_set).generate(root))
        report = pipeline.run_strings(
            [(f"bad{n}.xml", text) for n, text in enumerate(MALFORMED_WITH_UNBOUND_PREFIX)]
            + [("good.xml", good)]
        )
        assert [document.ok for document in report.documents] == [False, False, True]


# -- entity expansion -------------------------------------------------------------


class TestBillionLaughs:
    def test_pipeline(self, pipeline):
        started = time.perf_counter()
        report = pipeline.run_strings([("bomb.xml", _billion_laughs())])
        assert time.perf_counter() - started < 1.0
        _assert_bomb_error(report.documents[0].error)

    def test_check_instance(self, schemas_dir, tmp_path, capsys):
        bomb = tmp_path / "bomb.xml"
        bomb.write_text(_billion_laughs(), encoding="utf-8")
        capsys.readouterr()
        started = time.perf_counter()
        assert main(["check-instance", str(schemas_dir), str(bomb)]) == 1
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        _assert_bomb_error(err[len("error: "):])
        assert "Traceback" not in err

    def test_validate_endpoint(self, served):
        server, schema_set_id = served
        started = time.perf_counter()
        status, report = request_json(
            server.url,
            "/validate",
            {"schema_set": schema_set_id,
             "documents": [{"name": "bomb.xml", "xml": _billion_laughs()}]},
        )
        assert time.perf_counter() - started < 1.0
        assert status == 200, report
        _assert_bomb_error(report["documents"][0]["error"])


# -- depth and size bounds --------------------------------------------------------------


def _recursive_schema_set() -> SchemaSet:
    """``<a>`` may contain one optional ``<a>``, to any depth."""
    namespace = "urn:deep"
    schema = Schema(namespace, prefixes={"d": namespace})
    schema.items.append(
        ComplexType(
            "NodeType",
            particle=SequenceGroup(
                [ElementDecl(name="a", type=QName(namespace, "NodeType"), min_occurs=0)]
            ),
        )
    )
    schema.items.append(ElementDecl(name="a", type=QName(namespace, "NodeType")))
    return SchemaSet([schema])


class TestDepthBound:
    def test_pipeline(self, pipeline, tmp_path):
        (tmp_path / "deep.xml").write_text(_deep(), encoding="utf-8")
        started = time.perf_counter()
        from_disk = pipeline.run(tmp_path)
        in_memory = pipeline.run_strings([("deep.xml", _deep())])
        assert time.perf_counter() - started < 4.0
        _assert_deep_error(in_memory.documents[0].error)
        assert from_disk.documents[0].error == in_memory.documents[0].error

    def test_check_instance(self, schemas_dir, tmp_path, capsys):
        deep = tmp_path / "deep.xml"
        deep.write_text(_deep(), encoding="utf-8")
        capsys.readouterr()
        started = time.perf_counter()
        assert main(["check-instance", str(schemas_dir), str(deep)]) == 1
        assert time.perf_counter() - started < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: document nests too deeply")
        assert "Traceback" not in err

    def test_validate_endpoint(self, served):
        server, schema_set_id = served
        started = time.perf_counter()
        status, report = request_json(
            server.url,
            "/validate",
            {"schema_set": schema_set_id,
             "documents": [{"name": "deep.xml", "xml": _deep()}]},
        )
        assert time.perf_counter() - started < 2.0
        assert status == 200, report
        _assert_deep_error(report["documents"][0]["error"])

    def test_undeclared_prefix_fallback(self, pipeline):
        document = _deep(root_attributes=' ghost:flag="x"')
        with pytest.raises(ET.ParseError, match="unbound prefix"):
            ET.fromstring(document)
        started = time.perf_counter()
        report = pipeline.run_strings([("deep.xml", document)])
        assert time.perf_counter() - started < 2.0
        _assert_deep_error(report.documents[0].error)

    def test_xml_element_input(self, corpora):
        root = node = XmlElement("a")
        for _ in range(DEEP_LEVELS - 1):
            node = node.add("a")
        started = time.perf_counter()
        with pytest.raises(InstanceValidationError) as raised:
            validate_instance(corpora["easybiz"][0], root)
        assert time.perf_counter() - started < 2.0
        _assert_deep_error(str(raised.value))

    def test_limit_is_exact(self):
        """``max_depth`` levels validate through the recursive plan walk;
        one more is the located error."""
        schema_set = _recursive_schema_set()
        limit = compiled.max_depth

        def nested(levels: int) -> str:
            return '<d:a xmlns:d="urn:deep">' + "<d:a>" * (levels - 1) + "</d:a>" * levels

        assert validate_instance(schema_set, nested(limit)) == []
        with pytest.raises(InstanceValidationError) as raised:
            validate_instance(schema_set, nested(limit + 1))
        assert str(raised.value) == (
            f"document nests too deeply: element #{limit + 1} (in document order) "
            f"is at depth {limit + 1}, over max_depth={limit}"
        )


def _deep_element(levels: int) -> XmlElement:
    """A ``levels``-deep chain of ``<d:a>`` in ``urn:deep``, built iteratively."""
    root = node = XmlElement("d:a", {"xmlns:d": "urn:deep"})
    for _ in range(levels - 1):
        node = node.add("d:a")
    return root


def _recursive_rng_validator() -> RngValidator:
    """The RELAX NG twin of :func:`_recursive_schema_set`."""
    return RngValidator(compile_grammar(parse_xml(
        '<grammar xmlns="http://relaxng.org/ns/structure/1.0">'
        '<start><ref name="e.a"/></start>'
        '<define name="e.a"><element name="a" ns="urn:deep">'
        '<optional><ref name="e.a"/></optional></element></define></grammar>'
    )))


class TestDepthBoundOfOtherReaders:
    """``repro.binding`` and the RELAX NG validator read documents through
    the pipeline's bounded prefix resolver."""

    @pytest.mark.parametrize("levels", [600, DEEP_LEVELS])
    def test_unmarshal(self, levels):
        with pytest.raises(InstanceValidationError) as raised:
            unmarshal(_recursive_schema_set(), _deep_element(levels))
        _assert_deep_error(str(raised.value))

    def test_unmarshal_at_the_limit(self):
        data = unmarshal(_recursive_schema_set(), _deep_element(compiled.max_depth))
        levels = 1
        while data:
            data, levels = data["a"], levels + 1
        assert levels == compiled.max_depth

    @pytest.mark.parametrize("levels", [600, DEEP_LEVELS])
    def test_rng_validator(self, levels):
        with pytest.raises(InstanceValidationError) as raised:
            _recursive_rng_validator().validate(_deep_element(levels))
        _assert_deep_error(str(raised.value))

    def test_rng_validator_at_the_limit(self):
        assert _recursive_rng_validator().validate(_deep_element(compiled.max_depth))


class TestSizeBound:
    def test_wide_document_over_max_elements(self, pipeline):
        wide = "<r>" + "<a/>" * compiled.max_elements + "</r>"
        report = pipeline.run_strings([("wide.xml", wide)])
        assert report.documents[0].error == (
            f"document exceeds max_elements={compiled.max_elements} elements"
        )

    def test_entity_expanded_elements_are_counted(self, pipeline, monkeypatch):
        """Entities can multiply elements past the ``<`` count, so a
        document with an entity declaration is always checked."""
        monkeypatch.setattr(compiled, "max_elements", 50)
        bomb = (
            '<!DOCTYPE r [<!ENTITY x "<a/><a/><a/><a/><a/><a/><a/><a/><a/><a/>">]>'
            "<r>&x;&x;&x;&x;&x;&x;</r>"
        )
        assert bomb.count("<") < compiled.max_depth
        report = pipeline.run_strings([("expanded.xml", bomb)])
        assert report.documents[0].error == "document exceeds max_elements=50 elements"
