"""Provenance layer: record round-trips, determinism, coverage, `upcc explain`.

Every construct the generator emits carries a ProvenanceRecord naming the
XSD target, the UML source and the NDR rule that mapped one onto the
other.  These tests pin the acceptance properties of that layer: the
index answers both directions on the EasyBiz catalog, it is identical
under serial, parallel and cache-replay generation, embedding is off by
default (byte-identical schemas), and the `explain` CLI resolves targets
and sources end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.xsdgen import (
    NDR_RULES,
    GenerationCache,
    GenerationOptions,
    ProvenanceIndex,
    ProvenanceRecord,
    SchemaGenerator,
    records_from_schema_text,
)
from repro.xsdgen.provenance import parse_target

ROOT_NAME = "HoardingPermit"


def _generate(easybiz, **option_kwargs):
    options = GenerationOptions(validate_first=False, **option_kwargs)
    generator = SchemaGenerator(easybiz.model, options)
    return generator.generate(easybiz.doc_library, root=ROOT_NAME)


class TestRecords:
    def test_bbie_round_trip(self, easybiz_result):
        index = easybiz_result.provenance
        hits = index.by_source("HoardingPermit.SafetyPrecaution")
        assert len(hits) == 1
        record = hits[0]
        assert record.rule == "NDR-BBIE-EL"
        assert record.target_kind == "element"
        assert record.target_path == "HoardingPermitType/SafetyPrecaution"
        assert record.source_stereotype == "BBIE"
        assert record.source_id is not None
        assert record.based_on is not None and record.based_on.startswith("BCC ")

        # Inverse direction: the target path resolves back to the same source.
        back = index.by_target(record.target_path)
        assert [r.source_id for r in back] == [record.source_id]

    def test_xpath_target_constrains_kind(self, easybiz_result):
        index = easybiz_result.provenance
        hits = index.by_target("//xsd:complexType[@name='HoardingPermitType']")
        assert [record.rule for record in hits] == ["NDR-ABIE-CT"]
        assert index.by_target("//xsd:simpleType[@name='HoardingPermitType']") == []

    def test_by_source_xmi_id(self, easybiz_result):
        index = easybiz_result.provenance
        [abie_record] = index.by_target("//xsd:complexType[@name='HoardingPermitType']")
        hits = index.by_source(abie_record.source_id)
        rules = {record.rule for record in hits}
        # The root ABIE yields both its complexType and the document root element.
        assert rules == {"NDR-ABIE-CT", "NDR-DOC-ROOT"}

    def test_every_record_cites_a_known_rule(self, easybiz_result):
        for record in easybiz_result.provenance:
            assert record.rule in NDR_RULES
            assert record.rule_text == NDR_RULES[record.rule]

    def test_import_edges_are_recorded(self, easybiz_result):
        imports = [
            record
            for record in easybiz_result.provenance
            if record.rule == "NDR-IMPORT"
        ]
        assert imports
        assert all(record.imported_namespace for record in imports)

    def test_jsonl_round_trip(self, easybiz_result):
        index = easybiz_result.provenance
        rebuilt = ProvenanceIndex.from_jsonl(index.to_jsonl())
        assert rebuilt.records() == index.records()

    def test_dict_round_trip_omits_none_fields(self, easybiz_result):
        record = easybiz_result.provenance.records()[0]
        data = record.to_dict()
        assert None not in data.values()
        assert ProvenanceRecord.from_dict(json.loads(json.dumps(data))) == record

    @pytest.mark.parametrize(
        ("spec", "expected"),
        [
            ("//xsd:complexType[@name='CodeType']", ("complexType", "CodeType")),
            ('//xs:element[@name="HoardingPermit"]', ("element", "HoardingPermit")),
            ("HoardingPermitType/StartDate", (None, "HoardingPermitType/StartDate")),
            ("CodeType", (None, "CodeType")),
        ],
    )
    def test_parse_target(self, spec, expected):
        assert parse_target(spec) == expected


class TestDeterminism:
    def test_parallel_matches_serial(self, easybiz):
        # The collect-mode prebuild builds libraries dependencies-first
        # instead of on demand; the provenance must not notice.
        serial = _generate(easybiz)
        parallel = _generate(easybiz, on_error="collect")
        assert parallel.provenance.to_jsonl() == serial.provenance.to_jsonl()

    def test_cache_replay_matches_cold(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(validate_first=False, use_cache=True)
        cold = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root=ROOT_NAME
        )
        warm = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root=ROOT_NAME
        )
        assert warm.provenance.to_jsonl() == cold.provenance.to_jsonl()
        assert {urn: g.to_string() for urn, g in warm.schemas.items()} == {
            urn: g.to_string() for urn, g in cold.schemas.items()
        }


class TestEmbedding:
    def test_off_by_default_and_byte_identical(self, easybiz):
        plain = _generate(easybiz)
        explicit_off = _generate(easybiz, embed_provenance=False)
        for urn, generated in plain.schemas.items():
            text = generated.to_string()
            assert text == explicit_off.schemas[urn].to_string()
            assert "prov:" not in text
            assert records_from_schema_text(text) == []

    def test_embedded_records_round_trip(self, easybiz):
        result = _generate(easybiz, embed_provenance=True)
        for generated in result.schemas.values():
            embedded = records_from_schema_text(generated.to_string())
            assert embedded == list(generated.provenance)


class TestCoverage:
    def test_dead_model_elements_are_flagged(self, easybiz_result):
        report = easybiz_result.coverage()
        assert not report.ok
        unmapped_paths = [path for _, path in report.unmapped]
        assert len(unmapped_paths) == 2
        assert all("HoardingDetails" in path for path in unmapped_paths)
        assert report.mapped == report.total_elements - 2
        assert "unmapped: " in report.render_text()


@pytest.fixture
def explain_setup(tmp_path):
    """An XMI model plus generated schemas with a provenance.jsonl sidecar."""
    xmi = tmp_path / "easybiz.xmi"
    assert main(["example", "easybiz", "--out", str(xmi)]) == 0
    out = tmp_path / "schemas"
    assert main([
        "generate", str(xmi),
        "--library", "EB005-HoardingPermit",
        "--root", ROOT_NAME,
        "--out", str(out),
        "--emit-provenance",
    ]) == 0
    assert (out / "provenance.jsonl").is_file()
    [root_schema] = [
        path for path in out.rglob("*.xsd") if "HoardingPermit" in path.name
    ]
    return xmi, out, root_schema


class TestExplainCli:
    def test_target_against_schema(self, explain_setup, capsys):
        _, _, schema = explain_setup
        assert main([
            "explain", "--schema", str(schema),
            "--target", "//xsd:complexType[@name='HoardingPermitType']",
        ]) == 0
        out = capsys.readouterr().out
        assert "NDR-ABIE-CT" in out
        assert "ABIE" in out

    def test_source_against_model(self, explain_setup, capsys):
        xmi, _, _ = explain_setup
        assert main([
            "explain", str(xmi),
            "--library", "EB005-HoardingPermit",
            "--root", ROOT_NAME,
            "--source", "HoardingPermit.SafetyPrecaution",
        ]) == 0
        out = capsys.readouterr().out
        assert "NDR-BBIE-EL" in out
        assert "basedOn BCC" in out

    def test_miss_exits_one(self, explain_setup, capsys):
        _, _, schema = explain_setup
        assert main([
            "explain", "--schema", str(schema),
            "--target", "//xsd:complexType[@name='NoSuchType']",
        ]) == 1
        assert "no provenance record matches" in capsys.readouterr().out

    def test_requires_target_or_source(self, explain_setup, capsys):
        _, _, schema = explain_setup
        assert main(["explain", "--schema", str(schema)]) == 2
        assert "provide --target and/or --source" in capsys.readouterr().err

    def test_requires_model_xor_schema(self, explain_setup, capsys):
        xmi, _, schema = explain_setup
        assert main([
            "explain", str(xmi), "--schema", str(schema), "--target", "CodeType",
        ]) == 2
        assert "either an XMI model or --schema" in capsys.readouterr().err

    def test_missing_sidecar_reported(self, tmp_path, explain_setup, capsys):
        _, _, schema = explain_setup
        stray = tmp_path / "stray"
        stray.mkdir()
        copy = stray / schema.name
        copy.write_text(schema.read_text(encoding="utf-8"), encoding="utf-8")
        assert main([
            "explain", "--schema", str(copy), "--target", "CodeType",
        ]) == 1
        assert "no provenance.jsonl sidecar" in capsys.readouterr().err

    def test_embedded_schema_needs_no_sidecar(self, tmp_path, capsys):
        xmi = tmp_path / "easybiz.xmi"
        assert main(["example", "easybiz", "--out", str(xmi)]) == 0
        out = tmp_path / "schemas"
        assert main([
            "generate", str(xmi),
            "--library", "EB005-HoardingPermit",
            "--root", ROOT_NAME,
            "--out", str(out),
            "--embed-provenance",
        ]) == 0
        [schema] = [p for p in out.rglob("*.xsd") if "HoardingPermit" in p.name]
        assert main([
            "explain", "--schema", str(schema),
            "--target", "//xsd:element[@name='HoardingPermit']",
        ]) == 0
        assert "NDR-DOC-ROOT" in capsys.readouterr().out
