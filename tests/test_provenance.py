"""Provenance layer: record round-trips, determinism, coverage, `upcc explain`.

Every construct the generator emits carries a ProvenanceRecord naming the
XSD target, the UML source and the NDR rule that mapped one onto the
other.  These tests pin the acceptance properties of that layer: the
index answers both directions on the EasyBiz catalog, it is identical
under serial, parallel and cache-replay generation, embedding is off by
default (byte-identical schemas), records are built only when someone
reads them (and never from a model changed since), and the `explain`
CLI resolves targets and sources end to end.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.ccts.derivation import derive_abie
from repro.ccts.model import CctsModel
from repro.cli import main
from repro.errors import GenerationError
from repro.obs.metrics import get_registry
from repro.xmi import read_xmi
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


def _live_records() -> int:
    """How many ProvenanceRecord objects the process holds."""
    return sum(1 for obj in gc.get_objects() if type(obj) is ProvenanceRecord)


def _bench_catalog(seed: int):
    """The benchmark catalog of ``seed`` (seed-1 runs use 16..19)."""
    module = sys.modules.get("bench_catalog")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "bench_catalog", Path(__file__).resolve().parent.parent / "perfbench" / "catalog.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve annotations there
        spec.loader.exec_module(module)
    return module.build_catalog(seed)


def _cyclic_model():
    """Two BIE libraries whose ABIEs reference each other, plus a CDT library."""
    model = CctsModel("Cyclic")
    business = model.add_business_library("B", "urn:cyc")
    string = business.add_prim_library("P").add_primitive("String")
    text = business.add_cdt_library("D").add_cdt("Text")
    text.set_content(string.element)
    ccs = business.add_cc_library("C")
    a_acc = ccs.add_acc("A")
    a_acc.add_bcc("Name", text, "0..1")
    b_acc = ccs.add_acc("B")
    b_acc.add_bcc("Name", text, "0..1")
    a_acc.add_ascc("Linked", b_acc, "0..1")
    b_acc.add_ascc("Back", a_acc, "0..1")
    lib1 = business.add_bie_library("L1")
    a = derive_abie(lib1, a_acc)
    a.include("Name", "0..1")
    b = derive_abie(business.add_bie_library("L2"), b_acc)
    b.include("Name", "0..1")
    a.connect("Linked", b.abie, "0..1", based_on="Linked")
    b.connect("Back", a.abie, "0..1", based_on="Back")
    return model, lib1


class TestDeferredRecords:
    def test_cold_generate_builds_no_record_until_read(self):
        easybiz = build_easybiz_model()
        gc.collect()
        before = _live_records()
        result = _generate(easybiz, embed_provenance=False)
        for generated in result.schemas.values():
            generated.to_string()
        assert _live_records() == before
        assert len(result.provenance) == 104
        assert _live_records() == before + 104

    def test_read_after_a_rename_raises(self):
        easybiz = build_easybiz_model()
        result = _generate(easybiz)
        [abie] = [a for a in easybiz.doc_library.abies if a.name == ROOT_NAME]
        abie.element.name = "RenamedPermit"
        with pytest.raises(GenerationError, match="model changed after generation") as raised:
            result.provenance
        assert "RenamedPermit" not in str(raised.value)
        for generated in result.schemas.values():
            with pytest.raises(GenerationError, match="model changed after generation"):
                generated.provenance

    def test_records_read_before_a_rename_keep_the_old_names(self):
        easybiz = build_easybiz_model()
        result = _generate(easybiz)
        before = result.provenance.to_jsonl()
        [abie] = [a for a in easybiz.doc_library.abies if a.name == ROOT_NAME]
        abie.element.name = "RenamedPermit"
        assert result.provenance.to_jsonl() == before
        assert "RenamedPermit" not in before

    @pytest.mark.parametrize("catalog_seed", [16, 17, 18, 19])
    def test_counter_counts_104_per_seed_1_catalog(self, catalog_seed):
        catalog = _bench_catalog(catalog_seed)
        model = CctsModel(model=read_xmi(catalog.xmi))
        counter = get_registry().counter("xsdgen.provenance_records")
        before = counter.value
        result = SchemaGenerator(model, GenerationOptions(validate_first=False)).generate(
            catalog.doc_library, root=catalog.root
        )
        assert counter.value - before == 104
        assert len(result.provenance) == 104

    def test_cycle_placeholder_keeps_the_records(self):
        # The library whose build a cycle re-entered hands its log to the
        # placeholder.  The digest was taken before records were deferred
        # and re-pinned once when ASBIE sources gained their ABIE and role.
        for options in (GenerationOptions(), GenerationOptions(on_error="collect")):
            model, lib1 = _cyclic_model()
            result = SchemaGenerator(model, options).generate(lib1)
            text = result.provenance.to_jsonl()
            assert len(text.splitlines()) == 13
            assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == "7d86c97f5c11e523"


class TestCoverage:
    def test_dead_model_elements_are_flagged(self, easybiz_result):
        report = easybiz_result.coverage()
        assert not report.ok
        unmapped_paths = [path for _, path in report.unmapped]
        assert len(unmapped_paths) == 2
        assert all("HoardingDetails" in path for path in unmapped_paths)
        assert report.mapped == report.total_elements - 2
        assert "unmapped: " in report.render_text()

    def test_an_asbie_without_records_is_unmapped_on_its_own(self, easybiz_result):
        from repro.xsdgen.provenance import coverage

        libraries = [generated.library for generated in easybiz_result.schemas.values()]
        kept = ProvenanceIndex(
            record
            for record in easybiz_result.provenance
            if not record.source_path.endswith("HoardingPermit.Billing")
        )
        report = coverage(libraries, kept)
        asbies = [path for stereotype, path in report.unmapped if stereotype == "ASBIE"]
        assert asbies == ["EasyBiz.EasyBiz.EB005-HoardingPermit.HoardingPermit.Billing"]


class TestAsbieSources:
    def test_asbie_records_name_their_abie_and_role(self, easybiz_result):
        hits = easybiz_result.provenance.by_source("HoardingPermit.Included")
        assert sorted(record.target_path for record in hits) == [
            "HoardingPermitType/IncludedAttachment",
            "HoardingPermitType/IncludedRegistration",
        ]
        for record in hits:
            assert record.source_stereotype == "ASBIE"
            assert record.source_path == "EasyBiz.EasyBiz.EB005-HoardingPermit.HoardingPermit.Included"
            assert record.based_on == "ASCC EasyBiz.EasyBiz.CandidateCoreComponents.HoardingPermit.Included"

    def test_no_source_path_ends_in_a_dot(self, easybiz_result):
        asbie_records = [r for r in easybiz_result.provenance if r.rule.startswith("NDR-ASBIE")]
        assert len(asbie_records) == 7
        assert not [r for r in easybiz_result.provenance if r.source_path.endswith(".")]
        assert not [r for r in asbie_records if r.based_on and r.based_on.endswith(".")]


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
