"""The compiled validator and the batch validation pipeline (ISSUE 7).

Two contracts under test:

* equivalence -- :class:`CompiledSchemaSet` produces exactly the problem
  list the reference walker (``tests/reference_validator.py``) produces,
  on valid, mutated and malformed documents of both catalog corpora
  (property-based over generator and mutation parameters);
* the pipeline -- corpus discovery, per-document fault isolation,
  reports byte-identical to the reference walker's, fail-fast,
  compilation caching and the CLI surface.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.instances import InstanceGenerator, ValidationPipeline, discover_corpus
from repro.errors import InstanceValidationError
from repro.instances.pipeline import BatchReport, DocumentReport
from repro.xmlutil.writer import XmlWriter
from repro.xsd import (
    CompilationCache,
    CompiledSchemaSet,
    compile_schema_set,
    fingerprint_schema_set,
    get_compilation_cache,
    set_compilation_cache,
)
from repro.xsdgen import GenerationOptions, SchemaGenerator

from tests.conftest import best_of
from tests.mutate import (
    _walk,
    add_unknown_attribute,
    add_unknown_child,
    corrupt_enumeration_value,
    drop_required_attribute,
    drop_required_child,
)
from tests.reference_validator import reference_report, reference_validate

ROOT = Path(__file__).resolve().parent.parent

ROOTS = {
    "easybiz": ("HoardingPermit", build_easybiz_model),
    "ecommerce": ("PurchaseOrder", build_ecommerce_model),
}

XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded once as ``bench_<name>``."""
    module = sys.modules.get(f"bench_{name}")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", ROOT / "perfbench" / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve annotations there
        spec.loader.exec_module(module)
    return module


def _first(root, accept):
    return next((element for element in _walk(root) if accept(element)), None)


def _local(element):
    return element.tag.rpartition(":")[2]


def _is_leaf(element):
    return not element.element_children


def set_prohibited_attribute(root):
    """``LanguageIdentifier`` on a Code-restricted QDT element, which
    prohibits it (``IsClosedFootpath`` in easybiz, ``Status`` in ecommerce)."""
    target = _first(root, lambda element: _local(element) in {"IsClosedFootpath", "Status"})
    if target is None:
        return False
    target.attributes["LanguageIdentifier"] = "en"
    return True


def add_xsi_attribute(root):
    """An ``xsi:nil`` on the first leaf with attributes: ignored by validation."""
    target = _first(root, lambda element: _is_leaf(element) and element.attributes)
    if target is None:
        return False
    root.attributes["xmlns:xsi"] = XSI_NS
    target.attributes["xsi:nil"] = "false"
    return True


def add_undeclared_leaf_attribute(root):
    """An undeclared attribute beside the declared ones of the first leaf
    that has attributes."""
    target = _first(root, lambda element: _is_leaf(element) and element.attributes)
    if target is None:
        return False
    target.attributes["bogus"] = "x"
    return True


def add_child_to_string_leaf(root):
    """A child element inside the first leaf that has text."""
    target = _first(root, lambda element: _is_leaf(element) and element.text_content)
    if target is None:
        return False
    prefix = target.tag.partition(":")[0] if ":" in target.tag else None
    target.add(f"{prefix}:Bogus" if prefix else "Bogus")
    return True


def add_text_to_complex(root):
    """Non-blank text in the first complex element below the root."""
    target = _first(root, lambda element: element is not root and element.element_children)
    if target is None:
        return False
    target.children.insert(0, "stray text")
    return True


#: Mutations that each drive one branch of the attribute and leaf checks
#: past the accept-valid-content shortcuts into the exact reporting path.
_FALLBACK_MUTATIONS = [
    set_prohibited_attribute,
    add_xsi_attribute,
    add_undeclared_leaf_attribute,
    add_child_to_string_leaf,
    add_text_to_complex,
]

_MUTATIONS = [
    None,
    add_unknown_child,
    add_unknown_attribute,
    lambda root: corrupt_enumeration_value(root, "CountryName"),
    lambda root: drop_required_child(root, "IncludedRegistration"),
    lambda root: drop_required_attribute(root, "listAgencyID"),
    *_FALLBACK_MUTATIONS,
]


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


# -- compiled == reference equivalence -----------------------------------------


class TestCompiledEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        catalog=st.sampled_from(sorted(ROOTS)),
        fill_optional=st.booleans(),
        repeat_unbounded=st.integers(min_value=1, max_value=3),
        mutation=st.sampled_from(range(len(_MUTATIONS))),
    )
    def test_problem_lists_identical(
        self, corpora, catalog, fill_optional, repeat_unbounded, mutation
    ):
        """Same problems, same order, on valid and corrupted documents."""
        schema_set, root = corpora[catalog]
        compiled = compile_schema_set(schema_set)
        generator = InstanceGenerator(
            schema_set,
            fill_optional=fill_optional,
            repeat_unbounded=repeat_unbounded,
        )
        document = generator.generate(root)
        mutate = _MUTATIONS[mutation]
        if mutate is not None:
            mutate(document)
        text = XmlWriter().to_string(document)
        assert compiled.validate(text) == reference_validate(schema_set, text)

    @pytest.mark.parametrize("catalog", sorted(ROOTS))
    @pytest.mark.parametrize(
        "mutate", _FALLBACK_MUTATIONS, ids=[mutate.__name__ for mutate in _FALLBACK_MUTATIONS]
    )
    def test_fallback_branches_identical(self, corpora, catalog, mutate):
        """Each fallback branch, on both catalogs: the mutation applies and
        the problem list is the reference walker's (empty only for the
        ignored ``xsi:`` attribute)."""
        schema_set, root = corpora[catalog]
        compiled = compile_schema_set(schema_set)
        document = InstanceGenerator(schema_set, fill_optional=True).generate(root)
        assert mutate(document)
        text = XmlWriter().to_string(document)
        problems = compiled.validate(text)
        assert problems == reference_validate(schema_set, text)
        assert bool(problems) is (mutate is not add_xsi_attribute), problems

    @pytest.mark.parametrize(
        "document",
        [
            "<a><b></a>",
            "",
            "not xml at all",
            "<x:a/>",
            '<a xmlns="urn:nowhere"/>',
            "<a>text</a>",
        ],
    )
    def test_error_paths_identical(self, corpora, document):
        """Malformed and undeclared documents fail identically."""
        schema_set, _ = corpora["easybiz"]
        compiled = compile_schema_set(schema_set)

        def outcome(validate):
            try:
                return ("ok", validate())
            except InstanceValidationError as error:
                return ("error", str(error))

        assert outcome(lambda: compiled.validate(document)) == outcome(
            lambda: reference_validate(schema_set, document)
        )

    def test_accepts_xml_element_input(self, corpora):
        """The compiled engine also validates in-memory XmlElement trees."""
        schema_set, root = corpora["easybiz"]
        compiled = compile_schema_set(schema_set)
        document = InstanceGenerator(schema_set).generate(root)
        assert compiled.validate(document) == []
        drop_required_child(document, "IncludedRegistration")
        assert compiled.validate(document) == reference_validate(schema_set, document)


# -- fingerprints and the compilation cache ------------------------------------


class TestCompilationCache:
    def test_fingerprint_is_stable(self, corpora):
        schema_set, _ = corpora["easybiz"]
        assert fingerprint_schema_set(schema_set) == fingerprint_schema_set(schema_set)

    def test_fingerprint_distinguishes_schema_sets(self, corpora):
        easybiz_set, _ = corpora["easybiz"]
        ecommerce_set, _ = corpora["ecommerce"]
        assert fingerprint_schema_set(easybiz_set) != fingerprint_schema_set(
            ecommerce_set
        )

    def test_cache_hit_returns_same_compiled_instance(self, corpora):
        schema_set, _ = corpora["easybiz"]
        cache = CompilationCache(max_entries=4)
        first = compile_schema_set(schema_set, cache)
        second = compile_schema_set(schema_set, cache)
        assert first is second
        assert len(cache) == 1

    def test_cache_evicts_least_recently_used(self, corpora):
        easybiz_set, _ = corpora["easybiz"]
        ecommerce_set, _ = corpora["ecommerce"]
        cache = CompilationCache(max_entries=1)
        first = compile_schema_set(easybiz_set, cache)
        compile_schema_set(ecommerce_set, cache)
        assert len(cache) == 1
        assert compile_schema_set(easybiz_set, cache) is not first

    def test_default_cache_is_process_wide(self, corpora):
        schema_set, _ = corpora["easybiz"]
        previous = set_compilation_cache(CompilationCache())
        try:
            assert compile_schema_set(schema_set) is compile_schema_set(schema_set)
            assert len(get_compilation_cache()) == 1
        finally:
            set_compilation_cache(previous)


# -- corpus discovery ----------------------------------------------------------


class TestDiscoverCorpus:
    def test_directory_is_recursive_and_sorted(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.xml").write_text("<b/>", encoding="utf-8")
        (tmp_path / "a.xml").write_text("<a/>", encoding="utf-8")
        (tmp_path / "sub" / "c.xml").write_text("<c/>", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not xml", encoding="utf-8")
        found = discover_corpus(tmp_path)
        assert [path.name for path in found] == ["a.xml", "b.xml", "c.xml"]

    def test_single_xml_file(self, tmp_path):
        doc = tmp_path / "only.xml"
        doc.write_text("<only/>", encoding="utf-8")
        assert discover_corpus(doc) == [doc]

    def test_manifest_resolves_relative_paths_and_comments(self, tmp_path):
        (tmp_path / "one.xml").write_text("<one/>", encoding="utf-8")
        (tmp_path / "two.xml").write_text("<two/>", encoding="utf-8")
        manifest = tmp_path / "corpus.lst"
        manifest.write_text(
            "# a comment\none.xml\n\ntwo.xml\n", encoding="utf-8"
        )
        found = discover_corpus(manifest)
        assert [path.name for path in found] == ["one.xml", "two.xml"]
        assert all(path.is_absolute() for path in found)

    def test_missing_corpus_raises(self, tmp_path):
        with pytest.raises(InstanceValidationError, match="corpus not found"):
            discover_corpus(tmp_path / "nope")


# -- the pipeline --------------------------------------------------------------


def _write_corpus(schema_set, root, directory, count=8, invalid_every=4):
    writer = XmlWriter()
    for index in range(count):
        generator = InstanceGenerator(
            schema_set,
            fill_optional=(index % 2 == 0),
            repeat_unbounded=1 + index % 3,
        )
        document = generator.generate(root)
        if index % invalid_every == invalid_every - 1:
            add_unknown_child(document)
        (directory / f"doc{index:03d}.xml").write_text(
            writer.to_string(document), encoding="utf-8"
        )


class TestValidationPipeline:
    def test_reports_byte_identical_across_engines_and_jobs(
        self, corpora, tmp_path
    ):
        """The pipeline's serialized report equals the reference walker's,
        and an in-memory run of the same documents serializes alike."""
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path)
        (tmp_path / "zz_malformed.xml").write_text("<a><b></a>", encoding="utf-8")
        pipeline = ValidationPipeline(schema_set)
        from_disk = pipeline.run(tmp_path)
        in_memory = pipeline.run_strings(
            [(str(path), path.read_text(encoding="utf-8")) for path in discover_corpus(tmp_path)]
        )
        assert from_disk.docs_invalid == 3
        serialized = {
            json.dumps(report.to_json(), sort_keys=True)
            for report in (from_disk, in_memory, reference_report(schema_set, tmp_path))
        }
        assert len(serialized) == 1

    def test_fault_isolation_never_aborts_the_batch(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=3, invalid_every=100)
        (tmp_path / "malformed.xml").write_text("<a><b></a>", encoding="utf-8")
        manifest = tmp_path / "all.lst"
        manifest.write_text(
            "\n".join(
                [path.name for path in sorted(tmp_path.glob("*.xml"))]
                + ["missing.xml"]
            ),
            encoding="utf-8",
        )
        report = ValidationPipeline(schema_set).run(manifest)
        assert report.docs_total == 5
        by_name = {doc.path.rsplit("/", 1)[-1]: doc for doc in report.documents}
        assert by_name["malformed.xml"].error is not None
        assert "not well-formed" in by_name["malformed.xml"].error
        assert by_name["missing.xml"].error is not None
        assert report.docs_invalid == 2

    def test_deep_nesting_is_a_document_fault(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=1, invalid_every=100)
        valid = (tmp_path / "doc000.xml").read_text(encoding="utf-8")
        deep = "<a>" * 5000 + "</a>" * 5000
        (tmp_path / "deep.xml").write_text(deep, encoding="utf-8")
        pipeline = ValidationPipeline(schema_set)
        from_disk = pipeline.run(tmp_path)
        in_memory = pipeline.run_strings([("deep.xml", deep), ("doc000.xml", valid)])
        for report in (from_disk, in_memory):
            by_name = {doc.path.rsplit("/", 1)[-1]: doc for doc in report.documents}
            assert report.docs_total == 2
            assert "nests too deeply" in by_name["deep.xml"].error
            assert by_name["doc000.xml"].ok

    def test_fail_fast_stops_at_first_invalid(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=6, invalid_every=3)
        report = ValidationPipeline(schema_set, fail_fast=True).run(tmp_path)
        # doc002 is the first invalid one; nothing after it was validated.
        assert [doc.path.rsplit("/", 1)[-1] for doc in report.documents] == [
            "doc000.xml",
            "doc001.xml",
            "doc002.xml",
        ]
        assert not report.documents[-1].ok

    def test_report_shape(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=2, invalid_every=2)
        report = ValidationPipeline(schema_set).run(tmp_path)
        assert isinstance(report, BatchReport)
        assert all(isinstance(doc, DocumentReport) for doc in report.documents)
        payload = report.to_json()
        assert set(payload) == {"docs_total", "docs_invalid", "documents"}
        assert payload["docs_total"] == 2
        assert payload["docs_invalid"] == 1
        invalid = payload["documents"][1]
        assert invalid["ok"] is False
        assert invalid["problems"], "expected located problems in the JSON report"
        text = report.to_text()
        assert "INVALID" in text and "2 document(s), 1 invalid" in text

    def test_metrics_recorded(self, corpora, tmp_path):
        from repro.obs.metrics import MetricsRegistry, set_registry

        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=4, invalid_every=4)
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            ValidationPipeline(schema_set).run(tmp_path)
        finally:
            set_registry(previous)
        snapshot = fresh.snapshot()
        assert snapshot["instances.docs_total"] == 4
        assert snapshot["instances.docs_invalid"] == 1
        assert snapshot["instances.validate_ms"]["count"] == 4

    @pytest.mark.parametrize("index", range(4))
    def test_seeded_batch_report_byte_identical(self, tmp_path, index):
        """Each of the benchmark's seed-1 batches (200 documents, 5% mutated)
        reports byte for byte as the reference walker does."""
        catalogs = _perfbench_module("catalog")
        batches = _perfbench_module("corpus")
        catalog = catalogs.build_catalog(catalogs.catalog_seeds(1)[index])
        schema_set = SchemaGenerator(catalog.model, GenerationOptions()).generate(
            catalog.doc_library, root=catalog.root
        ).schema_set()
        corpus = batches.build_corpus(
            catalog.root, schema_set, catalog.codes,
            batches.MUTATIONS[index % len(batches.MUTATIONS)],
        )
        for name, text in corpus.documents:
            (tmp_path / f"{name}.xml").write_text(text, encoding="utf-8")
        report = ValidationPipeline(schema_set).run(tmp_path)
        assert (report.docs_total, report.docs_invalid) == (200, len(corpus.invalid))
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(
            reference_report(schema_set, tmp_path).to_json(), sort_keys=True
        )

    def test_compiled_serial_beats_reference_walker_3x(self, corpora, tmp_path):
        """The bar that justifies compiling: on a 200-document corpus the
        compiled pipeline is >=3x faster than the reference walker, with a
        byte-identical report (best of 3 on both sides, taking turns)."""
        schema_set, root = corpora["easybiz"]
        writer = XmlWriter()
        for index in range(200):
            generator = InstanceGenerator(
                schema_set, fill_optional=True, repeat_unbounded=3 + index % 3
            )
            document = generator.generate(root)
            if index % 40 == 39:
                add_unknown_child(document)
            (tmp_path / f"doc{index:04d}.xml").write_text(
                writer.to_string(document), encoding="utf-8"
            )
        compiled = ValidationPipeline(schema_set)

        (reference_s, reference), (compiled_s, report) = best_of(
            [lambda: reference_report(schema_set, tmp_path), lambda: compiled.run(tmp_path)], 3
        )
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(
            reference.to_json(), sort_keys=True
        )
        assert report.docs_total == 200
        assert report.docs_invalid == 200 // 40
        assert compiled_s * 3 <= reference_s, (
            f"compiled not >=3x faster: reference={reference_s * 1e3:.1f}ms "
            f"compiled={compiled_s * 1e3:.1f}ms ({reference_s / compiled_s:.2f}x)"
        )


# -- the CLI surface -----------------------------------------------------------


class TestValidateInstancesCli:
    @pytest.fixture()
    def cli_fixture(self, corpora, easybiz_result, tmp_path):
        schema_set, root = corpora["easybiz"]
        schemas_dir = tmp_path / "schemas"
        easybiz_result.write_to(schemas_dir)
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        _write_corpus(schema_set, root, corpus_dir, count=4, invalid_every=100)
        return schemas_dir, corpus_dir

    def test_exit_zero_when_all_valid(self, cli_fixture, capsys):
        from repro.cli import main

        schemas_dir, corpus_dir = cli_fixture
        status = main(["validate-instances", str(schemas_dir), str(corpus_dir)])
        assert status == 0
        out = capsys.readouterr().out
        assert "4 document(s), 0 invalid" in out

    def test_metrics_out_counts_the_compile_cache(self, cli_fixture, tmp_path):
        # ``--metrics-out`` resets the registry after the process-wide
        # compilation cache was built; its counters must land in the file.
        from repro.cli import main
        from repro.obs.metrics import MetricsRegistry, set_registry

        schemas_dir, corpus_dir = cli_fixture
        metrics = tmp_path / "m.json"
        previous_cache = set_compilation_cache(CompilationCache())
        previous_registry = set_registry(MetricsRegistry())
        try:
            status = main(["--metrics-out", str(metrics), "validate-instances",
                           str(schemas_dir), str(corpus_dir)])
        finally:
            set_registry(previous_registry)
            set_compilation_cache(previous_cache)
        assert status == 0
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["instances.docs_total"] == 4
        assert snapshot["instances.compile_misses"] == 1
        assert snapshot["instances.compile_cache_size"] == 1

    def test_exit_one_and_json_report_on_invalid(self, cli_fixture, capsys):
        from repro.cli import main

        schemas_dir, corpus_dir = cli_fixture
        (corpus_dir / "zz_bad.xml").write_text("<a><b></a>", encoding="utf-8")
        status = main(
            [
                "validate-instances",
                str(schemas_dir),
                str(corpus_dir),
                "--report",
                "json",
            ]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["docs_total"] == 5
        assert payload["docs_invalid"] == 1
        assert payload["documents"][-1]["error"]

    def test_interpreted_engine_output_matches_compiled(self, cli_fixture, capsys):
        """The CLI's JSON report equals the reference walker's, byte for byte."""
        from repro.cli import main
        from repro.xsd.validator import SchemaSet

        schemas_dir, corpus_dir = cli_fixture
        schema_set = SchemaSet.from_directory(schemas_dir)
        document = InstanceGenerator(schema_set).generate("HoardingPermit")
        add_unknown_attribute(document)
        (corpus_dir / "zz_invalid.xml").write_text(
            XmlWriter().to_string(document), encoding="utf-8"
        )
        main(["validate-instances", str(schemas_dir), str(corpus_dir), "--report", "json"])
        output = capsys.readouterr().out
        reference = reference_report(schema_set, corpus_dir)
        assert json.loads(output)["docs_invalid"] == 1
        assert output == json.dumps(reference.to_json(), indent=2) + "\n"
