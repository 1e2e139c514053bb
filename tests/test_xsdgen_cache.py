"""Unit tests for the generation cache: fingerprints, LRU, disk, and the collect-mode prebuild."""

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.errors import GenerationError
from repro.xsdgen import (
    GenerationCache,
    GenerationOptions,
    SchemaGenerator,
    fingerprint_library,
    library_dependencies,
)

from tests.conftest import best_of


def _schema_texts(result):
    return {urn: generated.to_string() for urn, generated in result.schemas.items()}


class TestFingerprint:
    def test_stable_across_equivalent_models(self):
        first = build_easybiz_model()
        second = build_easybiz_model()
        options = GenerationOptions()
        for library in (first.doc_library, first.model.library_named("coredatatypes")):
            twin = second.model.library_named(library.name)
            assert fingerprint_library(first.model, library, options) == fingerprint_library(
                second.model, twin, options
            )

    def test_root_changes_fingerprint(self, easybiz):
        options = GenerationOptions()
        with_root = fingerprint_library(
            easybiz.model, easybiz.doc_library, options, root_name="HoardingPermit"
        )
        without = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        assert with_root != without

    def test_options_change_fingerprint(self, easybiz):
        plain = fingerprint_library(easybiz.model, easybiz.doc_library, GenerationOptions())
        annotated = fingerprint_library(
            easybiz.model, easybiz.doc_library, GenerationOptions(annotated=True)
        )
        assert plain != annotated

    def test_own_mutation_invalidates(self, easybiz):
        options = GenerationOptions()
        before = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        easybiz.hoarding_permit.element.documentation = "changed"
        after = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        assert before != after

    def test_referenced_classifier_mutation_invalidates(self, easybiz):
        # DOC BBIEs type directly to the CDT 'Text'; editing that CDT must
        # invalidate the DOC fingerprint even though the DOC library's own
        # subtree is untouched.
        options = GenerationOptions()
        before = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        text = easybiz.model.library_named("coredatatypes").cdt("Text")
        text.element.apply_stereotype("CDT", definition="edited")
        after = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        assert before != after

    def test_unrelated_mutation_keeps_unrelated_fingerprint(self, easybiz):
        # Editing the DOC library must not change the ENUM library's print.
        options = GenerationOptions()
        enum_library = easybiz.model.library_named("EnumerationTypes")
        before = fingerprint_library(easybiz.model, enum_library, options)
        easybiz.hoarding_permit.element.documentation = "changed"
        after = fingerprint_library(easybiz.model, enum_library, options)
        assert before == after


class TestLibraryDependencies:
    def test_doc_dependencies_are_schema_capable(self, easybiz):
        deps = library_dependencies(easybiz.model, easybiz.doc_library)
        names = [library.name for library in deps]
        assert "CommonAggregates" in names
        stereotypes = {library.stereotype for library in deps}
        # basedOn reaches CC libraries and CON components reach PRIMs, but
        # neither generates a schema, so neither may appear as an import.
        assert "CCLibrary" not in stereotypes
        assert "PRIMLibrary" not in stereotypes

    def test_leaf_library_has_no_dependencies(self, easybiz):
        enum_library = easybiz.model.library_named("EnumerationTypes")
        assert library_dependencies(easybiz.model, enum_library) == []


class TestGenerationCache:
    def test_round_trip_and_hit(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(use_cache=True)
        first = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert len(cache) == len(first.schemas)
        second = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)
        assert any("Reusing cached schema" in line for line in second.session.messages)

    def test_process_cache_counts_into_a_reset_registry(self, easybiz):
        # The process-wide cache is built at import; a later registry
        # reset (every ``configure(reset_metrics=True)``) must not orphan
        # its counters.
        from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
        from repro.xsdgen.cache import get_generation_cache

        get_generation_cache().clear()
        previous = set_registry(MetricsRegistry())
        try:
            get_registry().reset()
            for _ in range(2):
                SchemaGenerator(easybiz.model, GenerationOptions(use_cache=True)).generate(
                    easybiz.doc_library, root="HoardingPermit"
                )
            snapshot = get_registry().snapshot()
        finally:
            set_registry(previous)
        assert snapshot["xsdgen.cache_misses"] == snapshot["xsdgen.cache_hits"] == 6
        assert snapshot["xsdgen.cache_size"] == 6

    def test_cached_output_matches_uncached(self, easybiz):
        cache = GenerationCache()
        cached_options = GenerationOptions(use_cache=True)
        SchemaGenerator(easybiz.model, cached_options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        warm = SchemaGenerator(easybiz.model, cached_options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        cold = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(warm) == _schema_texts(cold)

    def test_warm_cache_regeneration(self, easybiz):
        """Through a pre-warmed shared cache, fresh generators rebuild the
        closure >=5x faster than cold ones (best of 5, taking turns), byte
        for byte.

        Both arms skip pre-generation validation so the comparison
        isolates schema construction.
        """
        cache = GenerationCache()
        cold_options = GenerationOptions(validate_first=False)
        warm_options = GenerationOptions(validate_first=False, use_cache=True)

        def cold():
            return SchemaGenerator(easybiz.model, cold_options).generate(
                easybiz.doc_library, root="HoardingPermit"
            )

        def warm():
            return SchemaGenerator(easybiz.model, warm_options, cache=cache).generate(
                easybiz.doc_library, root="HoardingPermit"
            )

        warm()  # a miss on every library fills the cache
        (cold_s, cold_result), (warm_s, warm_result) = best_of([cold, warm], 5)
        assert warm_s * 5 <= cold_s, (
            f"warm cache not >=5x faster: cold={cold_s * 1e3:.2f}ms warm={warm_s * 1e3:.2f}ms"
        )
        assert _schema_texts(warm_result) == _schema_texts(cold_result)

    def test_mutation_misses_instead_of_staleness(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(use_cache=True)
        SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        entries_before = set(cache.keys())
        easybiz.hoarding_permit.element.documentation = "now different"
        rerun = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        # The DOC schema was rebuilt under a new fingerprint; untouched
        # libraries still hit their old entries.
        assert not entries_before.issuperset(cache.keys())
        fresh = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(rerun) == _schema_texts(fresh)

    def test_lru_eviction(self, easybiz):
        cache = GenerationCache(max_entries=2)
        options = GenerationOptions(use_cache=True)
        SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert len(cache) == 2

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            GenerationCache(max_entries=0)


class TestDiskCache:
    def test_round_trip_between_cache_instances(self, easybiz, tmp_path):
        options = GenerationOptions(use_cache=True)
        writer = GenerationCache(cache_dir=tmp_path)
        first = SchemaGenerator(easybiz.model, options, cache=writer).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert list(tmp_path.glob("*.json"))
        # A second cache instance (a new process, in effect) starts with an
        # empty memory layer and loads every schema from disk.
        reader = GenerationCache(cache_dir=tmp_path)
        assert len(reader) == 0
        second = SchemaGenerator(easybiz.model, options, cache=reader).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)
        assert any("Reusing cached schema" in line for line in second.session.messages)

    def test_directory_is_bounded_to_max_entries(self, easybiz, tmp_path):
        options = GenerationOptions(use_cache=True)
        foreign = tmp_path / "settings.json"
        foreign.write_text("{}", encoding="utf-8")
        cache_files = lambda: [p for p in tmp_path.glob("*.json") if p != foreign]  # noqa: E731
        writer = GenerationCache(max_entries=2, cache_dir=tmp_path)
        first = SchemaGenerator(easybiz.model, options, cache=writer).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert len(first.schemas) > 2
        assert len(cache_files()) == 2
        assert foreign.exists()  # only cache files are pruned
        # The files left are still read, and the files pruned are misses.
        reader = GenerationCache(max_entries=2, cache_dir=tmp_path)
        second = SchemaGenerator(easybiz.model, options, cache=reader).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)
        assert any("Reusing cached schema" in line for line in second.session.messages)
        assert len(cache_files()) == 2

    def test_corrupt_disk_entry_is_a_miss(self, easybiz, tmp_path):
        options = GenerationOptions(use_cache=True)
        writer = GenerationCache(cache_dir=tmp_path)
        first = SchemaGenerator(easybiz.model, options, cache=writer).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        for path in tmp_path.glob("*.json"):
            path.write_text("not json", encoding="utf-8")
        reader = GenerationCache(cache_dir=tmp_path)
        second = SchemaGenerator(easybiz.model, options, cache=reader).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)

    def test_cache_dir_option_selects_disk_cache(self, easybiz, tmp_path):
        options = GenerationOptions(cache_dir=tmp_path / "cache")
        generator = SchemaGenerator(easybiz.model, options)
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert list((tmp_path / "cache").glob("*.json"))

    def test_adopt_fails_when_dependency_vanishes(self, easybiz):
        # A cached entry naming a dependency the model no longer has is a
        # hard error, not a silent partial result.
        from dataclasses import replace

        options = GenerationOptions(use_cache=True)
        seed = GenerationCache()
        SchemaGenerator(easybiz.model, options, cache=seed).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        doctored = GenerationCache()
        for key in seed.keys():
            entry = seed.get(key)
            if entry.stereotype == "DOCLibrary":
                entry = replace(entry, dependencies=("NoSuchLibrary",))
            doctored.put(entry)
        with pytest.raises(GenerationError):
            SchemaGenerator(easybiz.model, options, cache=doctored).generate(
                easybiz.doc_library, root="HoardingPermit"
            )


    @pytest.mark.parametrize("placement", ["after", "before"])
    def test_warm_hit_resolves_dependencies_by_qualified_name(self, placement):
        # A second, empty CDT library with the real one's bare name, in
        # another business library placed after (or before) the real one.
        built = build_easybiz_model()
        other = built.model.add_business_library("Other", "urn:other")
        other.add_cdt_library("coredatatypes")
        if placement == "before":
            packages = built.model.model.packages
            packages.insert(0, packages.pop())
            other.package.owner = built.model.model  # a tracked write for the reorder
        assert [lib.name for lib in built.model.cdt_libraries()].count("coredatatypes") == 2
        options = GenerationOptions(use_cache=True)
        cache = GenerationCache()

        def run():
            generator = SchemaGenerator(built.model, options, cache=cache)
            result = generator.generate(built.doc_library, root="HoardingPermit")
            return _schema_texts(result), generator.session.log

        cold, cold_log = run()
        warm, warm_log = run()
        assert "Reusing cached schema" not in cold_log
        assert "Reusing cached schema" in warm_log
        assert warm == cold
        assert any("easybiz" in urn and urn.endswith(":coredatatypes") for urn in cold)
        assert not any(urn.startswith("urn:other") for urn in cold)


class TestCollectModePrebuild:
    """The dependency-ordered prebuild (run by ``on_error="collect"``)
    against the on-demand build of a default run."""

    def test_prebuild_matches_on_demand_build(self, easybiz):
        on_demand = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        prebuilt = SchemaGenerator(easybiz.model, GenerationOptions(on_error="collect")).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(prebuilt) == _schema_texts(on_demand)

    def test_prebuild_with_cache(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(on_error="collect", use_cache=True)
        first = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        second = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)

    def test_prebuild_of_cyclic_libraries(self):
        # Reuse the cyclic two-BIE-library construction; the SCC condensation
        # must build the cycle as one component and match the on-demand output.
        from repro.ccts.derivation import derive_abie
        from repro.ccts.model import CctsModel

        def build():
            model = CctsModel("Cyclic")
            business = model.add_business_library("B", "urn:cyc")
            prims = business.add_prim_library("P")
            string = prims.add_primitive("String")
            cdts = business.add_cdt_library("D")
            text = cdts.add_cdt("Text")
            text.set_content(string.element)
            ccs = business.add_cc_library("C")
            a_acc = ccs.add_acc("A")
            a_acc.add_bcc("Name", text, "0..1")
            b_acc = ccs.add_acc("B")
            b_acc.add_bcc("Name", text, "0..1")
            a_acc.add_ascc("Linked", b_acc, "0..1")
            b_acc.add_ascc("Back", a_acc, "0..1")
            lib1 = business.add_bie_library("L1")
            lib2 = business.add_bie_library("L2")
            a = derive_abie(lib1, a_acc)
            a.include("Name", "0..1")
            b = derive_abie(lib2, b_acc)
            b.include("Name", "0..1")
            a.connect("Linked", b.abie, "0..1", based_on="Linked")
            b.connect("Back", a.abie, "0..1", based_on="Back")
            return model, lib1

        model, lib1 = build()
        on_demand = SchemaGenerator(model).generate(lib1)
        model2, lib1_again = build()
        prebuilt = SchemaGenerator(model2, GenerationOptions(on_error="collect")).generate(
            lib1_again
        )
        assert _schema_texts(prebuilt) == _schema_texts(on_demand)


def _entry_texts_match_their_schema(cache):
    """Each entry's kept text equals a fresh render of its schema."""
    from repro.xsd.writer import schema_to_string

    for key in cache.keys():
        entry = cache.get(key)
        assert entry.texts, f"entry {entry.library_name} was never rendered"
        for embed, text in entry.texts.items():
            records = [record.to_dict() for record in entry.provenance]
            expected = (
                schema_to_string(entry.schema, records)
                if embed and records
                else schema_to_string(entry.schema)
            )
            assert text == expected, (entry.library_name, embed)


class TestCachedText:
    """A cache entry keeps its rendered text; hits never re-run the writer."""

    def _run(self, model, library, options, cache, root):
        result = SchemaGenerator(model, options, cache=cache).generate(library, root=root)
        return _schema_texts(result)

    def test_warm_hit_never_runs_the_writer(self, easybiz, writer_calls):
        cache = GenerationCache()
        options = GenerationOptions(validate_first=False, use_cache=True)
        cold = self._run(easybiz.model, easybiz.doc_library, options, cache, "HoardingPermit")
        assert len(writer_calls) == len(cold)
        writer_calls.clear()
        warm = self._run(easybiz.model, easybiz.doc_library, options, cache, "HoardingPermit")
        assert writer_calls == []
        assert warm == cold

    def test_first_hit_renders_once_then_keeps_the_text(self, easybiz, writer_calls):
        cache = GenerationCache()
        options = GenerationOptions(validate_first=False, use_cache=True)
        SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )  # nobody reads the cold texts
        assert writer_calls == []
        first = self._run(easybiz.model, easybiz.doc_library, options, cache, "HoardingPermit")
        assert len(writer_calls) == len(first)
        writer_calls.clear()
        assert self._run(easybiz.model, easybiz.doc_library, options, cache, "HoardingPermit") == first
        assert writer_calls == []

    @pytest.mark.parametrize("model_name", ["easybiz", "cyclic"])
    @pytest.mark.parametrize(
        "option_kwargs",
        [
            {},
            {"annotated": True},
            {"embed_provenance": True},
            {"on_error": "collect"},
            {"annotated": True, "embed_provenance": True, "on_error": "collect"},
        ],
    )
    def test_cached_schemas_are_never_mutated(self, model_name, option_kwargs):
        if model_name == "easybiz":
            model, library, root = build_easybiz_model().model, "EB005-HoardingPermit", "HoardingPermit"
        else:
            from tests.test_provenance import _cyclic_model

            model, library, root = (*_cyclic_model(), None)
        uncached = self._run(model, library, GenerationOptions(**option_kwargs), None, root)
        cache = GenerationCache()
        options = GenerationOptions(use_cache=True, **option_kwargs)
        for _ in range(3):  # cold, then two warm runs
            assert self._run(model, library, options, cache, root) == uncached
        assert len(cache) == len(uncached)
        _entry_texts_match_their_schema(cache)

    def test_each_embed_setting_answers_its_cold_text(self, easybiz):
        cache = GenerationCache()
        texts = {}
        for embed in (False, True, False, True):
            warm = self._run(
                easybiz.model,
                easybiz.doc_library,
                GenerationOptions(use_cache=True, embed_provenance=embed),
                cache,
                "HoardingPermit",
            )
            cold = self._run(
                easybiz.model,
                easybiz.doc_library,
                GenerationOptions(embed_provenance=embed),
                None,
                "HoardingPermit",
            )
            assert warm == cold
            texts[embed] = warm
        assert texts[True] != texts[False]  # both settings share the entries
        assert len(cache) == len(texts[False])
        _entry_texts_match_their_schema(cache)

    def test_a_swapped_schema_falls_back_to_the_writer(self, easybiz, writer_calls):
        from repro.xsd.parser import parse_schema

        cache = GenerationCache()
        options = GenerationOptions(validate_first=False, use_cache=True)
        self._run(easybiz.model, easybiz.doc_library, options, cache, "HoardingPermit")
        result = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        generated = result.root
        text = generated.to_string()
        writer_calls.clear()
        generated.schema = parse_schema(text)
        assert generated.to_string() == text
        assert len(writer_calls) == 1

    def test_disk_entry_answers_without_the_writer(self, easybiz, tmp_path, writer_calls):
        options = GenerationOptions(validate_first=False, use_cache=True)
        cold = self._run(
            easybiz.model, easybiz.doc_library, options,
            GenerationCache(cache_dir=tmp_path), "HoardingPermit",
        )
        # A new cache instance (a restarted process, in effect) reads
        # every entry from disk, keeping the stored text.
        writer_calls.clear()
        reader = GenerationCache(cache_dir=tmp_path)
        warm = self._run(easybiz.model, easybiz.doc_library, options, reader, "HoardingPermit")
        assert writer_calls == []
        assert warm == cold
        uncached = self._run(
            easybiz.model, easybiz.doc_library, GenerationOptions(validate_first=False),
            None, "HoardingPermit",
        )
        assert warm == uncached
        _entry_texts_match_their_schema(reader)
