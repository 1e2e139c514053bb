"""Unit tests for the generation cache: fingerprints, LRU, disk, parallel."""

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


class TestParallelGeneration:
    """The dependency-ordered prebuild (run by ``on_error="collect"``)
    against the on-demand build of a default run."""

    def test_parallel_output_matches_serial(self, easybiz):
        serial = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        parallel = SchemaGenerator(easybiz.model, GenerationOptions(on_error="collect")).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(parallel) == _schema_texts(serial)

    def test_parallel_with_cache(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(on_error="collect", use_cache=True)
        first = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        second = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)

    def test_parallel_cyclic_libraries(self):
        # Reuse the cyclic two-BIE-library construction; the SCC condensation
        # must build the cycle as one component and match the serial output.
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
        serial = SchemaGenerator(model).generate(lib1)
        model2, lib1_again = build()
        parallel = SchemaGenerator(model2, GenerationOptions(on_error="collect")).generate(
            lib1_again
        )
        assert _schema_texts(parallel) == _schema_texts(serial)
