"""Collect-mode generation: failure isolation, cause chains, cache hygiene."""

import pytest

import repro.obs as obs
import repro.xsdgen.qdt_library
from repro.errors import GenerationError
from repro.obs.trace import Tracer, set_tracer
from repro.xsdgen import (
    GenerationCache,
    GenerationOptions,
    LibraryFailure,
    SchemaGenerator,
    get_generation_cache,
    set_generation_cache,
)


@pytest.fixture
def broken_qdt(monkeypatch):
    """Sabotage the QDTLibrary builder so every QDT build raises."""

    def explode(builder):
        raise GenerationError("sabotaged QDT build")

    monkeypatch.setattr(repro.xsdgen.qdt_library, "build", explode)


@pytest.fixture
def fresh_cache():
    previous = get_generation_cache()
    cache = GenerationCache()
    set_generation_cache(cache)
    yield cache
    set_generation_cache(previous)


def collect_generator(model, **overrides):
    options = GenerationOptions(on_error="collect", **overrides)
    return SchemaGenerator(model, options)


class TestOnErrorOption:
    def test_raise_is_the_default(self):
        assert GenerationOptions().on_error == "raise"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            GenerationOptions(on_error="ignore")

    def test_raise_mode_propagates_first_failure(self, easybiz, broken_qdt):
        generator = SchemaGenerator(easybiz.model, GenerationOptions())
        with pytest.raises(GenerationError, match="sabotaged QDT build"):
            generator.generate(easybiz.doc_library, root="HoardingPermit")


class TestCollectIsolation:
    def test_independent_libraries_still_build(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert not result.ok
        built = {schema.library.name for schema in result.schemas.values()}
        # CDT and ENUM libraries do not import the QDT library, so they
        # must still be generated; everything importing QDTs must not be.
        assert "coredatatypes" in built
        assert "EnumerationTypes" in built
        assert "CommonDataTypes" not in built
        assert "EB005-HoardingPermit" not in built

    def test_every_failure_is_recorded(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        failed = {failure.library_name for failure in result.errors}
        assert "CommonDataTypes" in failed
        assert "EB005-HoardingPermit" in failed
        for failure in result.errors:
            assert isinstance(failure, LibraryFailure)
            assert failure.stereotype
            assert failure.root_name is None or isinstance(failure.root_name, str)

    def test_importer_failure_names_the_culprit(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        by_name = {failure.library_name: failure for failure in result.errors}
        original = by_name["CommonDataTypes"]
        assert "sabotaged QDT build" in str(original.error)
        dependent = by_name["EB005-HoardingPermit"]
        assert "CommonDataTypes" in str(dependent.error)
        assert "sabotaged QDT build" in str(dependent.cause_chain[-1])

    def test_root_property_raises_when_root_failed(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert result.root_namespace is None
        with pytest.raises(GenerationError, match="requested library failed"):
            result.root

    def test_collect_without_failures_matches_raise_mode(self, easybiz):
        plain = SchemaGenerator(easybiz.model, GenerationOptions()).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        collected = collect_generator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert collected.ok
        assert collected.errors == []
        assert set(collected.schemas) == set(plain.schemas)
        assert collected.root.to_string() == plain.root.to_string()

    def test_parallel_collect_matches_serial(self, easybiz, broken_qdt):
        """Every schema the collect-mode prebuild still builds is byte-identical
        to an on-demand (raise-mode) build of that library alone."""
        collected = collect_generator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert not collected.ok
        assert collected.schemas
        for urn, generated in collected.schemas.items():
            serial = SchemaGenerator(easybiz.model, GenerationOptions()).generate(
                generated.library
            )
            assert serial.schemas[urn].to_string() == generated.to_string()

    def test_prebuild_span_parents_every_library_build(self, easybiz, broken_qdt):
        previous = set_tracer(Tracer(enabled=False))
        tracer = obs.configure(trace=True)
        try:
            collect_generator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
            [root] = tracer.roots
        finally:
            obs.disable()
            set_tracer(previous)
        [prebuild] = root.find("xsdgen.prebuild")
        assert prebuild.attributes["libraries"] >= 2
        libraries = root.find("xsdgen.library")
        assert libraries
        assert all(span in prebuild.find("xsdgen.library") for span in libraries)

    def test_generator_recovers_once_fault_is_fixed(self, easybiz, monkeypatch):
        def explode(builder):
            raise GenerationError("sabotaged QDT build")

        real_build = repro.xsdgen.qdt_library.build
        generator = collect_generator(easybiz.model)
        monkeypatch.setattr(repro.xsdgen.qdt_library, "build", explode)
        first = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert not first.ok
        monkeypatch.setattr(repro.xsdgen.qdt_library, "build", real_build)
        second = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert second.ok
        assert second.root_namespace is not None

    def test_failure_counter_labeled_by_stereotype(self, easybiz, broken_qdt):
        import repro.obs as obs

        obs.configure(trace=False, reset_metrics=True)
        collect_generator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        snapshot = obs.get_metrics().render_json()
        assert "xsdgen.library_failures" in snapshot


class TestCacheHygiene:
    def test_failed_builds_never_reach_the_cache(self, easybiz, broken_qdt, fresh_cache):
        generator = collect_generator(easybiz.model, use_cache=True)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert not result.ok
        assert len(fresh_cache) == len(result.schemas)

    def test_successful_builds_are_cached(self, easybiz, fresh_cache):
        generator = collect_generator(easybiz.model, use_cache=True)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert result.ok
        assert len(fresh_cache) == len(result.schemas)


class TestLibraryFailure:
    def test_str_includes_cause_chain(self):
        root = ValueError("root cause")
        try:
            raise GenerationError("outer failure") from root
        except GenerationError as error:
            failure = LibraryFailure("Lib", "QDTLibrary", None, error)
        text = str(failure)
        assert "outer failure" in text
        assert "root cause" in text
        assert [str(cause) for cause in failure.cause_chain] == [
            "outer failure",
            "root cause",
        ]
