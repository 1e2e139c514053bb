"""End to end: "The schemas are then used to validate XML messages."

Paper claim: the generated schemas validate business-document instances
exchanged during a business process.
Measured: the full round trip (generate schemas -> produce message ->
validate) plus validation throughput on valid and mutated messages.
"""

import time

import pytest

from repro.instances import (
    InstanceGenerator,
    corrupt_enumeration_value,
    drop_required_child,
)
from repro.xsd.validator import validate_instance
from repro.xsd.writer import schema_to_string
from repro.xsdgen import GenerationCache, GenerationOptions, SchemaGenerator


@pytest.fixture(scope="module")
def pipeline(easybiz):
    result = SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
    schema_set = result.schema_set()
    generator = InstanceGenerator(schema_set)
    return schema_set, generator


def test_full_round_trip(benchmark, easybiz):
    """Model -> schemas -> message -> validation, all timed together."""

    def run():
        result = SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
        schema_set = result.schema_set()
        message = InstanceGenerator(schema_set).generate("HoardingPermit")
        return validate_instance(schema_set, message)

    assert benchmark(run) == []


def test_warm_cache_regeneration(benchmark, easybiz):
    """Regeneration through a warm generation cache vs cold builds.

    Both arms skip pre-generation validation so the comparison isolates
    schema construction; the warm arm reuses a pre-warmed shared cache
    through fresh generator instances, the way a long-lived service or a
    second CLI invocation would.
    """
    cold_options = GenerationOptions(validate_first=False)
    cache = GenerationCache()
    warm_options = GenerationOptions(validate_first=False, use_cache=True)

    # Warm the cache once (a cold, miss-every-library run).
    SchemaGenerator(easybiz.model, warm_options, cache=cache).generate(
        easybiz.doc_library, root="HoardingPermit"
    )

    def cold():
        return SchemaGenerator(easybiz.model, cold_options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )

    def warm():
        return SchemaGenerator(easybiz.model, warm_options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    cold_s = best_of(cold)
    warm_s = best_of(warm)
    assert warm_s * 5 <= cold_s, (
        f"warm cache not >=5x faster: cold={cold_s * 1e3:.2f}ms warm={warm_s * 1e3:.2f}ms"
    )

    cold_schemas = {urn: schema_to_string(g.schema) for urn, g in cold().schemas.items()}
    warm_schemas = {urn: schema_to_string(g.schema) for urn, g in warm().schemas.items()}
    assert warm_schemas == cold_schemas

    benchmark(warm)


def test_validate_valid_message(benchmark, pipeline):
    """Validation throughput on a conformant hoarding-permit message."""
    schema_set, generator = pipeline
    message = generator.generate("HoardingPermit")
    problems = benchmark(validate_instance, schema_set, message)
    assert problems == []


def test_validate_rejects_missing_registration(benchmark, pipeline):
    """A message without the mandatory IncludedRegistration is rejected."""
    schema_set, generator = pipeline
    message = generator.generate("HoardingPermit")
    assert drop_required_child(message, "IncludedRegistration")
    problems = benchmark(validate_instance, schema_set, message)
    assert problems and "IncludedRegistration" in problems[0].message


def test_validate_rejects_bad_country_code(benchmark, pipeline):
    """A CountryName outside the CountryType_Code enumeration is rejected."""
    schema_set, generator = pipeline
    message = generator.generate("HoardingPermit")
    assert corrupt_enumeration_value(message, "CountryName")
    problems = benchmark(validate_instance, schema_set, message)
    assert any("enumerated" in p.message for p in problems)


def test_message_parse_and_validate_from_text(benchmark, pipeline):
    """Wire-level: parse the serialized message, then validate."""
    schema_set, generator = pipeline
    text = generator.generate_string("HoardingPermit")
    problems = benchmark(validate_instance, schema_set, text)
    assert problems == []
