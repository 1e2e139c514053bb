"""Instance-validation throughput: corpus in, reports out.

Paper claim: the generated schemas "are used to validate XML messages
exchanged during a business process" -- a serving workload, not a one-shot.
Measured: batch validation of a 200-document corpus through the
:class:`~repro.instances.ValidationPipeline` (the compiled engine) against
the reference tree walker kept in ``tests/reference_validator.py``, plus
the contract that justifies compiling: a report identical to the
reference walker's at >=3x its throughput.
"""

import json

import pytest

from repro.instances import InstanceGenerator, ValidationPipeline, add_unknown_child
from repro.xmlutil.writer import XmlWriter
from repro.xsdgen import GenerationOptions, SchemaGenerator

from tests.reference_validator import reference_report

CORPUS_SIZE = 200
ROOT_NAME = "HoardingPermit"


@pytest.fixture(scope="module")
def corpus(easybiz, tmp_path_factory):
    """200 on-disk messages (valid mix plus a few invalid) and their schemas."""
    result = SchemaGenerator(easybiz.model, GenerationOptions()).generate(
        easybiz.doc_library, root=ROOT_NAME
    )
    schema_set = result.schema_set()
    corpus_dir = tmp_path_factory.mktemp("instance_corpus")
    writer = XmlWriter()
    for index in range(CORPUS_SIZE):
        generator = InstanceGenerator(
            schema_set,
            fill_optional=True,
            repeat_unbounded=3 + index % 3,
        )
        document = generator.generate(ROOT_NAME)
        if index % 40 == 39:
            add_unknown_child(document)
        (corpus_dir / f"doc{index:04d}.xml").write_text(
            writer.to_string(document), encoding="utf-8"
        )
    return schema_set, corpus_dir


def _canonical(report) -> str:
    """The report as the bytes a --report json run would emit."""
    return json.dumps(report.to_json(), sort_keys=True)


def test_reference_walker_serial(benchmark, corpus):
    """Baseline arm: the uncompiled reference tree walker."""
    schema_set, corpus_dir = corpus
    report = benchmark(reference_report, schema_set, corpus_dir)
    assert report.docs_total == CORPUS_SIZE


def test_compiled_serial(benchmark, corpus):
    """The compiled engine: plan-walking instead of graph-walking."""
    schema_set, corpus_dir = corpus
    pipeline = ValidationPipeline(schema_set)
    report = benchmark(pipeline.run, corpus_dir)
    assert report.docs_total == CORPUS_SIZE


def test_compiled_serial_beats_reference_walker_3x(corpus):
    """The bar that justifies compiling, asserted outside pytest-benchmark.

    The compiled pipeline must be >=3x faster than the reference walker
    on the 200-document corpus, with a byte-identical report.  Best-of-N
    timing on both sides keeps the comparison about the engines, not
    about scheduler noise.
    """
    import time

    schema_set, corpus_dir = corpus
    compiled = ValidationPipeline(schema_set)

    def best_of(run, repeats=3):
        best = None
        report = None
        for _ in range(repeats):
            start = time.perf_counter()
            report = run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, report

    reference_s, reference = best_of(lambda: reference_report(schema_set, corpus_dir))
    compiled_s, report = best_of(lambda: compiled.run(corpus_dir))
    assert _canonical(report) == _canonical(reference)
    assert report.docs_total == CORPUS_SIZE
    assert report.docs_invalid == CORPUS_SIZE // 40
    assert compiled_s * 3 <= reference_s, (
        f"compiled not >=3x faster: reference={reference_s * 1e3:.1f}ms "
        f"compiled={compiled_s * 1e3:.1f}ms "
        f"({reference_s / compiled_s:.2f}x)"
    )
