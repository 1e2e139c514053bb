"""Ablation benches for the design choices DESIGN.md calls out.

* content-model matching: compiled NFA vs naive backtracking,
* annotated vs unannotated output (the Figure-5 toggle) -- size and time,
* import-closure memoization vs per-library regeneration.
"""

import pytest

from repro.instances import InstanceGenerator
from repro.xmlutil.qname import QName
from repro.xsd.components import ElementDecl, SequenceGroup
from repro.xsd.content_model import CompiledModel
from repro.xsd.validator import validate_instance
from repro.xsdgen import GenerationOptions, SchemaGenerator

from tests.reference_validator import match_backtracking

NS = "urn:bench"


def _wide_model(width: int):
    """A sequence of ``width`` optional elements -- worst case for backtracking."""
    particles = [ElementDecl(name=f"f{i}", min_occurs=0, max_occurs=2) for i in range(width)]
    model = SequenceGroup(particles)
    tokens = [QName(NS, f"f{i}") for i in range(width) for _ in range(2)]
    return model, tokens


def _symbol(decl: ElementDecl) -> QName:
    return QName(NS, decl.name)


@pytest.mark.parametrize("width", [8, 24])
def test_content_model_nfa(benchmark, width):
    """The production engine: compile once, match repeatedly."""
    model, tokens = _wide_model(width)
    compiled = CompiledModel(model, _symbol)
    result = benchmark(compiled.match, tokens)
    assert result.ok


@pytest.mark.parametrize("width", [8, 24])
def test_content_model_backtracking(benchmark, width):
    """The reference engine on the same workload."""
    model, tokens = _wide_model(width)
    result = benchmark(match_backtracking, model, tokens, _symbol)
    assert result.ok


def test_annotated_output(benchmark, easybiz):
    """Annotated generation: time plus output-size overhead."""

    def run():
        options = GenerationOptions(annotated=True)
        result = SchemaGenerator(easybiz.model, options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        return sum(len(g.to_string()) for g in result.schemas.values())

    annotated_size = benchmark(run)
    plain = SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
    plain_size = sum(len(g.to_string()) for g in plain.schemas.values())
    assert annotated_size > plain_size


def test_unannotated_output(benchmark, easybiz):
    """Unannotated generation, the comparison arm."""

    def run():
        result = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        return sum(len(g.to_string()) for g in result.schemas.values())

    assert benchmark(run) > 0


def test_import_closure_memoized(benchmark, easybiz):
    """One generator run produces the whole closure: each library built once."""

    def run():
        # validate_first off in both arms so only closure strategy differs.
        generator = SchemaGenerator(easybiz.model, GenerationOptions(validate_first=False))
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        return generator.session.messages

    messages = benchmark(run)
    cdt_builds = [m for m in messages if m.startswith("Building CDTLibrary")]
    assert len(cdt_builds) == 1  # referenced from DOC, QDT and both BIE schemas


def test_import_closure_naive(benchmark, easybiz):
    """The naive arm: regenerate every library independently."""

    def run():
        count = 0
        for library_name in (
            "EB005-HoardingPermit", "CommonAggregates", "LocalLawAggregates",
            "CommonDataTypes", "coredatatypes", "EnumerationTypes",
        ):
            generator = SchemaGenerator(easybiz.model, GenerationOptions(validate_first=False))
            root = "HoardingPermit" if library_name == "EB005-HoardingPermit" else None
            result = generator.generate(library_name, root=root)
            count += len(result.schemas)
        return count

    # 6 independent runs regenerate shared dependencies repeatedly.
    assert benchmark(run) > 6


def test_shared_ref_vs_inline_equivalence(benchmark, easybiz):
    """Both Figure-7 readings accept the same instances (sanity for the ablation)."""

    def run():
        options = GenerationOptions(shared_aggregation_as_ref=False)
        result = SchemaGenerator(easybiz.model, options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        schema_set = result.schema_set()
        message = InstanceGenerator(schema_set).generate("HoardingPermit")
        return validate_instance(schema_set, message)

    assert benchmark(run) == []


def test_indexed_connector_lookup(benchmark):
    """Index ablation, fast arm: whole-model ASBIE sweep under the snapshot index."""
    from benchmarks.bench_scaling import build_synthetic_model

    model, _, _ = build_synthetic_model(60)

    def run():
        with model.model.indexed():
            return sum(len(abie.asbies) for abie in model.abies())

    assert benchmark(run) == 60


def test_unindexed_connector_lookup(benchmark):
    """Index ablation, slow arm: the same sweep with per-query model scans."""
    from benchmarks.bench_scaling import build_synthetic_model

    model, _, _ = build_synthetic_model(60)

    def run():
        return sum(len(abie.asbies) for abie in model.abies())

    assert benchmark(run) == 60
