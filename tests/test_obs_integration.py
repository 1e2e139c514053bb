"""End-to-end observability: instrumented pipeline, loggers, CLI."""

import json
import logging

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer
from repro.validation import validate_model
from repro.xsdgen import SchemaGenerator


@pytest.fixture
def fresh_obs():
    """Fresh global tracer + registry, configured for tracing; restored after."""
    previous_tracer = set_tracer(Tracer(enabled=False))
    previous_registry = set_registry(MetricsRegistry())
    tracer = obs.configure(trace=True)
    try:
        yield tracer
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


class TestPipelineSpans:
    def test_generation_emits_expected_span_tree(self, fresh_obs, easybiz):
        SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
        roots = list(fresh_obs.roots)
        assert [root.name for root in roots] == ["xsdgen.generate"]
        tree = roots[0]
        # One xsdgen.library span per generated schema, nested by imports.
        libraries = {s.attributes["library"] for s in tree.find("xsdgen.library")}
        assert libraries == {
            "EB005-HoardingPermit",
            "coredatatypes",
            "CommonDataTypes",
            "EnumerationTypes",
            "CommonAggregates",
            "LocalLawAggregates",
        }
        # Builder spans sit under their library spans.
        assert tree.find("xsdgen.build.doc")
        assert tree.find("xsdgen.build.bie")
        assert tree.find("xsdgen.build.cdt")
        assert tree.find("xsdgen.build.qdt")
        assert tree.find("xsdgen.build.enum")
        # Pre-generation validation ran under the same root.
        assert tree.find("validation.run")
        assert all(s.status == "ok" for s, _ in tree.walk())

    def test_second_run_hits_the_memo(self, fresh_obs, easybiz):
        generator = SchemaGenerator(easybiz.model)
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        hits_after_first = obs.get_metrics().snapshot()["xsdgen.memo_hits"]
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["xsdgen.memo_hits"] > hits_after_first
        # The memoized second run generates no new schemas.
        assert snapshot["xsdgen.schemas_generated"] == 6

    def test_generation_metrics_are_populated(self, fresh_obs, easybiz):
        result = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["xsdgen.schemas_generated"] == len(result.schemas) == 6
        assert snapshot["xsdgen.imports_resolved"] > 0
        assert snapshot["validation.rules_fired"] > 0
        rule_timers = [key for key in snapshot if key.startswith("validation.rule_ms{rule=")]
        assert rule_timers, "per-rule validation.rule_ms histograms missing"
        assert all(snapshot[key]["count"] >= 1 for key in rule_timers)

    def test_validation_findings_counted_by_severity(self, fresh_obs):
        from repro.ccts.model import CctsModel

        model = CctsModel("Bad")
        business = model.add_business_library("B", "urn:bad")
        business.add_bie_library("L").add_abie("Orphan")
        report = validate_model(model)
        assert not report.ok
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["validation.findings{severity=error}"] >= 1

    def test_error_spans_record_generation_failures(self, fresh_obs, easybiz):
        from repro.errors import GenerationError

        generator = SchemaGenerator(easybiz.model)
        with pytest.raises(GenerationError):
            generator.generate(easybiz.prim_library)
        roots = list(fresh_obs.roots)
        assert roots[-1].status == "error"
        assert "GenerationError" in roots[-1].error


class TestXmiSpans:
    def test_read_xmi_counts_elements(self, fresh_obs, easybiz, tmp_path):
        from repro.xmi import read_xmi, write_xmi

        path = tmp_path / "m.xmi"
        write_xmi(easybiz.model.model, path)
        read_xmi(path.read_text(encoding="utf-8"))
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["xmi.elements_parsed"] > 0
        assert snapshot["xmi.bytes_read"] > 0
        names = {root.name for root in fresh_obs.roots}
        assert "xmi.read" in names


class TestLoggingBridge:
    def test_get_logger_installs_null_handler(self):
        root = logging.getLogger("repro")
        logger = obs.get_logger("repro.xsdgen")
        assert logger.name == "repro.xsdgen"
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_tracing_leaves_the_logger_level_alone(self):
        root = logging.getLogger("repro")
        level, handlers = root.level, list(root.handlers)
        previous = set_tracer(Tracer(enabled=False))
        root.setLevel(logging.NOTSET)
        try:
            obs.configure(trace=True)
            assert root.level == logging.NOTSET
            obs.disable()
            assert root.level == logging.NOTSET
            assert root.handlers == handlers
            # Nothing lowers the level, so no INFO record is ever built.
            assert not obs.get_logger("repro.xsdgen").isEnabledFor(logging.INFO)
        finally:
            root.setLevel(level)
            set_tracer(previous)


class TestConfigure:
    def test_takes_only_trace_ring_capacity_and_reset_metrics(self):
        import inspect

        assert list(inspect.signature(obs.configure).parameters) == [
            "trace", "ring_capacity", "reset_metrics",
        ]

    def test_ring_is_made_on_trace_and_dropped_on_disable(self):
        previous = set_tracer(Tracer(enabled=False))
        try:
            tracer = obs.configure(trace=True, ring_capacity=3)
            assert tracer.enabled and tracer.roots.maxlen == 3
            obs.disable()
            assert not tracer.enabled and tracer.roots is None
        finally:
            set_tracer(previous)


class TestCliObservability:
    @pytest.fixture
    def xmi_file(self, tmp_path):
        path = tmp_path / "easybiz.xmi"
        assert main(["example", "easybiz", "--out", str(path)]) == 0
        return path

    @pytest.fixture(autouse=True)
    def _restore_globals(self):
        previous_tracer = set_tracer(Tracer(enabled=False))
        previous_registry = set_registry(MetricsRegistry())
        try:
            yield
        finally:
            set_tracer(previous_tracer)
            set_registry(previous_registry)

    def test_trace_and_metrics_out_flags(self, xmi_file, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        code = main([
            "--trace", "--metrics-out", str(metrics_path),
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit", "--root", "HoardingPermit",
            "--out", str(tmp_path / "schemas"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "== span tree ==" in err
        assert "xsdgen.generate" in err
        assert "xsdgen.library" in err
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert snapshot["xsdgen.schemas_generated"] == 6
        assert any(key.startswith("validation.rule_ms{rule=") for key in snapshot)

    def test_stats_subcommand(self, capsys):
        assert main(["stats", "easybiz", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "== span tree ==" in out
        assert "== metrics ==" in out
        assert "xsdgen.generate" in out
        assert "xsdgen.memo_hits" in out
        assert "validation.rule_ms{rule=" in out

    def test_metrics_out_without_trace(self, xmi_file, tmp_path):
        metrics_path = tmp_path / "m.json"
        assert main([
            "--metrics-out", str(metrics_path),
            "validate", str(xmi_file),
        ]) == 0
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert snapshot["validation.rules_fired"] > 0
