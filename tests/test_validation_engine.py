"""Unit tests for the validation engine mechanics and diagnostics."""

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.uml.model import Model
from repro.validation.diagnostics import Diagnostic, Severity, ValidationReport
from repro.validation.engine import ValidationEngine, default_engine, validate_model


class TestDiagnostics:
    def test_report_partitions(self):
        report = ValidationReport()
        report.error("X-1", "bad")
        report.warning("X-2", "meh")
        report.info("X-3", "fyi")
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert not report.ok

    def test_ok_without_errors(self):
        report = ValidationReport()
        report.warning("X", "meh")
        assert report.ok

    def test_summary_counts(self):
        report = ValidationReport()
        report.error("X", "bad")
        assert report.summary() == "1 error(s), 0 warning(s), 1 finding(s) total"

    def test_str_rendering(self):
        report = ValidationReport()
        assert "no findings" in str(report)
        report.error("X-1", "bad thing", "Model.Lib")
        assert str(report) == "ERROR X-1: bad thing [Model.Lib]"

    def test_extend_merges(self):
        a, b = ValidationReport(), ValidationReport()
        a.error("X", "1")
        b.warning("Y", "2")
        a.extend(b)
        assert len(a.diagnostics) == 2

    def test_diagnostic_str_without_location(self):
        diagnostic = Diagnostic(Severity.WARNING, "W", "careful")
        assert str(diagnostic) == "WARNING W: careful"


class TestEngine:
    def test_registration_and_run(self):
        engine = ValidationEngine()

        @engine.register("T-1", "always fires")
        def rule(model, report):
            report.error("T-1", "fired")

        report = engine.validate(None)
        assert [d.code for d in report.diagnostics] == ["T-1"]

    def test_duplicate_code_rejected(self):
        engine = ValidationEngine()
        engine.register("T-1", "a")(lambda m, r: None)
        with pytest.raises(ValueError):
            engine.register("T-1", "b")(lambda m, r: None)

    def test_basic_only_filters(self):
        engine = ValidationEngine()
        engine.register("B", "basic", basic=True)(lambda m, r: r.error("B", "x"))
        engine.register("F", "full")(lambda m, r: r.error("F", "x"))
        codes = {d.code for d in engine.validate(None, basic_only=True).diagnostics}
        assert codes == {"B"}

    def test_default_engine_has_basic_subset(self):
        engine = default_engine()
        basics = [rule for rule in engine.rules if rule.basic]
        assert basics and len(basics) < len(engine.rules)

    def test_rule_codes_in_registration_order(self):
        engine = default_engine()
        codes = engine.rule_codes()
        assert codes[0].startswith("UPCC-P")

    def test_default_engine_is_fresh_per_call(self):
        first, second = default_engine(), default_engine()
        assert first is not second
        first.register("T-EXTRA", "test-only")(lambda m, r: None)
        assert "T-EXTRA" not in second.rule_codes()
        assert "T-EXTRA" not in default_engine().rule_codes()

    def test_validate_model_ignores_rules_registered_on_default_engines(self, easybiz):
        engine = default_engine()
        engine.register("T-EXTRA", "test-only")(lambda m, r: r.error("T-EXTRA", "x"))
        assert "T-EXTRA" not in {d.code for d in validate_model(easybiz.model).diagnostics}

    def test_rule_timers_follow_registry_swaps_and_resets(self, easybiz):
        previous = set_registry(MetricsRegistry())
        try:
            for _ in range(2):
                validate_model(easybiz.model)
                timers = [
                    value for key, value in get_registry().snapshot().items()
                    if key.startswith("validation.rule_ms{rule=")
                ]
                assert len(timers) == len(default_engine().rules)
                assert all(timer["count"] == 1 for timer in timers)
                get_registry().reset()
        finally:
            set_registry(previous)


class TestWalkCount:
    def test_validate_model_walks_the_model_at_most_three_times(self, easybiz, monkeypatch):
        """Whole-model queries inside the run read one snapshot, not the live tree."""
        root = easybiz.model.model
        walks = []
        original = Model.walk

        def counting_walk(self):
            if self is root:
                walks.append(self)
            return original(self)

        monkeypatch.setattr(Model, "walk", counting_walk)
        report = validate_model(easybiz.model)
        assert report.ok
        assert 1 <= len(walks) <= 3
