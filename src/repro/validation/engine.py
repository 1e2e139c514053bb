"""The validation engine: a registry of rules and a runner."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import Histogram, MetricsRegistry, counter, get_registry
from repro.obs.trace import span
from repro.validation.diagnostics import ValidationReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccts.model import CctsModel

_log = get_logger("repro.validation")

#: A rule is a callable writing findings into a report.
RuleFunc = Callable[["CctsModel", ValidationReport], None]


@dataclass(frozen=True)
class Rule:
    """One registered validation rule."""

    code: str
    description: str
    func: RuleFunc
    basic: bool = False


@dataclass
class ValidationEngine:
    """Runs a configurable set of rules over a model."""

    rules: list[Rule] = field(default_factory=list)
    #: ``validation.rule_ms`` per rule code, bound once per registry
    #: generation: the registry lookup renders the label key on every call.
    _timers: tuple[MetricsRegistry, int, dict[str, Histogram]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def register(self, code: str, description: str, basic: bool = False) -> Callable[[RuleFunc], RuleFunc]:
        """Decorator registering a rule function under ``code``."""

        def decorate(func: RuleFunc) -> RuleFunc:
            if any(rule.code == code for rule in self.rules):
                raise ValueError(f"duplicate rule code {code!r}")
            self.rules.append(Rule(code, description, func, basic))
            return func

        return decorate

    def validate(self, model: "CctsModel", basic_only: bool = False) -> ValidationReport:
        """Run all (or only the basic) rules; returns the merged report.

        Rules only read the model, so the run executes under the model's
        snapshot index (O(1) association/dependency lookups).
        """
        import contextlib
        from time import perf_counter

        report = ValidationReport()
        registry, timers = self._rule_timers()
        context = model.model.indexed() if model is not None else contextlib.nullcontext()
        with span("validation.run", basic_only=basic_only) as run_span, context:
            fired = 0
            for rule in self.rules:
                if basic_only and not rule.basic:
                    continue
                before = len(report.diagnostics)
                with span("validation.rule", rule=rule.code) as rule_span:
                    started = perf_counter()
                    rule.func(model, report)
                    elapsed_ms = (perf_counter() - started) * 1000.0
                    rule_span.set(findings=len(report.diagnostics) - before)
                timer = timers.get(rule.code)
                if timer is None:
                    timer = timers[rule.code] = registry.histogram(
                        "validation.rule_ms", rule=rule.code
                    )
                timer.observe(elapsed_ms)
                fired += 1
            severities = Counter(diagnostic.severity.value for diagnostic in report.diagnostics)
            for severity, findings in severities.items():
                counter("validation.findings", severity=severity).inc(findings)
            counter("validation.rules_fired").inc(fired)
            run_span.set(rules=fired, findings=len(report.diagnostics))
            _log.info(
                "validation ran %d rule(s): %d finding(s)", fired, len(report.diagnostics)
            )
        return report

    def _rule_timers(self) -> tuple[MetricsRegistry, dict[str, Histogram]]:
        registry = get_registry()
        bound = self._timers
        if bound is None or bound[0] is not registry or bound[1] != registry.generation:
            bound = self._timers = (registry, registry.generation, {})
        return registry, bound[2]

    def rule_codes(self) -> list[str]:
        """All registered rule codes, in registration order."""
        return [rule.code for rule in self.rules]


def default_engine() -> ValidationEngine:
    """A fresh engine with the full UPCC rule set registered.

    Each call builds a new engine, so callers may register extra rules on
    it without affecting anyone else.
    """
    from repro.validation.rules import build_default_rules

    return build_default_rules()


#: The engine behind :func:`validate_model`, built on first use; nothing
#: registers rules on it, so every caller shares it.
_shared_engine: ValidationEngine | None = None


def validate_model(model: "CctsModel", basic_only: bool = False) -> ValidationReport:
    """Validate ``model`` with the default rule set."""
    global _shared_engine
    if _shared_engine is None:
        _shared_engine = default_engine()
    return _shared_engine.validate(model, basic_only=basic_only)
