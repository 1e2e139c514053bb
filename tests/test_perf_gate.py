"""Tier-1 wiring for tools/perf_gate.py on synthetic perfbench results
(no test here starts a perfbench process)."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
try:
    import perf_gate as GATE
finally:
    sys.path.pop(0)

BASELINE = {workload: {"latency_p50_ms": 10.0, "latency_p95_ms": 12.0,
                       "layers": {"xmi.read_ms": 1.0, "xsd.write_ms": 0.2}}
            for workload in GATE.WORKLOADS}


def _results(p50_factor: float = 1.0, slow_layer: str | None = None, **status) -> dict:
    """``BASELINE`` with p50 scaled; ``generate_catalog`` gets 3x ``slow_layer`` and ``status``."""
    results = {}
    for workload, base in BASELINE.items():
        results[workload] = dict(copy.deepcopy(base), correct=True, failed=0)
        results[workload]["latency_p50_ms"] *= p50_factor
    catalog = results["generate_catalog"]
    if slow_layer:
        catalog["layers"][slow_layer] *= 3.0
    catalog.update(status)
    return results


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Runs ``main()`` on the given results against ``BASELINE``; returns the exit code."""
    baseline = tmp_path / "BENCH_baseline.json"
    baseline.write_text(json.dumps(BASELINE), encoding="utf-8")
    monkeypatch.setattr(GATE, "BASELINE", baseline)

    def run(results) -> int:
        monkeypatch.setattr(GATE, "measure", lambda: results)
        return GATE.main([])

    return run


class TestCompareReports:
    def test_unchanged_report_is_all_ok_or_info(self):
        lines, failed = GATE.compare(BASELINE, _results())
        assert not failed
        assert not any(line.startswith("::") for line in lines)

    def test_hard_regression_fails(self):
        lines, failed = GATE.compare(BASELINE, _results(3.0, slow_layer="xsd.write_ms"))
        assert failed
        [line] = [line for line in lines if "generate_catalog" in line]
        assert "+200%" in line and "layer that rose most: xsd.write_ms" in line

    def test_soft_regression_warns(self):
        lines, failed = GATE.compare(BASELINE, _results(1.4))
        assert not failed
        assert sum("+40%" in line for line in lines) == len(GATE.WORKLOADS)

    def test_new_and_missing_arms(self):
        # A measured workload missing from the baseline fails, never passes.
        baseline = {k: v for k, v in BASELINE.items() if k != "serve_mixed"}
        lines, failed = GATE.compare(baseline, _results())
        assert failed and "::error title=perf gate::serve_mixed: not in" in "\n".join(lines)

    def test_github_annotations(self):
        lines, _ = GATE.compare(BASELINE, _results(3.0))
        assert all(line.startswith("::error title=perf regression::") for line in lines)
        lines, _ = GATE.compare(BASELINE, _results(1.4))
        assert all(line.startswith("::warning title=perf soft-fail::") for line in lines)


class TestSummarize:
    def test_latencies_and_layers_are_normalized(self):
        def result(**metrics):
            return {"correct": True, "failed": 0, "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}

        plain = result(latency_p50_ms=(4.0, "ms"), latency_p95_ms=(8.0, "ms"))
        traced = result(**{"runtime.calibration_ms": (2.0, "ms"), "runtime.gc_ms": (9.0, "ms"),
                           "xmi.read_ms": (3.0, "ms"), "xsd.write_ms": (0.0, "ms"),
                           "xmi.elements": (183.0, "count")})
        half_speed = [GATE.calibration_ref_ms() * 2] * 10
        figures = GATE.summarize(plain, traced, half_speed)
        assert (figures["latency_p50_ms"], figures["latency_p95_ms"]) == (2.0, 4.0)
        assert figures["layers"] == {"xmi.read_ms": 1.5}
        assert GATE.summarize(plain, traced)["latency_p50_ms"] == 4.0


class TestGateExitCodes:
    def test_passes_on_identical_report(self, gate, capsys):
        assert gate(_results()) == 0
        output = capsys.readouterr().out
        for workload in GATE.WORKLOADS:
            assert f"{workload}: latency_p50_ms 10.000 -> 10.000 (+0%), latency_p95_ms" in output

    def test_fails_on_injected_slowdown(self, gate, capsys):
        assert gate(_results(3.0, slow_layer="xmi.read_ms")) == 1
        assert "layer that rose most: xmi.read_ms" in capsys.readouterr().out

    def test_soft_fail_keeps_exit_zero(self, gate, capsys):
        assert gate(_results(1.4)) == 0
        assert "::warning" in capsys.readouterr().out

    @pytest.mark.parametrize("status", [{"correct": False}, {"failed": 2}])
    def test_incorrect_or_failed_run_fails(self, gate, capsys, status):
        assert gate(_results(**status)) == 1
        assert "generate_catalog: incorrect output" in capsys.readouterr().out

    def test_missing_baseline_errors(self, gate, monkeypatch, tmp_path):
        monkeypatch.setattr(GATE, "BASELINE", tmp_path / "absent.json")
        assert gate(_results()) == 1

    def test_missing_report_errors(self, monkeypatch, capsys):
        def crashed_run(command, **kwargs):
            return subprocess.CompletedProcess(command, returncode=2, stdout="")

        # A perfbench run that exits without a result line is an error.
        monkeypatch.setattr(GATE.subprocess, "run", crashed_run)
        assert GATE.main([]) == 1
        assert "exited 2 without a result" in capsys.readouterr().err

    def test_write_baseline_takes_medians_of_correct_runs(self, gate, monkeypatch):
        runs = iter([_results(1.0), _results(3.0), _results(2.0)])
        monkeypatch.setattr(GATE, "measure", lambda: next(runs))
        assert GATE.main(["--write-baseline"]) == 0
        written = json.loads(GATE.BASELINE.read_text(encoding="utf-8"))
        assert written["generate_catalog"]["latency_p50_ms"] == 20.0
        monkeypatch.setattr(GATE, "measure", lambda: _results(failed=1))
        assert GATE.main(["--write-baseline"]) == 1

    def test_committed_baseline_passes_against_itself(self, monkeypatch):
        baseline = json.loads(GATE.BASELINE.read_text(encoding="utf-8"))
        assert set(baseline) == set(GATE.WORKLOADS)
        results = {name: dict(figures, correct=True, failed=0) for name, figures in baseline.items()}
        monkeypatch.setattr(GATE, "measure", lambda: results)
        assert GATE.main([]) == 0
