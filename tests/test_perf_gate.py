"""Tier-1 wiring for tools/perf_gate.py on synthetic pair results
(no test here starts a perfbench process or extracts a tree)."""

from __future__ import annotations

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

PARENT, REFERENCE = "p" * 40, "r" * 40
BASELINES = {"parent": PARENT, "reference": REFERENCE}
SOFT = (GATE.WARN_RATIO + GATE.FAIL_RATIO) / 2


def _result(p50: float = 10.0, layers: dict | None = None, **status) -> dict:
    """A perfbench result line (p95 is 1.2x p50); ``layers`` are traced ms metrics."""
    values = {"latency_p50_ms": p50, "latency_p95_ms": 1.2 * p50, "runtime.gc_ms": 9.0,
              "xmi.read_ms": 1.0, "xsd.write_ms": 0.2, **(layers or {})}
    return {"correct": True, "failed": 0, **status,
            "metrics": {name: {"value": value, "unit": "ms"} for name, value in values.items()}}


def _runs(factor: float | list[float] = 1.0, slow_layer: str | None = None, **status) -> dict:
    """Equal runs of every tree, but the checkout's p50 is ``factor`` times
    theirs in each pair; on ``generate_catalog`` it also has ``status`` and
    a 3x ``slow_layer``."""
    factors = factor if isinstance(factor, list) else [factor] * GATE.ROUNDS
    runs = {}
    for workload in GATE.WORKLOADS:
        theirs = {"plain": [_result() for _ in factors], "traced": _result()}
        extra = status if workload == "generate_catalog" else {}
        layers = {slow_layer: 3.0 * _result()["metrics"][slow_layer]["value"]} if slow_layer else None
        mine = {"plain": [_result(10.0 * each, **extra) for each in factors],
                "traced": _result(layers=layers if workload == "generate_catalog" else None)}
        runs[workload] = {GATE.CANDIDATE: mine, PARENT: theirs, REFERENCE: theirs}
    return runs


@pytest.fixture
def gate(monkeypatch):
    """Runs ``main()`` on synthetic runs; ``gate.calls`` lists each perfbench
    run as (workload, tree, trace)."""
    calls = []

    def run(runs: dict, parent: str = PARENT) -> int:
        monkeypatch.setattr(GATE, "commit", {"HEAD^": parent, GATE.REFERENCE: REFERENCE}.__getitem__)
        monkeypatch.setattr(GATE, "extract", lambda commit_id, into: into)
        plain = {(workload, name): iter(tree["plain"])
                 for workload, trees in runs.items() for name, tree in trees.items()}

        def perfbench(tree: Path, workload: str, trace: int) -> dict:
            name = GATE.CANDIDATE if tree == GATE.ROOT else tree.name
            calls.append((workload, name, trace))
            if name not in runs[workload]:
                raise RuntimeError(f"{workload} --trace {trace} in {tree} exited 2 without a result")
            return runs[workload][name]["traced"] if trace else next(plain[workload, name])

        monkeypatch.setattr(GATE, "run_perfbench", perfbench)
        return GATE.main()

    run.calls = calls
    return run


class TestCompareReports:
    def test_unchanged_report_is_all_ok_or_info(self):
        lines, failed = GATE.compare(_runs(), BASELINES)
        assert not failed and len(lines) == 2 * len(GATE.WORKLOADS)
        assert not any(line.startswith("::") for line in lines)

    def test_hard_regression_fails(self):
        lines, failed = GATE.compare(_runs(3.0, slow_layer="xsd.write_ms"), BASELINES)
        assert failed
        [line] = [line for line in lines if line.startswith("::error title=perf regression::generate_catalog vs parent")]
        assert f"latency_p50_ms x3.000 (0/{GATE.ROUNDS} wins)" in line
        assert "layer that rose most: xsd.write_ms (+200% in one traced run)" in line

    def test_layer_figure_discounts_a_slower_machine(self):
        # The checkout's traced run ran on a machine twice as slow (every
        # layer and the calibration doubled), and one layer rose 30% more.
        def traced(scale: float, write_scale: float) -> dict:
            return _result(layers={"runtime.calibration_ms": 4.0 * scale,
                                   "xmi.read_ms": 1.0 * scale, "xsd.write_ms": 0.2 * write_scale})

        runs = _runs(3.0)
        runs["generate_catalog"][GATE.CANDIDATE]["traced"] = traced(2.0, 2.0 * 1.3)
        runs["generate_catalog"][PARENT]["traced"] = traced(1.0, 1.0)
        lines, failed = GATE.compare(runs, {"parent": PARENT})
        assert failed
        [line] = [line for line in lines if "generate_catalog vs parent" in line]
        assert line.endswith("layer that rose most: xsd.write_ms (+30% in one traced run)")

    def test_soft_regression_warns(self):
        lines, failed = GATE.compare(_runs(SOFT), BASELINES)
        assert not failed
        assert sum(f"latency_p50_ms x{SOFT:.3f}" in line for line in lines) == len(lines)

    def test_slower_candidate_fails_only_on_ratio_and_wins(self):
        slow = GATE.ROUNDS - GATE.FAIL_WINS - 1
        # The median pair is 3x slower, but the checkout won one pair too many.
        assert not GATE.compare(_runs([0.9] * (GATE.FAIL_WINS + 1) + [3.0] * slow), BASELINES)[1]
        # The checkout lost every pair, but by no more than FAIL_RATIO.
        assert not GATE.compare(_runs(GATE.FAIL_RATIO), BASELINES)[1]
        lines, failed = GATE.compare(_runs([0.9] * GATE.FAIL_WINS + [3.0] * (slow + 1)), BASELINES)
        assert failed and f"({GATE.FAIL_WINS}/{GATE.ROUNDS} wins)" in lines[0]

    def test_new_and_missing_arms(self, gate, capsys):
        # A workload one compared tree cannot run fails the gate, never passes.
        runs = _runs()
        del runs["serve_mixed"][REFERENCE]
        assert gate(runs) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: serve_mixed --trace 0 in ") and f"{REFERENCE} exited 2" in error

    def test_github_annotations(self):
        lines, _ = GATE.compare(_runs(3.0), BASELINES)
        assert all(line.startswith("::error title=perf regression::") for line in lines)
        lines, _ = GATE.compare(_runs(SOFT), BASELINES)
        assert all(line.startswith("::warning title=perf soft-fail::") for line in lines)


class TestGateExitCodes:
    def test_passes_on_identical_report(self, gate, capsys):
        assert gate(_runs()) == 0
        output = capsys.readouterr().out
        for workload in GATE.WORKLOADS:
            for label, commit_id in BASELINES.items():
                assert (f"{workload} vs {label} {commit_id[:7]}: latency_p50_ms x1.000 "
                        f"(0/{GATE.ROUNDS} wins), latency_p95_ms x1.000") in output
        assert "perf gate passed in " in output

    def test_fails_on_injected_slowdown(self, gate, capsys):
        assert gate(_runs(3.0, slow_layer="xmi.read_ms")) == 1
        output = capsys.readouterr().out
        assert "layer that rose most: xmi.read_ms" in output and "perf gate FAILED" in output

    def test_soft_fail_keeps_exit_zero(self, gate, capsys):
        assert gate(_runs(SOFT)) == 0
        assert "::warning" in capsys.readouterr().out

    @pytest.mark.parametrize("status", [{"correct": False}, {"failed": 2}])
    def test_incorrect_or_failed_run_fails(self, gate, capsys, status):
        assert gate(_runs(**status)) == 1
        assert "generate_catalog: incorrect output" in capsys.readouterr().out

    def test_missing_baseline_errors(self, monkeypatch, capsys):
        # A compared commit the clone lacks (a shallow checkout) is an error.
        monkeypatch.setattr(GATE, "REFERENCE", "0" * 40)
        monkeypatch.setattr(GATE, "run_perfbench", lambda *args: pytest.fail("a run started"))
        assert GATE.main() == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_report_errors(self, monkeypatch, capsys):
        def crashed_run(command, **kwargs):
            return subprocess.CompletedProcess(command, returncode=2, stdout="")

        # A perfbench run that exits without a result line is an error.
        monkeypatch.setattr(GATE, "commit", lambda rev: REFERENCE)
        monkeypatch.setattr(GATE, "extract", lambda commit_id, into: into)
        monkeypatch.setattr(GATE.subprocess, "run", crashed_run)
        assert GATE.main() == 1
        assert "exited 2 without a result" in capsys.readouterr().err

    def test_trees_take_turns_in_alternating_order(self, gate):
        assert gate(_runs()) == 0
        catalog = [(name, trace) for workload, name, trace in gate.calls if workload == "generate_catalog"]
        turn = [GATE.CANDIDATE, PARENT, REFERENCE]
        expected = [name for number in range(GATE.ROUNDS) for name in (turn if number % 2 == 0 else turn[::-1])]
        assert catalog == [(name, 0) for name in expected] + [(name, 1) for name in turn]

    def test_parent_equal_to_reference_runs_once_per_round(self, gate, capsys):
        assert gate(_runs(), parent=REFERENCE) == 0
        trees = [name for workload, name, trace in gate.calls if workload == "validate_corpus" and not trace]
        assert trees.count(REFERENCE) == trees.count(GATE.CANDIDATE) == GATE.ROUNDS
        assert len(trees) == 2 * GATE.ROUNDS
        assert f"validate_corpus vs parent {REFERENCE[:7]}" in capsys.readouterr().out
