#!/usr/bin/env python
"""The perf gate: every perfbench workload, checked and compared with BENCH_baseline.json.

Each workload runs once untraced and once traced; an incorrect output or a
failed op fails the gate.  Normalized p50 and p95 above ``WARN_RATIO`` times
the baseline are annotated, above ``FAIL_RATIO`` they fail, and either names
the traced layer time (÷ ``runtime.calibration_ms``) that rose most.
``serve_mixed`` latencies come as measured, so they are scaled by
``CALIBRATION_REF_MS / median(calibration_ms)`` of its results file::

    python tools/perf_gate.py                   # measure and compare; exit 0 or 1
    python tools/perf_gate.py --write-baseline  # rewrite the baseline
"""

from __future__ import annotations

import argparse
import json
import runpy
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BASELINE = ROOT / "BENCH_baseline.json"
WORKLOADS = ("generate_catalog", "validate_corpus", "serve_mixed")
LATENCIES = ("latency_p50_ms", "latency_p95_ms")
SEED = 1
SECONDS = 5
#: Normalized latency ÷ baseline above which a workload is annotated (+30%)
#: and above which the gate fails (+150%).
WARN_RATIO = 1.3
FAIL_RATIO = 2.5
#: The baseline is the median of this many measurements: single 5 s runs of
#: ``serve_mixed`` read a scaled p95 from 5 to 22 ms (unchanged tree, 2-vCPU VM).
BASELINE_RUNS = 3


def calibration_ref_ms() -> float:
    """The reference calibration time perfbench normalizes latencies to."""
    return runpy.run_path(str(PERFBENCH / "measure.py"))["CALIBRATION_REF_MS"]


def run_perfbench(workload: str, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run."""
    command = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode} without a result")
    return json.loads(lines[-1])


def summarize(plain: dict, traced: dict, calibration_ms: list[float] | None = None) -> dict:
    """One workload's figures; ``calibration_ms`` (of a run whose latencies are
    as measured) puts them at the reference speed.  The layers are the traced
    ``ms`` metrics but ``runtime.*``, which read the run and the machine."""
    scale = 1.0 if calibration_ms is None else calibration_ref_ms() / statistics.median(calibration_ms)
    metrics = traced["metrics"]
    calibration = metrics["runtime.calibration_ms"]["value"]
    return {
        "correct": plain["correct"] and traced["correct"],
        "failed": plain["failed"] + traced["failed"],
        **{name: plain["metrics"][name]["value"] * scale for name in LATENCIES},
        "layers": {
            name: metric["value"] / calibration for name, metric in metrics.items()
            if metric["unit"] == "ms" and not name.startswith("runtime.") and metric["value"] > 0
        },
    }


def measure() -> dict[str, dict]:
    """Every workload's figures, keyed by workload."""
    results = {}
    for workload in WORKLOADS:
        plain = run_perfbench(workload, 0)
        calibration_ms = None
        if workload == "serve_mixed":  # its latencies come as measured
            record = PERFBENCH / "results" / f"{workload}-seed{SEED}-trace0.json"
            calibration_ms = json.loads(record.read_text(encoding="utf-8"))["calibration_ms"]
        results[workload] = summarize(plain, run_perfbench(workload, 1), calibration_ms)
    return results


def moved_layer(base: dict, now: dict) -> str:
    """The layer metric whose normalized time rose most against ``base``."""
    ratios = {name: now["layers"][name] / value
              for name, value in base["layers"].items() if now["layers"].get(name)}
    name = max(ratios, key=ratios.__getitem__, default=None)
    if name is None:
        return "no traced layer to compare"
    return f"layer that rose most: {name} ÷ runtime.calibration_ms ({ratios[name] - 1:+.0%})"


def compare(baseline: dict, current: dict) -> tuple[list[str], bool]:
    """Report lines (GitHub annotations where due) and whether the gate fails."""
    lines: list[str] = []
    failed = False
    for workload, now in current.items():
        if not now["correct"] or now["failed"]:
            lines.append(f"::error title=perf gate::{workload}: incorrect output, {now['failed']} failed op(s)")
            failed = True
        base = baseline.get(workload)
        if base is None:
            lines.append(f"::error title=perf gate::{workload}: not in {BASELINE.name}")
            failed = True
            continue
        line = f"{workload}: " + ", ".join(
            f"{name} {base[name]:.3f} -> {now[name]:.3f} ({now[name] / base[name] - 1:+.0%})"
            for name in LATENCIES
        )
        worst = max(now[name] / base[name] for name in LATENCIES)
        if worst > FAIL_RATIO:
            line = f"::error title=perf regression::{line}; {moved_layer(base, now)}"
            failed = True
        elif worst > WARN_RATIO:
            line = f"::warning title=perf soft-fail::{line}; {moved_layer(base, now)}"
        lines.append(line)
    return lines, failed


def median_figures(runs: list[dict]) -> dict:
    """Per workload, the median over ``runs`` of each latency and layer time."""
    figures = {}
    for name, first in runs[0].items():
        figures[name] = {key: statistics.median(run[name][key] for run in runs) for key in LATENCIES}
        figures[name]["layers"] = {
            layer: statistics.median(run[name]["layers"].get(layer, 0.0) for run in runs)
            for layer in first["layers"]
        }
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"measure {BASELINE_RUNS} times and rewrite {BASELINE.name}")
    args = parser.parse_args(argv)
    try:
        baseline = None if args.write_baseline else json.loads(BASELINE.read_text(encoding="utf-8"))
        runs = [measure() for _ in range(BASELINE_RUNS if baseline is None else 1)]
    except (RuntimeError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if baseline is not None:
        lines, failed = compare(baseline, runs[0])
        print("\n".join(lines))
        print(f"perf gate {'FAILED' if failed else 'passed'}")
        return 1 if failed else 0
    if any(not now["correct"] or now["failed"] for run in runs for now in run.values()):
        print("error: not writing a baseline from incorrect runs", file=sys.stderr)
        return 1
    rounded = json.loads(json.dumps(median_figures(runs)),
                         parse_float=lambda text: float(f"{float(text):.4g}"))
    BASELINE.write_text(json.dumps(rounded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
