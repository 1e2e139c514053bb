#!/usr/bin/env python
"""The perf gate: the checkout's perfbench figures, paired with its parent's and a pinned reference's.

The parent (``git archive HEAD^``) and the commit ``REFERENCE`` are
extracted to a temporary directory.  In each of ``ROUNDS`` rounds every
workload runs once in each tree, in that tree's own directory, the trees
taking turns in alternating order; a commit that is both parent and
reference runs once per round.  Per workload and per compared tree, the
gate fails when the median paired ratio (checkout ÷ tree) of p50 or p95 is
above ``FAIL_RATIO`` and the checkout was the faster in at most
``FAIL_WINS`` of the pairs; a median ratio above ``WARN_RATIO`` is
annotated.  Either names the traced layer that rose most, from one
``--trace 1`` run per tree, each layer time taken as a share of its own
run's calibration time.  An incorrect output or a failed op in the
checkout fails the gate.  Pairs run on one machine at one time, so no
figure is normalized::

    python tools/perf_gate.py    # exit 0 or 1

``REFERENCE`` is bumped to the re-anchor commit at each re-anchor.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The last re-anchor: a pinned tree that catches creep no single pair shows.
REFERENCE = "1992a25"
CANDIDATE = "checkout"
WORKLOADS = ("generate_catalog", "validate_corpus", "serve_mixed")
LATENCIES = ("latency_p50_ms", "latency_p95_ms")
SEED = 1
#: Rounds (pairs per compared tree) and the length of each run in seconds.
ROUNDS = 5
SECONDS = 2
#: Median paired latency ratio above which a workload is annotated, and
#: above which it fails if the checkout also won at most ``FAIL_WINS`` pairs.
#: On unchanged trees the median ratios read 0.90-1.10 (10 runs, CHANGES.md).
WARN_RATIO = 1.1
FAIL_RATIO = 1.15
FAIL_WINS = 1


def git(*args: str) -> bytes:
    """The output of ``git args`` in this repository."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"git {args[0]}: {done.stderr.decode(errors='replace').strip()}")
    return done.stdout


def commit(rev: str) -> str:
    """The full id of the commit ``rev`` names."""
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def extract(commit_id: str, into: Path) -> Path:
    """The files of ``commit_id``, written under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit_id))) as archive:
        archive.extractall(into, filter="data")
    return into


def run_perfbench(tree: Path, workload: str, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``tree``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} in {tree} exited {done.returncode} "
                           "without a result")
    return json.loads(lines[-1])


def measure(trees: dict[str, Path]) -> dict[str, dict[str, dict]]:
    """Per workload and tree, ``ROUNDS`` untraced results ("plain") and one traced."""
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = {name: {"plain": []} for name in trees}
        for number in range(ROUNDS):
            for name in list(trees) if number % 2 == 0 else reversed(trees):
                runs[workload][name]["plain"].append(run_perfbench(trees[name], workload, 0))
        for name, tree in trees.items():
            runs[workload][name]["traced"] = run_perfbench(tree, workload, 1)
    return runs


def paired(candidate: list[dict], other: list[dict], name: str) -> tuple[float, int]:
    """The median ratio candidate ÷ other of metric ``name``, and the candidate's wins."""
    pairs = [(mine["metrics"][name]["value"], theirs["metrics"][name]["value"])
             for mine, theirs in zip(candidate, other)]
    return statistics.median(mine / theirs for mine, theirs in pairs), sum(
        mine < theirs for mine, theirs in pairs)


def moved_layer(candidate: dict, other: dict) -> str:
    """The traced layer time of ``candidate`` that rose most against ``other``.

    Each tree has one traced run, and the machine's speed can change
    between two of them, so each layer time is taken as a share of its own
    run's ``runtime.calibration_ms`` (a fixed piece of work timed in the
    same run) before the two runs are compared: a machine that runs the
    whole second run at half speed moves no layer."""
    def layers(result: dict) -> dict[str, float]:
        metrics = result["metrics"]
        calibration = metrics.get("runtime.calibration_ms", {}).get("value") or 1.0
        return {name: metric["value"] / calibration for name, metric in metrics.items()
                if metric["unit"] == "ms" and not name.startswith("runtime.") and metric["value"] > 0}

    base, now = layers(other), layers(candidate)
    ratios = {name: now[name] / base[name] for name in base.keys() & now.keys()}
    name = max(sorted(ratios), key=ratios.__getitem__, default=None)
    if name is None:
        return "no traced layer to compare"
    return f"layer that rose most: {name} ({ratios[name] - 1:+.0%} in one traced run)"


def compare(runs: dict[str, dict[str, dict]], baselines: dict[str, str]) -> tuple[list[str], bool]:
    """Report lines (GitHub annotations where due) and whether the gate fails;
    ``baselines`` maps "parent" and "reference" to the tree names in ``runs``."""
    lines: list[str] = []
    failed = False
    for workload, trees in runs.items():
        mine = trees[CANDIDATE]
        results = [*mine["plain"], mine["traced"]]
        if any(not result["correct"] or result["failed"] for result in results):
            failed_ops = sum(result["failed"] for result in results)
            lines.append(f"::error title=perf gate::{workload}: incorrect output, {failed_ops} failed op(s)")
            failed = True
        for label, name in baselines.items():
            figures = {metric: paired(mine["plain"], trees[name]["plain"], metric) for metric in LATENCIES}
            line = f"{workload} vs {label} {name[:7]}: " + ", ".join(
                f"{metric} x{ratio:.3f} ({wins}/{len(mine['plain'])} wins)"
                for metric, (ratio, wins) in figures.items())
            moved = moved_layer(mine["traced"], trees[name]["traced"])
            if any(ratio > FAIL_RATIO and wins <= FAIL_WINS for ratio, wins in figures.values()):
                line = f"::error title=perf regression::{line}; {moved}"
                failed = True
            elif any(ratio > WARN_RATIO for ratio, _ in figures.values()):
                line = f"::warning title=perf soft-fail::{line}; {moved}"
            lines.append(line)
    return lines, failed


def main() -> int:
    started = time.perf_counter()
    try:
        baselines = {"parent": commit("HEAD^"), "reference": commit(REFERENCE)}
        with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
            trees = {CANDIDATE: ROOT} | {
                name: extract(name, Path(scratch) / name) for name in dict.fromkeys(baselines.values())}
            runs = measure(trees)
    except (RuntimeError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    lines, failed = compare(runs, baselines)
    print("\n".join(lines))
    print(f"perf gate {'FAILED' if failed else 'passed'} in {time.perf_counter() - started:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
