"""The repository benchmark: one workload per invocation, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload generate_catalog --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off); ``--trace 1``
is the separate traced run that measures the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``);
the full result, plus the span records and per-layer self times of a
traced run, is also written to ``perfbench/results/``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
import traceback
from pathlib import Path
from statistics import median

from measure import CALIBRATION_REF_MS, GcMeter, Spans, calibrate_ms, no_span, percentile

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("generate_catalog", "validate_corpus", "serve_mixed")
SETUP_REPEATS = 9
#: Largest disagreement between the calibrations before and after an op,
#: as a share of the smaller, for its scaled latency to count.
MAX_CALIBRATION_DRIFT = 0.2
#: Smallest share of steady ops for a run's figures to be comparable.
MIN_STEADY_SHARE = 0.5
#: Calibrations before and after the loop of a workload that is not scaled.
EDGE_CALIBRATIONS = 5
#: Pairs of cold-pipeline ops in the ``obs.trace_overhead_ratio`` arm.
OBS_OVERHEAD_PAIRS = 16

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, printed by every traced run.  A layer the
#: workload never calls reads 0.
PER_LAYER_UNITS = {
    "xmi.read_ms": "ms",
    "xmi.elements": "count",
    "validation.validate_ms": "ms",
    "validation.findings": "count",
    "xsdgen.generate_ms": "ms",
    "xsdgen.schemas": "count",
    "xsdgen.provenance_records": "count",
    "xsd.write_ms": "ms",
    "xsd.output_bytes": "B",
    "xsd.compile_ms": "ms",
    "instances.compile_hit_ratio": "ratio",
    "instances.validate_doc_ms": "ms",
    "instances.docs_per_s": "1/s",
    "instances.bytes_per_s": "B/s",
    "instances.invalid_share": "ratio",
    "serve.client_ttfb_ms": "ms",
    "serve.client_body_ms": "ms",
    "serve.client_request_ms.validate": "ms",
    "serve.client_request_ms.generate": "ms",
    "serve.server_request_ms.validate": "ms",
    "serve.server_request_ms.generate": "ms",
    "serve.gap_ms.validate": "ms",
    "serve.gap_ms.generate": "ms",
    "serve.model_cache_hit_ratio": "ratio",
    "serve.retries_503": "count",
    "runtime.gc_ms": "ms",
    "runtime.gc_share": "ratio",
    "runtime.calibration_ms": "ms",
    "runtime.steady_share": "ratio",
    "bench.span_overhead_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}


class LoopResult:
    """One closed-loop run: per op, its latency and the machine's speed."""

    def __init__(self, clients: int, normalize: bool) -> None:
        self.clients = clients
        self.normalize = normalize
        self.latencies_ms: list[float] = []
        #: for a scaled workload, per op, the calibration time around it:
        #: the mean of the client's samples taken just before and just
        #: after the op; otherwise a few samples before and after the loop
        self.calibration_ms: list[float] = []
        #: per op, whether those two samples agree within MAX_CALIBRATION_DRIFT
        #: (always for a workload that is not scaled)
        self.steady: list[bool] = []
        #: per traced pass: its normalized time / the untraced pass before it
        self.span_ratios: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.lock = threading.Lock()

    def scaled_ms(self) -> list[float]:
        """Per op, its latency at the reference machine speed (as measured
        for a workload that is not scaled)."""
        if not self.normalize:
            return list(self.latencies_ms)
        return [
            ms * CALIBRATION_REF_MS / calibration
            for ms, calibration in zip(self.latencies_ms, self.calibration_ms)
        ]

    def steady_share(self) -> float:
        return sum(self.steady) / len(self.steady)

    def comparable(self) -> bool:
        """Whether enough ops were steady for the figures to compare with
        other runs' (see NOTES.md, "Machine speed")."""
        return self.steady_share() >= MIN_STEADY_SHARE

    def normalized_ms(self) -> list[float]:
        """Latencies of the steady ops at the reference machine speed.

        A scaled workload keeps only ops whose machine speed held steady
        across them: when the calibrations before and after disagree, the
        speed changed mid-op and the op's scaled time is unknowable.  The
        machine's speed does not depend on what the op does, so this drops
        no kind of op in particular.  Failed ops are always kept.  With no
        steady op at all every op is used; such a run is not
        :meth:`comparable`, and says so.
        """
        scaled = self.scaled_ms()
        return [ms for ms, steady in zip(scaled, self.steady) if steady] or scaled

    def throughput(self) -> float:
        """Ops per second the clients sustain (at the reference speed).

        Little's law for a closed loop: clients / mean latency, so the
        benchmark's own checks and calibration between ops do not count.
        """
        latencies = self.normalized_ms()
        return self.clients * 1000.0 * len(latencies) / sum(latencies)


def closed_loop(workload, seconds: float, spans) -> LoopResult:
    """Each client runs whole passes over its input list until the deadline.

    For a scaled workload the client times :func:`calibrate_ms` before
    each op (and once after the last), so every latency can be put at the
    reference machine speed of the moment it ran; other workloads
    calibrate only before and after the loop.  In a traced run
    (``spans`` given) odd passes are traced and even passes are not; each
    traced pass is compared with the untraced pass just before it, on the
    same inputs, to price the spans.  A failed op is charged the whole run
    length, so it misses every latency limit.
    """
    inputs = workload.inputs()
    result = LoopResult(len(inputs), workload.normalize)
    deadline = time.perf_counter() + seconds

    def client(items: list) -> None:
        records = []  # (pass, latency ms, calibration ms before the op, failed)
        passes = 0
        while True:
            traced = spans is not None and passes % 2 == 1
            span = spans.span if traced else no_span
            for item in items:
                calibration = calibrate_ms() if result.normalize else CALIBRATION_REF_MS
                failed = False
                try:
                    elapsed_ms = workload.op(item, span, traced)
                except Exception as error:  # noqa: BLE001 -- every failure is counted
                    elapsed_ms = seconds * 1000.0
                    failed = True
                    with result.lock:
                        result.failed += 1
                        if len(result.errors) < 5:
                            result.errors.append(
                                "".join(traceback.format_exception_only(type(error), error)).strip()
                            )
                records.append((passes, elapsed_ms, calibration, failed))
            passes += 1
            if time.perf_counter() >= deadline:
                break
        # An unscaled workload's ops "ran at the reference speed": factor 1.
        tail = calibrate_ms() if result.normalize else CALIBRATION_REF_MS
        samples = [record[2] for record in records] + [tail]
        around = [(before + after) / 2.0 for before, after in zip(samples, samples[1:])]
        steady = [
            failed or abs(before - after) <= MAX_CALIBRATION_DRIFT * min(before, after)
            for before, after, (_pass, _ms, _sample, failed) in zip(samples, samples[1:], records)
        ]
        pass_ms: dict[int, float] = {}
        for (number, ms, _before, _failed), calibration in zip(records, around):
            pass_ms[number] = pass_ms.get(number, 0.0) + ms * CALIBRATION_REF_MS / calibration
        with result.lock:
            result.attempted += len(records)
            result.latencies_ms.extend(record[1] for record in records)
            if result.normalize:
                result.calibration_ms.extend(around)
            result.steady.extend(steady)
            if spans is not None:
                result.span_ratios.extend(
                    pass_ms[number] / pass_ms[number - 1]
                    for number in pass_ms if number % 2 == 1
                )

    # An unscaled workload's machine speed is read only around the loop.
    edges = [] if result.normalize else [calibrate_ms() for _ in range(EDGE_CALIBRATIONS)]
    if len(inputs) == 1:
        client(inputs[0])
    else:
        threads = [threading.Thread(target=client, args=(items,)) for items in inputs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if not result.normalize:
        result.calibration_ms = edges + [calibrate_ms() for _ in range(EDGE_CALIBRATIONS)]
    return result


def timed_setup(workload, seed: int) -> float:
    """One set-up's wall time in s at the reference machine speed, from
    calibrations just before and just after it.  Every workload's set-up
    is CPU work (building catalogs, or starting a server and generating
    cold), so every one is scaled.  What the previous set-up left running
    is released first, outside the clock."""
    workload.close()
    before = calibrate_ms()
    started = time.perf_counter()
    workload.setup(seed)
    elapsed = time.perf_counter() - started
    return elapsed * CALIBRATION_REF_MS * 2.0 / (before + calibrate_ms())


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import make, obs_trace_overhead

    workload = make(name, ROOT)
    try:
        workload.prepare(seed)
        setup_s = [timed_setup(workload, seed) for _ in range(SETUP_REPEATS)]
        workload.check_setup(seed)
        spans = Spans() if trace else None
        # Set-up state is immortal for the collector: a collection in the
        # loop scans what the ops allocate, not the benchmark's inputs and
        # references (see NOTES.md, "GC modes").
        gc.collect()
        gc.freeze()
        with GcMeter() as gc_meter:
            workload.begin()
            loop_started = time.perf_counter()
            loop = closed_loop(workload, seconds, spans)
            loop_s = time.perf_counter() - loop_started
            workload.end()
        peak_rss = workload.peak_rss_mb()
        if trace:
            self_times = spans.self_times_ms()
            values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
            values.update(workload.layer_metrics(self_times))
            values["runtime.gc_ms"] = gc_meter.pause_s * 1000.0
            values["runtime.gc_share"] = gc_meter.pause_s / loop_s
            values["runtime.calibration_ms"] = median(loop.calibration_ms)
            values["runtime.steady_share"] = loop.steady_share()
            if loop.span_ratios:
                values["bench.span_overhead_ratio"] = median(loop.span_ratios)
            gc.collect()
            values["obs.trace_overhead_ratio"] = obs_trace_overhead(
                workload.catalogs(), OBS_OVERHEAD_PAIRS
            )
            units = PER_LAYER_UNITS
        else:
            latencies = loop.normalized_ms()
            values = {
                "throughput_ops_s": loop.throughput(),
                "latency_p50_ms": percentile(latencies, 50),
                "latency_p95_ms": percentile(latencies, 95),
                "setup_s": median(setup_s),
                "peak_rss_mb": peak_rss,
            }
            units = END_TO_END_UNITS
    finally:
        workload.close()
    for error in loop.errors:
        print(f"op failed: {error}", file=sys.stderr)
    print(f"steady ops: {sum(loop.steady)} of {len(loop.steady)}", file=sys.stderr)
    if not loop.comparable():
        print(f"warning: fewer than {MIN_STEADY_SHARE:.0%} of the ops ran at a steady "
              "machine speed; this run's figures are not comparable", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "result": result,
              "setup_runs_s": setup_s, "raw_latencies_ms": loop.latencies_ms,
              "calibration_ms": loop.calibration_ms, "steady": loop.steady,
              "steady_share": loop.steady_share(), "comparable": loop.comparable()}
    if trace:
        record["self_time_ms"] = {key: median(v) for key, v in sorted(self_times.items())}
        record["spans"] = spans.to_json()
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed pinned by golden.json)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from catalog import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
