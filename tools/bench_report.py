#!/usr/bin/env python
"""The perf-trajectory tool: bench medians, history, baseline compare, profiles.

Runs the easybiz catalog's end-to-end generation in two arms --

* **cold** -- a fresh :class:`SchemaGenerator` per run, no cache,
* **warm** -- fresh generators sharing a pre-warmed
  :class:`~repro.xsdgen.cache.GenerationCache` (a second CLI invocation
  or long-lived service),

and writes ``BENCH_end_to_end.json``: per-arm median milliseconds over
``--repeats`` runs plus schema/byte counts.  Beyond the snapshot report
it maintains the *trajectory*:

* every run appends one JSON line (report + UTC timestamp + git commit)
  to ``BENCH_history.jsonl`` (``--history FILE`` / ``--no-history``), so
  the full perf history of a checkout accretes locally and as a CI
  artifact;
* ``--baseline FILE`` compares the fresh numbers to a committed report
  with a configurable ``--tolerance`` (soft) -- the hard CI gate lives in
  ``tools/check_perf_regression.py``, which reuses the same comparison;
* ``--profile-out FILE`` re-runs each arm once under tracing *after* the
  timed passes (timings stay uninstrumented) and writes the span-tree
  profile in ``--profile-format`` table/json/collapsed form.

Run directly::

    python tools/bench_report.py [--repeats N] [--out FILE]
        [--baseline BENCH_end_to_end.json] [--tolerance PCT]
        [--profile-out profile.folded] [--profile-format collapsed]
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_perf_regression import compare_reports, render_deltas  # noqa: E402

from repro.catalog import build_easybiz_model  # noqa: E402
from repro.xsdgen import GenerationCache, GenerationOptions, SchemaGenerator  # noqa: E402

ROOT_NAME = "HoardingPermit"
INSTANCE_CORPUS_SIZE = 200
SERVE_REQUESTS = 60
SERVE_CONCURRENCY = 8
SERVE_DOCS_PER_REQUEST = 4


def _timed(fn, repeats: int) -> tuple[float, object]:
    """(median seconds, last result) of ``repeats`` timed calls."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _arm_stats(result) -> dict:
    texts = [generated.to_string() for generated in result.schemas.values()]
    return {
        "schemas": len(result.schemas),
        "bytes": sum(len(text.encode("utf-8")) for text in texts),
        "provenance_records": len(result.provenance),
    }


def _arms() -> list[tuple[str, object]]:
    """The named, closed-over arm callables (building their fixtures)."""
    catalog = build_easybiz_model()
    model = catalog.model
    library = catalog.doc_library

    cold_options = GenerationOptions(validate_first=False)

    def cold():
        return SchemaGenerator(model, cold_options).generate(library, root=ROOT_NAME)

    cache = GenerationCache()
    warm_options = GenerationOptions(validate_first=False, use_cache=True)
    SchemaGenerator(model, warm_options, cache=cache).generate(library, root=ROOT_NAME)

    def warm():
        return SchemaGenerator(model, warm_options, cache=cache).generate(
            library, root=ROOT_NAME
        )

    return [("cold", cold), ("warm_cache", warm)]


def _instance_arms(corpus_root: Path) -> list[tuple[str, object]]:
    """The instance-validation arm over a generated 200-document corpus.

    The compiled pipeline's side of ``benchmarks/bench_instance_throughput.py``.
    """
    from repro.instances import InstanceGenerator, ValidationPipeline, add_unknown_child
    from repro.xmlutil.writer import XmlWriter

    catalog = build_easybiz_model()
    result = SchemaGenerator(catalog.model, GenerationOptions()).generate(
        catalog.doc_library, root=ROOT_NAME
    )
    schema_set = result.schema_set()
    corpus = corpus_root / "instance_corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    writer = XmlWriter()
    for index in range(INSTANCE_CORPUS_SIZE):
        generator = InstanceGenerator(
            schema_set, fill_optional=True, repeat_unbounded=3 + index % 3
        )
        document = generator.generate(ROOT_NAME)
        if index % 40 == 39:
            add_unknown_child(document)
        (corpus / f"doc{index:04d}.xml").write_text(
            writer.to_string(document), encoding="utf-8"
        )

    pipeline = ValidationPipeline(schema_set)
    return [("validate_compiled_serial", lambda: pipeline.run(corpus))]


def _instance_arm_stats(report) -> dict:
    return {"docs": report.docs_total, "invalid": report.docs_invalid}


def _serve_arm(repeats: int) -> dict:
    """The ``serve_validate`` arm: a fixed /validate load run, end to end.

    Boots an in-process :class:`~repro.serve.UpccServer`, registers the
    easybiz schema set over the wire, then times ``SERVE_REQUESTS``
    concurrent requests per repeat -- HTTP framing, queue admission and
    worker handoff are all inside the timed region.  ``median_ms`` is the
    wall time of one whole load run; ``rps``/``p95_ms`` ride along as
    informational stats (latency-derived, so never drift-noted by the
    gate; the sub-millisecond noise floor does not apply at this scale).
    """
    import statistics as stats_module

    from repro.instances import InstanceGenerator
    from repro.serve import ServeApp, ServeConfig, UpccServer
    from repro.serve.loadgen import request_json, run_load, scrape_server_quantiles

    catalog = build_easybiz_model()
    result = SchemaGenerator(
        catalog.model, GenerationOptions(validate_first=False)
    ).generate(catalog.doc_library, root=ROOT_NAME)
    schema_set = result.schema_set()
    generator = InstanceGenerator(schema_set, fill_optional=True)
    instance = generator.generate_string(ROOT_NAME)
    config = ServeConfig(workers=8, queue_size=256, timeout_s=60)
    with UpccServer(ServeApp(), config) as server:
        status, registered = request_json(
            server.url,
            "/validate",
            {
                "schemas": [item.to_string() for item in result.schemas.values()],
                "documents": ["<warmup/>"],
            },
        )
        if status != 200:
            raise RuntimeError(f"serve warmup failed: {registered}")
        payload = {
            "schema_set": registered["schema_set"],
            "documents": [
                {"name": f"doc{index}.xml", "xml": instance}
                for index in range(SERVE_DOCS_PER_REQUEST)
            ],
        }
        times = []
        outcome = None
        for _ in range(repeats):
            outcome = run_load(
                server.url, "/validate", payload,
                requests=SERVE_REQUESTS, concurrency=SERVE_CONCURRENCY,
            )
            if outcome.ok != SERVE_REQUESTS or outcome.dropped:
                raise RuntimeError(f"serve load run degraded: {outcome.to_json()}")
            times.append(outcome.elapsed_s)
        # Server-side tail from the bucketed /metrics exposition: the
        # daemon's own view of /validate latency, queue wait included but
        # client/network time excluded.
        server_side = scrape_server_quantiles(
            server.url, labels={"endpoint": "validate"}
        )
    arm = {
        "median_ms": round(stats_module.median(times) * 1000.0, 3),
        "requests": SERVE_REQUESTS,
        "rps": round(SERVE_REQUESTS / stats_module.median(times), 1),
        "p95_ms": round(outcome.percentile(95), 3),
        "p99_ms": round(outcome.percentile(99), 3),
    }
    if server_side is not None:
        arm["server_p50_ms"] = server_side["p50"]
        arm["server_p99_ms"] = server_side["p99"]
    return arm


def run_report(repeats: int) -> dict:
    """Measure all arms; returns the JSON-ready report."""
    import tempfile

    arms = {}
    for name, fn in _arms():
        median_s, result = _timed(fn, repeats)
        arms[name] = {"median_ms": round(median_s * 1000.0, 3), **_arm_stats(result)}
    with tempfile.TemporaryDirectory(prefix="bench_instances_") as corpus_root:
        for name, fn in _instance_arms(Path(corpus_root)):
            median_s, result = _timed(fn, repeats)
            arms[name] = {
                "median_ms": round(median_s * 1000.0, 3),
                **_instance_arm_stats(result),
            }
    arms["serve_validate"] = _serve_arm(repeats)
    return {
        "benchmark": "end_to_end_generation",
        "catalog": "easybiz",
        "root": ROOT_NAME,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "arms": arms,
    }


def write_profile(path: Path, format: str) -> dict:
    """One traced pass per arm -> a span-tree profile file; returns summary.

    Runs *after* the timed passes so tracing overhead never touches the
    reported medians.
    """
    import tempfile

    import repro.obs as obs
    from repro.obs.prof import profile_from_tracer

    tracer = obs.configure(trace=True, ring_capacity=8192, reset_metrics=True)
    try:
        for _, fn in _arms():
            fn()
        with tempfile.TemporaryDirectory(prefix="bench_instances_") as corpus_root:
            for _, fn in _instance_arms(Path(corpus_root)):
                fn()
        profile = profile_from_tracer(tracer)
        path.write_text(profile.render(format, top=40) + "\n", encoding="utf-8")
    finally:
        obs.disable()
    return {"spans": profile.span_count, "paths": len(profile.nodes)}


def _git_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def append_history(path: Path, report: dict) -> None:
    """Append one trajectory line: the report stamped with time and commit."""
    entry = dict(report)
    entry["recorded_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    commit = _git_commit()
    if commit:
        entry["git_commit"] = commit
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Entry point; writes the report and prints a one-line summary per arm."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per arm (default 7)")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_end_to_end.json"),
        help="report file (default: BENCH_end_to_end.json at the repo root)",
    )
    parser.add_argument(
        "--history",
        default=str(REPO_ROOT / "BENCH_history.jsonl"),
        help="trajectory file to append this run to (default: BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--no-history", action="store_true", help="skip appending to the history file"
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="compare the fresh medians against this committed report",
    )
    parser.add_argument(
        "--tolerance", type=float, default=30.0,
        help="soft tolerance in percent for --baseline comparison (default 30)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        help="also write a span-tree profile of one traced pass per arm",
    )
    parser.add_argument(
        "--profile-format", choices=["table", "json", "collapsed"], default="collapsed",
        help="profile rendering for --profile-out (default: collapsed flamegraph stacks)",
    )
    args = parser.parse_args(argv)
    report = run_report(max(1, args.repeats))
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, arm in report["arms"].items():
        if "rps" in arm:
            print(
                f"{name}: {arm['median_ms']:.3f}ms median, {arm['requests']} "
                f"request(s), {arm['rps']:.1f} req/s, p95 {arm['p95_ms']:.3f}ms"
            )
        elif "docs" in arm:
            print(
                f"{name}: {arm['median_ms']:.3f}ms median, {arm['docs']} doc(s), "
                f"{arm['invalid']} invalid"
            )
        else:
            print(
                f"{name}: {arm['median_ms']:.3f}ms median, {arm['schemas']} schema(s), "
                f"{arm['bytes']} bytes, {arm['provenance_records']} provenance record(s)"
            )
    print(f"wrote {out}")
    if not args.no_history:
        history = Path(args.history)
        append_history(history, report)
        print(f"appended to {history}")
    if args.profile_out:
        profile_path = Path(args.profile_out)
        summary = write_profile(profile_path, args.profile_format)
        print(
            f"wrote {args.profile_format} profile ({summary['spans']} span(s), "
            f"{summary['paths']} path(s)) to {profile_path}"
        )
    if args.baseline:
        try:
            baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            print(f"error: cannot read baseline {args.baseline}: {error}", file=sys.stderr)
            return 1
        print(f"== trajectory vs {args.baseline} (soft tolerance {args.tolerance:.0f}%) ==")
        print(
            render_deltas(
                compare_reports(
                    baseline, report,
                    warn_pct=args.tolerance, fail_pct=float("inf"),
                )
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
