"""Pipeline observability: tracing spans, metrics, profiling, loggers.

Zero-dependency, stdlib-only.  Its parts:

* :mod:`repro.obs.trace` -- hierarchical :class:`Span` context managers
  (wall + thread-CPU time) collected by a :class:`Tracer` that keeps the
  last finished root spans in a bounded ring,
* :mod:`repro.obs.metrics` -- named counters, gauges and histogram timers
  with a deterministic ``snapshot()`` / ``render_text()`` /
  ``render_json()`` reporting API,
* :mod:`repro.obs.prof` -- deterministic call-tree :class:`Profile`
  aggregation over finished spans with top-N table, JSON and
  collapsed-stack ("flamegraph") renderings plus an optional
  :mod:`cProfile` attach,
* :mod:`repro.obs.export` -- Prometheus text exposition of the metrics
  registry (``GET /metrics`` on the serve daemon) plus a stdlib parser
  and bucket-series quantile estimation for scrape consumers,
* :mod:`repro.obs.runtime` -- a background :class:`RuntimeCollector`
  publishing process gauges (RSS, GC, threads, fds, uptime) and running
  registered hooks on its cadence,
* :mod:`repro.obs.logging_bridge` -- standard :mod:`logging` loggers for
  the pipeline, quiet by default,
* :mod:`repro.obs.propagation` -- W3C trace-context (``traceparent`` /
  ``tracestate``) parsing, rendering, and an ambient
  :class:`TraceContext` carried across threads via :mod:`contextvars`,
* :mod:`repro.obs.jsonl` -- :class:`JsonlRing`, the bounded JSON-lines
  store behind the access log, the alert log and the slow-capture index,
* :mod:`repro.obs.slo` -- declarative :class:`SloSpec` objectives
  evaluated by a multi-window burn-rate :class:`SloEngine`, with alert
  transitions recorded to an :class:`AlertLog` store,
* :mod:`repro.obs.query` -- offline filters over the serve daemon's
  JSONL artifacts (access and alert logs with their rotated
  generations, slow captures) backing the ``upcc obs query`` subcommand.

Everything is off by default and costs one attribute check per
instrumented site.  Turn it on with::

    import repro.obs

    tracer = repro.obs.configure(trace=True)
    ... run the pipeline ...
    print(tracer.render_tree())
    print(repro.obs.get_metrics().render_text())

or from the CLI with ``upcc --trace --metrics-out metrics.json ...`` and
``upcc stats``.  The metric name catalog and the span record are documented
in ``docs/observability.md``.
"""

from __future__ import annotations

from collections import deque

from repro.obs.logging_bridge import PIPELINE_LOGGERS, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    quantile_from_buckets,
    render_prometheus,
)
from repro.obs.prof import (
    Profile,
    ProfileNode,
    build_profile,
    cprofile_session,
    cprofile_stats_text,
    profile_from_tracer,
    to_trace_events,
)
from repro.obs.propagation import (
    TRACEPARENT_HEADER,
    TRACESTATE_HEADER,
    TraceContext,
    current_trace_context,
    parse_traceparent,
    parse_tracestate,
    render_traceparent,
    render_tracestate,
    use_trace_context,
)
from repro.obs.jsonl import JsonlRing
from repro.obs.query import query_jsonl, query_slow_captures
from repro.obs.runtime import RuntimeCollector, sample_runtime
from repro.obs.slo import (
    DEFAULT_SLOS,
    Alert,
    AlertLog,
    SloEngine,
    SloSpec,
    SloStatus,
    load_slo_specs,
)
from repro.obs.trace import Span, Tracer, get_tracer, set_tracer, span


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (alias of :func:`get_registry`)."""
    return get_registry()


def configure(
    *, trace: bool = True, ring_capacity: int = 1024, reset_metrics: bool = False
) -> Tracer:
    """Set up the process-global observability state; returns the tracer.

    ``trace`` toggles span collection; when on, the tracer keeps the last
    ``ring_capacity`` finished root spans in a fresh :attr:`Tracer.roots`
    ring.  ``reset_metrics`` clears the registry first, giving a run a
    clean snapshot.
    """
    tracer = get_tracer()
    tracer.enabled = trace
    tracer.roots = deque(maxlen=ring_capacity) if trace else None
    if reset_metrics:
        get_registry().reset()
    return tracer


def disable() -> None:
    """Turn tracing off and drop the ring (metrics keep counting)."""
    configure(trace=False)


__all__ = [
    "Alert",
    "AlertLog",
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "JsonlRing",
    "MetricsRegistry",
    "PIPELINE_LOGGERS",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "Profile",
    "ProfileNode",
    "RuntimeCollector",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "Span",
    "TRACEPARENT_HEADER",
    "TRACESTATE_HEADER",
    "TraceContext",
    "Tracer",
    "build_profile",
    "configure",
    "counter",
    "cprofile_session",
    "cprofile_stats_text",
    "current_trace_context",
    "disable",
    "gauge",
    "load_slo_specs",
    "parse_prometheus_text",
    "parse_traceparent",
    "parse_tracestate",
    "profile_from_tracer",
    "get_logger",
    "get_metrics",
    "get_registry",
    "get_tracer",
    "histogram",
    "quantile_from_buckets",
    "query_jsonl",
    "query_slow_captures",
    "render_prometheus",
    "render_traceparent",
    "render_tracestate",
    "sample_runtime",
    "set_registry",
    "set_tracer",
    "span",
    "to_trace_events",
    "use_trace_context",
]
