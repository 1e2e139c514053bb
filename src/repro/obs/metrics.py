"""A process-wide metrics registry: counters, gauges and histogram timers.

Instruments are created lazily and keyed by ``name`` plus sorted labels
(``validation.rule_ms{rule=UPCC-P01}``), so instrumented code never has to
pre-register anything::

    from repro.obs.metrics import counter, histogram

    counter("xsdgen.schemas_generated").inc()
    with histogram("validation.rule_ms", rule=code).time():
        run_rule()

Every instrument carries its *own* lock, so two counters incremented from
different serve connection threads never contend with each other; the
registry lock is only taken on the first lookup of a call shape and while
snapshotting.  A repeat lookup is answered from a dict keyed on the
call's arguments, so the rendered key is built once per shape.
Histograms additionally bucket every observation into a fixed log-scale
latency ladder (:data:`DEFAULT_BUCKETS`, milliseconds), from which
``to_dict()`` derives p50/p90/p99 estimates and
:meth:`MetricsRegistry.render_prometheus` builds a cumulative
``_bucket{le=...}`` exposition (see :mod:`repro.obs.export`).

The registry is thread-safe, always on (increments are two dict lookups
and an integer add -- cheap enough to leave enabled permanently), and
exposes :meth:`MetricsRegistry.snapshot` / ``render_text`` /
``render_json`` / ``render_prometheus`` for reporting.  Snapshots are
deterministic: keys are sorted, histogram aggregates are rounded.
Registering the same name as two different instrument kinds raises
instead of silently shadowing one with the other.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.export import quantile_from_buckets

#: Fixed log-scale latency bucket upper bounds, in milliseconds.  A
#: 1-2.5-5 ladder from 50 microseconds to 10 seconds: wide enough for
#: everything from a warm cache hit to a cold 200-document validate, and
#: fixed so two processes' bucket counts can be merged sample by sample.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Characters that would make ``name{key=value,...}`` keys ambiguous if
#: they appeared raw inside a label value.
_LABEL_ESCAPES = {
    "\\": "\\\\",
    "=": "\\=",
    ",": "\\,",
    "{": "\\{",
    "}": "\\}",
    "\n": "\\n",
    "\r": "\\r",
}
_LABEL_ESCAPE_TABLE = str.maketrans(_LABEL_ESCAPES)
_LABEL_SPECIALS = tuple(_LABEL_ESCAPES)


def escape_label_value(value: Any) -> str:
    """``value`` as a string with key-structural characters backslash-escaped.

    ``=``, ``,``, ``{``, ``}``, newlines and the backslash itself would
    make ``name{key=value}`` keys ambiguous (two different label sets
    could collide on one key, corrupting both series); escaping keeps the
    key unambiguous *and* reversible.
    """
    text = str(value)
    for special in _LABEL_SPECIALS:
        if special in text:
            return text.translate(_LABEL_ESCAPE_TABLE)
    return text


#: Human-readable descriptions keyed by *base* metric name (the dotted
#: name, without labels).  Process-wide rather than per-registry because a
#: description explains what a metric name *means* — that meaning does not
#: change when tests swap in a fresh registry.  Rendered as ``# HELP``
#: lines by :mod:`repro.obs.export`.
_DESCRIPTIONS: dict[str, str] = {}


def describe(name: str, text: str) -> None:
    """Attach a human-readable description to metric ``name``.

    Modules that own a metric call this once at import time; the
    Prometheus exposition then emits the text as the family's ``# HELP``
    line instead of the generic fallback.
    """
    _DESCRIPTIONS[name] = text


def description_of(name: str) -> str | None:
    """The registered description for ``name``, or ``None``."""
    return _DESCRIPTIONS.get(name)


def _metric_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    if len(labels) == 1:
        [(key, value)] = labels.items()
        return f"{name}{{{key}={escape_label_value(value)}}}"
    rendered = ",".join(
        f"{key}={escape_label_value(labels[key])}" for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def _call_key(name: str, labels: dict[str, Any]) -> tuple:
    """What a lookup's arguments are keyed on before any rendering.

    The label types are part of it: ``code=1`` and ``code=True`` are equal
    and hash alike but render different keys, so they must not share.
    """
    return (name, *labels.items(), *map(type, labels.values()))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "base_name", "labels", "value", "_lock")

    def __init__(self, name: str, base_name: str | None = None,
                 labels: dict[str, Any] | None = None) -> None:
        self.name = name
        self.base_name = base_name if base_name is not None else name
        self.labels = dict(labels or {})
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, memo size, ...)."""

    __slots__ = ("name", "base_name", "labels", "value", "_lock")

    def __init__(self, name: str, base_name: str | None = None,
                 labels: dict[str, Any] | None = None) -> None:
        self.name = name
        self.base_name = base_name if base_name is not None else name
        self.labels = dict(labels or {})
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1)."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` (default 1)."""
        self.inc(-amount)


class Exemplar:
    """One traced observation pinned to a histogram bucket.

    Links an aggregate bucket count back to a concrete request: the
    OpenMetrics exposition renders it after the ``_bucket`` sample as
    ``# {trace_id="...",request_id="..."} value timestamp`` so a scrape
    of a p99 bucket names a trace that can be looked up in ``/slow``.
    """

    __slots__ = ("trace_id", "request_id", "value", "ts")

    def __init__(self, trace_id: str, request_id: str, value: float,
                 ts: float | None = None) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.value = value
        self.ts = time.time() if ts is None else ts

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (``/slow`` lookups, telemetry queries)."""
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "value": round(self.value, 6),
            "ts": round(self.ts, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Exemplar(trace_id={self.trace_id!r}, "
            f"request_id={self.request_id!r}, value={self.value!r})"
        )


class Histogram:
    """Aggregates observations into count/sum/min/max plus log-scale buckets.

    Observations (milliseconds for timers) land in the fixed
    :data:`DEFAULT_BUCKETS` ladder; the final slot counts everything above
    the last bound (the ``+Inf`` bucket of the Prometheus exposition).
    Quantiles are estimated by linear interpolation inside the target
    bucket, clamped to the observed min/max so a single observation
    reports itself exactly.

    Buckets optionally carry an :class:`Exemplar`: when ``observe`` is
    handed one, the target bucket keeps the *most recent* traced
    observation, giving every populated latency bucket a concrete
    trace/request to chase.
    """

    __slots__ = (
        "name", "base_name", "labels", "count", "total", "min", "max",
        "bucket_counts", "exemplars", "_lock",
    )

    #: Upper bounds shared by every histogram (fixed => mergeable).
    buckets: tuple[float, ...] = DEFAULT_BUCKETS

    def __init__(self, name: str, base_name: str | None = None,
                 labels: dict[str, Any] | None = None) -> None:
        self.name = name
        self.base_name = base_name if base_name is not None else name
        self.labels = dict(labels or {})
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: Per-bucket (non-cumulative) observation counts; the extra
        #: trailing slot is the overflow (+Inf) bucket.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        #: Most recent traced observation per bucket (None when untraced).
        self.exemplars: list[Exemplar | None] = [None] * (len(self.buckets) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: Exemplar | None = None) -> None:
        """Record one observation, optionally pinning an exemplar to its bucket."""
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = bisect_left(self.buckets, value)
            self.bucket_counts[index] += 1
            if exemplar is not None:
                self.exemplars[index] = exemplar

    def bucket_exemplars(self) -> list[tuple[float, "Exemplar | None"]]:
        """``(upper bound, exemplar-or-None)`` per bucket, ending with ``+Inf``.

        Index-aligned with :meth:`cumulative_buckets`, so renderers can
        zip the two without re-deriving bucket edges.
        """
        with self._lock:
            snapshot = list(self.exemplars)
        bounds = list(self.buckets) + [float("inf")]
        return list(zip(bounds, snapshot))

    @contextmanager
    def time(self) -> Iterator[None]:
        """Time the enclosed block and observe its wall time in ms."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe((time.perf_counter() - start) * 1000.0)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs ending with ``(inf, count)``.

        This is exactly the Prometheus ``_bucket{le=...}`` series shape:
        each count includes every smaller bucket, and the final ``inf``
        entry equals the total observation count.
        """
        with self._lock:
            return self._cumulative_locked()

    def _cumulative_locked(self) -> list[tuple[float, int]]:
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.bucket_counts):
            running += bucket_count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self.bucket_counts[-1]))
        return pairs

    def quantile(self, q: float) -> float:
        """Estimated q-th percentile (q in 0..100) from the bucket counts.

        The scrape-side estimate, :func:`~repro.obs.export.quantile_from_buckets`
        over :meth:`cumulative_buckets`, clamped to the observed min/max.
        0.0 when empty.
        """
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self.min is None or self.max is None:
            return 0.0
        estimate = quantile_from_buckets(self._cumulative_locked(), q)
        return min(max(estimate, self.min), self.max)

    def to_dict(self) -> dict[str, float | int]:
        """Deterministic aggregate view of the distribution.

        Includes the bucket-derived p50/p90/p99 estimates so ``/stats``
        and ``--metrics-out`` consumers see tails, not just the mean.
        """
        with self._lock:
            return {
                "count": self.count,
                "sum": round(self.total, 3),
                "min": round(self.min, 3) if self.min is not None else 0.0,
                "max": round(self.max, 3) if self.max is not None else 0.0,
                "mean": round(self.mean, 3),
                "p50": round(self._quantile_locked(50.0), 3),
                "p90": round(self._quantile_locked(90.0), 3),
                "p99": round(self._quantile_locked(99.0), 3),
            }


class MetricsRegistry:
    """Lazily creates and holds every instrument, keyed by name+labels.

    The registry lock guards only instrument creation and snapshotting;
    each instrument synchronizes its own updates, so increments on
    different instruments never serialize against each other.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Per kind, the instrument each call shape (name, labels in call
        #: order, label types) resolved to: a repeat call is one tuple
        #: build and one dict lookup, and renders no key.
        self._counter_calls: dict[tuple, Counter] = {}
        self._gauge_calls: dict[tuple, Gauge] = {}
        self._histogram_calls: dict[tuple, Histogram] = {}
        #: Bumped by :meth:`reset`; code that binds instruments once keeps
        #: the generation it bound them under and rebinds when it moves.
        self.generation = 0

    # -- instrument accessors -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        instrument = self._counter_calls.get(_call_key(name, labels))
        if instrument is None:
            instrument = self._resolve(
                Counter, self._counters, self._counter_calls, name, labels
            )
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        instrument = self._gauge_calls.get(_call_key(name, labels))
        if instrument is None:
            instrument = self._resolve(
                Gauge, self._gauges, self._gauge_calls, name, labels
            )
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        instrument = self._histogram_calls.get(_call_key(name, labels))
        if instrument is None:
            instrument = self._resolve(
                Histogram, self._histograms, self._histogram_calls, name, labels
            )
        return instrument

    def _resolve(self, kind: type, own: dict[str, Any], calls: dict[tuple, Any],
                 name: str, labels: dict[str, Any]) -> Any:
        """A call shape's first lookup: the instrument under the rendered
        key (created if new), remembered for the shape."""
        key = _metric_key(name, labels)
        with self._lock:
            instrument = own.get(key)
            if instrument is None:
                self._check_kind(key, kind.__name__.lower(), own)
                instrument = own[key] = kind(key, name, labels)
            calls[_call_key(name, labels)] = instrument
        return instrument

    def _check_kind(self, key: str, kind: str, own: dict[str, Any]) -> None:
        """Reject a key already registered as a *different* instrument kind.

        Without this, a counter and a gauge sharing one name would
        silently shadow each other in :meth:`snapshot` (the later
        ``merged.update`` wins and the other kind's data disappears).
        Called with the registry lock held, just before creation.
        """
        for other_kind, instruments in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if instruments is not own and key in instruments:
                raise ValueError(
                    f"metric {key!r} is already registered as a {other_kind}; "
                    f"it cannot also be a {kind} (one name, one kind)"
                )

    # -- reporting ----------------------------------------------------------------

    def instruments(self) -> tuple[list[Counter], list[Gauge], list[Histogram]]:
        """Stable copies of the instrument lists (for exposition renderers)."""
        with self._lock:
            return (
                list(self._counters.values()),
                list(self._gauges.values()),
                list(self._histograms.values()),
            )

    def snapshot(self) -> dict[str, Any]:
        """All instruments as one sorted, JSON-ready mapping.

        Counters map to ints, gauges to floats, histograms to their
        aggregate dicts.  Calling twice without interleaved updates yields
        an identical object.  A key registered under two instrument kinds
        raises (the creation path already forbids it; this backstops
        registries assembled by hand).
        """
        counters, gauges, histograms = self.instruments()
        merged: dict[str, Any] = {c.name: c.value for c in counters}
        for gauge_ in gauges:
            if gauge_.name in merged:
                raise ValueError(
                    f"metric {gauge_.name!r} is registered as both a counter "
                    f"and a gauge; refusing to shadow one with the other"
                )
            merged[gauge_.name] = gauge_.value
        for histogram_ in histograms:
            if histogram_.name in merged:
                raise ValueError(
                    f"metric {histogram_.name!r} is registered as both a "
                    f"histogram and a counter/gauge; refusing to shadow one "
                    f"with the other"
                )
            merged[histogram_.name] = histogram_.to_dict()
        return {key: merged[key] for key in sorted(merged)}

    def render_text(self) -> str:
        """The snapshot as aligned ``name value`` lines for terminals."""
        snapshot = self.snapshot()
        if not snapshot:
            return "(no metrics recorded)"
        width = max(len(key) for key in snapshot)
        lines = []
        for key, value in snapshot.items():
            if isinstance(value, dict):
                rendered = (
                    f"count={value['count']} sum={value['sum']}ms "
                    f"min={value['min']}ms max={value['max']}ms "
                    f"mean={value['mean']}ms p50={value['p50']}ms "
                    f"p90={value['p90']}ms p99={value['p99']}ms"
                )
            else:
                rendered = str(value)
            lines.append(f"{key.ljust(width)}  {rendered}")
        return "\n".join(lines)

    def render_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self, *, openmetrics: bool = False) -> str:
        """The registry in Prometheus text exposition format.

        HELP/TYPE lines per family, cumulative ``_bucket{le=...}`` series
        plus ``_sum``/``_count`` for histograms, label values escaped per
        the format spec.  ``openmetrics=True`` selects the OpenMetrics
        variant (exemplars, ``# EOF``).  See
        :func:`repro.obs.export.render_prometheus`.
        """
        from repro.obs.export import render_prometheus

        return render_prometheus(self, openmetrics=openmetrics)

    def reset(self) -> None:
        """Drop every instrument (tests and fresh CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._counter_calls.clear()
            self._gauge_calls.clear()
            self._histogram_calls.clear()
            self.generation += 1


#: The process-global registry used by all pipeline instrumentation.
_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


def counter(name: str, **labels: Any) -> Counter:
    """Shortcut: a counter on the global registry."""
    return _global_registry.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    """Shortcut: a gauge on the global registry."""
    return _global_registry.gauge(name, **labels)


def histogram(name: str, **labels: Any) -> Histogram:
    """Shortcut: a histogram on the global registry."""
    return _global_registry.histogram(name, **labels)
