"""Declarative SLOs with multi-window burn-rate alerting over the registry.

The serve daemon's raw telemetry (``serve.responses_total{code=..}``,
``serve.request_ms`` buckets) answers "what happened"; this module answers
"is the service meeting its objectives".  It follows the multi-window,
multi-burn-rate recipe from the Google SRE workbook:

* an :class:`SloSpec` declares an objective -- availability ("99.5% of
  responses are non-5xx") or latency ("99% of requests finish under
  250ms") -- plus a *fast* and a *slow* evaluation window and a burn-rate
  threshold;
* the :class:`SloEngine` keeps a bounded ring of cumulative good/total
  counter snapshots per SLO, sampled on the runtime collector's cadence,
  and computes windowed **burn rates**: the rate at which the error
  budget (``1 - objective``) is being consumed, where burn ``1.0`` means
  "exactly spending the budget", ``14.4`` means "a 30-day budget gone in
  2 days";
* an SLO **fires** only when *both* windows exceed the threshold -- the
  fast window makes alerts prompt, the slow window keeps a brief blip
  from paging -- and **resolves** once either window recovers;
* transitions append :class:`Alert` records to an in-memory ring and an
  optional size-bounded JSONL file (:class:`AlertLog`), served by
  ``GET /alerts`` and queried by ``upcc obs query --alerts``.

No traffic means no burn: windows with zero total are healthy, so an
idle daemon never pages.  Everything is stdlib-only and clock-injectable
for deterministic tests.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

_log = get_logger("repro.obs.slo")

__all__ = [
    "Alert",
    "AlertLog",
    "DEFAULT_SLOS",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "load_slo_specs",
]


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    ``kind`` selects the data source:

    * ``availability`` -- good/total from ``counter_name`` (default
      ``serve.responses_total``), whose ``code`` label is matched against
      ``error_classes`` (``"5xx"``/``"4xx"`` class patterns or exact
      codes like ``"503"``);
    * ``latency`` -- good/total from ``histogram_name`` (default
      ``serve.request_ms``) bucket counts, where an observation is good
      when it lands at or under ``threshold_ms`` (snapped up to the
      nearest bucket bound, since only bucket edges are observable).

    ``burn_threshold`` is the burn rate both windows must exceed before
    the SLO fires; with the default fast window of 5 minutes a threshold
    of 14.4 pages only when ~5% of a 30-day budget burns in an hour.
    """

    name: str
    objective: float
    kind: str = "availability"
    error_classes: tuple[str, ...] = ("5xx",)
    threshold_ms: float | None = None
    counter_name: str = "serve.responses_total"
    histogram_name: str = "serve.request_ms"
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    burn_threshold: float = 14.4

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"slo {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}"
            )
        if self.kind not in ("availability", "latency"):
            raise ValueError(
                f"slo {self.name!r}: kind must be 'availability' or "
                f"'latency', got {self.kind!r}"
            )
        if self.kind == "latency" and self.threshold_ms is None:
            raise ValueError(
                f"slo {self.name!r}: latency objectives need threshold_ms"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                f"slo {self.name!r}: need 0 < fast_window_s <= slow_window_s"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"slo {self.name!r}: burn_threshold must be positive"
            )

    @property
    def error_budget(self) -> float:
        """The tolerable error fraction: ``1 - objective``."""
        return 1.0 - self.objective

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of the spec (``GET /alerts``, docs)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "objective": self.objective,
            "kind": self.kind,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "burn_threshold": self.burn_threshold,
        }
        if self.kind == "availability":
            payload["error_classes"] = list(self.error_classes)
        else:
            payload["threshold_ms"] = self.threshold_ms
        return payload


#: Objectives every daemon gets without any ``--slo`` file: five nines of
#: worth of headroom would be fiction for a dev box, so these are
#: deliberately modest -- 99.5% non-5xx availability and a generous
#: latency bound at the top of the bucket ladder's mid-range.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(name="availability-5xx", objective=0.995, kind="availability"),
    SloSpec(
        name="latency-p99-1s", objective=0.99, kind="latency",
        threshold_ms=1000.0,
    ),
)


def load_slo_specs(path: str) -> tuple[SloSpec, ...]:
    """Parse a ``--slo`` JSON file into specs.

    The file holds ``{"slos": [{...spec fields...}]}``; unknown fields
    raise (a typo'd window name silently falling back to defaults would
    be an alerting bug, the worst kind).
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("slos"), list):
        raise ValueError(f"{path}: expected an object with an 'slos' list")
    allowed = {
        "name", "objective", "kind", "error_classes", "threshold_ms",
        "counter_name", "histogram_name", "fast_window_s", "slow_window_s",
        "burn_threshold",
    }
    specs: list[SloSpec] = []
    for index, entry in enumerate(payload["slos"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: slos[{index}] is not an object")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(
                f"{path}: slos[{index}] has unknown fields {sorted(unknown)}"
            )
        if "error_classes" in entry:
            entry = dict(entry, error_classes=tuple(entry["error_classes"]))
        specs.append(SloSpec(**entry))
    if not specs:
        raise ValueError(f"{path}: 'slos' list is empty")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate slo names in {names}")
    return tuple(specs)


@dataclass(frozen=True)
class SloStatus:
    """One SLO's evaluation at an instant."""

    name: str
    state: str  # "ok" | "firing"
    burn_fast: float
    burn_slow: float
    error_budget: float
    budget_remaining: float  # fraction of budget left over the slow window
    window_total: int  # requests seen in the slow window
    window_errors: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "burn_fast": round(self.burn_fast, 4),
            "burn_slow": round(self.burn_slow, 4),
            "error_budget": round(self.error_budget, 6),
            "budget_remaining": round(self.budget_remaining, 4),
            "window_total": self.window_total,
            "window_errors": self.window_errors,
        }


@dataclass(frozen=True)
class Alert:
    """One state transition of one SLO (firing or resolved)."""

    ts: float
    slo: str
    state: str  # "firing" | "resolved"
    burn_fast: float
    burn_slow: float
    budget_remaining: float
    window_total: int
    window_errors: int
    message: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "ts": round(self.ts, 3),
            "slo": self.slo,
            "state": self.state,
            "burn_fast": round(self.burn_fast, 4),
            "burn_slow": round(self.burn_slow, 4),
            "budget_remaining": round(self.budget_remaining, 4),
            "window_total": self.window_total,
            "window_errors": self.window_errors,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Alert":
        return cls(
            ts=float(payload["ts"]),
            slo=str(payload["slo"]),
            state=str(payload["state"]),
            burn_fast=float(payload.get("burn_fast", 0.0)),
            burn_slow=float(payload.get("burn_slow", 0.0)),
            budget_remaining=float(payload.get("budget_remaining", 1.0)),
            window_total=int(payload.get("window_total", 0)),
            window_errors=int(payload.get("window_errors", 0)),
            message=str(payload.get("message", "")),
        )


class AlertLog:
    """A bounded alert ring: the last ``keep`` records, optionally on disk.

    Appends go to an in-memory deque and (when ``path`` is set) a JSONL
    file.  The file is compacted back to the ring contents whenever the
    appended lines exceed twice ``keep``, so a flapping SLO on a
    long-running daemon cannot grow it without bound.
    """

    def __init__(self, path: str | None = None, keep: int = 256) -> None:
        self.path = path
        self.keep = max(1, keep)
        self._ring: deque[Alert] = deque(maxlen=self.keep)
        self._appended = 0
        self._lock = threading.Lock()
        if path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    def append(self, alert: Alert) -> None:
        """Record one alert, compacting the backing file when oversized.

        File I/O failures are logged and swallowed: the in-memory ring
        (what ``GET /alerts`` serves) already has the alert, and a disk
        blip must not propagate into the collector thread that calls
        this from the SLO engine's tick.
        """
        with self._lock:
            self._ring.append(alert)
            if self.path is None:
                return
            line = json.dumps(alert.to_dict(), sort_keys=True)
            self._appended += 1
            try:
                if self._appended > 2 * self.keep:
                    self._compact_locked(self.path)
                else:
                    with open(self.path, "a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
            except OSError as error:
                _log.warning("alert log write failed: %s", error)

    def _compact_locked(self, path: str) -> None:
        """Rewrite the file as the ring's contents.

        The ring goes to a sibling temp file, synced, that then replaces
        the log, so a write that fails partway leaves the previous file
        whole.
        """
        temp = path + ".tmp"
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                for kept in self._ring:
                    handle.write(json.dumps(kept.to_dict(), sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except OSError:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        self._appended = len(self._ring)

    def recent(self, limit: int | None = None) -> list[Alert]:
        """The newest alerts, oldest first (bounded by ``limit``)."""
        with self._lock:
            alerts = list(self._ring)
        if limit is not None and limit >= 0:
            alerts = alerts[-limit:]
        return alerts


#: Ring-capacity bounds for :class:`_Window`: never smaller than the
#: historical default, never so large that a sub-second cadence against a
#: day-long window eats unbounded memory (samples are 3-tuples, so the
#: cap is ~2 MB per SLO at worst).
_WINDOW_MIN_CAPACITY = 4096
_WINDOW_MAX_CAPACITY = 90_000


def _window_capacity(slow_window_s: float, sample_interval_s: float) -> int:
    """Ring size covering ``slow_window_s`` at ``sample_interval_s`` cadence."""
    needed = int(slow_window_s / max(0.05, sample_interval_s)) + 8
    return min(_WINDOW_MAX_CAPACITY, max(_WINDOW_MIN_CAPACITY, needed))


@dataclass
class _Window:
    """The cumulative-counter snapshot ring backing one SLO."""

    capacity: int = _WINDOW_MIN_CAPACITY
    samples: deque[tuple[float, int, int]] = field(init=False)

    def __post_init__(self) -> None:
        # (ts, total, errors), cumulative
        self.samples = deque(maxlen=max(1, self.capacity))

    def push(self, ts: float, total: int, errors: int) -> None:
        self.samples.append((ts, total, errors))

    def delta(self, now: float, window_s: float) -> tuple[int, int]:
        """``(total, errors)`` accumulated inside the trailing window.

        The baseline is the newest sample at or before ``now - window_s``
        (so a window fully covered by samples uses the true edge), or the
        oldest sample when history is shorter than the window.
        """
        if not self.samples:
            return (0, 0)
        cutoff = now - window_s
        baseline = None
        newest = self.samples[-1]
        for ts, total, errors in self.samples:
            if ts <= cutoff:
                baseline = (ts, total, errors)
            else:
                break
        if baseline is None:
            baseline = self.samples[0]
        return (
            max(0, newest[1] - baseline[1]),
            max(0, newest[2] - baseline[2]),
        )


def _code_matches(code: str, classes: Iterable[str]) -> bool:
    for pattern in classes:
        if pattern.endswith("xx") and len(pattern) == 3:
            if code and code[0] == pattern[0] and len(code) == 3:
                return True
        elif code == pattern:
            return True
    return False


class SloEngine:
    """Samples good/total counters and evaluates burn-rate alerts.

    ``tick()`` -- called from the runtime collector thread on its
    interval -- snapshots the source counters into each SLO's window
    ring, evaluates both windows, and appends an :class:`Alert` on every
    ok->firing / firing->resolved transition.  All math is pure over the
    injected ``clock``, so tests drive it with synthetic time.
    """

    def __init__(
        self,
        specs: Iterable[SloSpec] = DEFAULT_SLOS,
        registry: MetricsRegistry | None = None,
        alert_log: AlertLog | None = None,
        clock: Callable[[], float] = time.time,
        sample_interval_s: float = 5.0,
    ) -> None:
        self.specs = tuple(specs)
        if not self.specs:
            raise ValueError("SloEngine needs at least one SloSpec")
        self._registry = registry
        self.alert_log = alert_log if alert_log is not None else AlertLog()
        self._clock = clock
        # Each ring must hold a full slow window of snapshots at the
        # sampling cadence, else delta() silently falls back to the
        # oldest retained sample and the slow burn rate is computed over
        # a shorter window than declared.
        self._windows: dict[str, _Window] = {}
        for spec in self.specs:
            capacity = _window_capacity(spec.slow_window_s, sample_interval_s)
            if capacity * max(0.05, sample_interval_s) < spec.slow_window_s:
                _log.warning(
                    "slo %s: snapshot ring (%d entries) cannot cover the "
                    "%.0fs slow window at a %.2fs sampling cadence; the "
                    "slow burn rate will span a shorter window",
                    spec.name, capacity, spec.slow_window_s, sample_interval_s,
                )
            self._windows[spec.name] = _Window(capacity)
        self._firing: dict[str, bool] = {spec.name: False for spec in self.specs}
        self._statuses: dict[str, SloStatus] = {}
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # -- counter sources ----------------------------------------------------------

    def _availability_counts(self, spec: SloSpec) -> tuple[int, int]:
        """Cumulative ``(total, errors)`` from the status-code counter."""
        total = 0
        errors = 0
        counters, _, _ = self.registry.instruments()
        for instrument in counters:
            if instrument.base_name != spec.counter_name:
                continue
            value = instrument.value
            total += value
            if _code_matches(str(instrument.labels.get("code", "")), spec.error_classes):
                errors += value
        return total, errors

    def _latency_counts(self, spec: SloSpec) -> tuple[int, int]:
        """Cumulative ``(total, over-threshold)`` from the latency histogram.

        "Good" snaps the threshold up to the nearest bucket bound --
        bucket edges are the only observable cut points.
        """
        assert spec.threshold_ms is not None
        total = 0
        good = 0
        _, _, histograms = self.registry.instruments()
        for instrument in histograms:
            if instrument.base_name != spec.histogram_name:
                continue
            pairs = instrument.cumulative_buckets()
            total += pairs[-1][1]
            for bound, cumulative in pairs:
                if bound >= spec.threshold_ms:
                    good += cumulative
                    break
        return total, total - good

    def _counts(self, spec: SloSpec) -> tuple[int, int]:
        if spec.kind == "availability":
            return self._availability_counts(spec)
        return self._latency_counts(spec)

    # -- sampling and evaluation --------------------------------------------------

    def sample(self, now: float | None = None) -> None:
        """Snapshot every SLO's cumulative counters into its window ring."""
        ts = self._clock() if now is None else now
        with self._lock:
            for spec in self.specs:
                total, errors = self._counts(spec)
                self._windows[spec.name].push(ts, total, errors)

    @staticmethod
    def _burn(total: int, errors: int, budget: float) -> float:
        if total <= 0:
            return 0.0
        return (errors / total) / budget

    def evaluate(self, now: float | None = None) -> list[SloStatus]:
        """Burn rates per SLO, recording alert transitions as they happen."""
        ts = self._clock() if now is None else now
        statuses: list[SloStatus] = []
        transitions: list[Alert] = []
        with self._lock:
            for spec in self.specs:
                window = self._windows[spec.name]
                fast_total, fast_errors = window.delta(ts, spec.fast_window_s)
                slow_total, slow_errors = window.delta(ts, spec.slow_window_s)
                burn_fast = self._burn(fast_total, fast_errors, spec.error_budget)
                burn_slow = self._burn(slow_total, slow_errors, spec.error_budget)
                firing = (
                    burn_fast > spec.burn_threshold
                    and burn_slow > spec.burn_threshold
                )
                budget_remaining = max(0.0, 1.0 - burn_slow)
                status = SloStatus(
                    name=spec.name,
                    state="firing" if firing else "ok",
                    burn_fast=burn_fast,
                    burn_slow=burn_slow,
                    error_budget=spec.error_budget,
                    budget_remaining=budget_remaining,
                    window_total=slow_total,
                    window_errors=slow_errors,
                )
                statuses.append(status)
                self._statuses[spec.name] = status
                was_firing = self._firing[spec.name]
                if firing != was_firing:
                    self._firing[spec.name] = firing
                    verb = "firing" if firing else "resolved"
                    transitions.append(Alert(
                        ts=ts,
                        slo=spec.name,
                        state=verb,
                        burn_fast=burn_fast,
                        burn_slow=burn_slow,
                        budget_remaining=budget_remaining,
                        window_total=slow_total,
                        window_errors=slow_errors,
                        message=(
                            f"{spec.name} {verb}: burn fast={burn_fast:.2f} "
                            f"slow={burn_slow:.2f} (threshold "
                            f"{spec.burn_threshold:g}, budget "
                            f"{spec.error_budget:g})"
                        ),
                    ))
        for alert in transitions:
            self.alert_log.append(alert)
        return statuses

    def tick(self, now: float | None = None) -> list[SloStatus]:
        """One collector-cadence step: sample then evaluate."""
        ts = self._clock() if now is None else now
        self.sample(ts)
        return self.evaluate(ts)

    # -- reporting ----------------------------------------------------------------

    def statuses(self) -> list[SloStatus]:
        """The most recent evaluation per SLO (spec order; empty before any)."""
        with self._lock:
            return [
                self._statuses[spec.name]
                for spec in self.specs
                if spec.name in self._statuses
            ]

    def to_dict(self) -> dict[str, Any]:
        """The ``GET /alerts`` payload: specs, live statuses, recent alerts."""
        return {
            "slos": [spec.to_dict() for spec in self.specs],
            "statuses": [status.to_dict() for status in self.statuses()],
            "alerts": [alert.to_dict() for alert in self.alert_log.recent()],
        }
