"""SLO burn-rate engine: window math, transitions, alert ring, spec files."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    Alert,
    AlertLog,
    DEFAULT_SLOS,
    SloEngine,
    SloSpec,
    load_slo_specs,
)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


AVAILABILITY = SloSpec(
    name="avail",
    objective=0.99,  # error budget 0.01
    kind="availability",
    error_classes=("5xx",),
    fast_window_s=60.0,
    slow_window_s=600.0,
    burn_threshold=10.0,
)


def responses(registry: MetricsRegistry, code: int, n: int) -> None:
    registry.counter("serve.responses_total", code=code).inc(n)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def engine(registry, clock):
    return SloEngine([AVAILABILITY], registry=registry, clock=clock)


class TestSpecValidation:
    def test_objective_bounds(self):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(name="x", objective=1.5)

    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold_ms"):
            SloSpec(name="x", objective=0.99, kind="latency")

    def test_window_ordering(self):
        with pytest.raises(ValueError, match="window"):
            SloSpec(name="x", objective=0.99, fast_window_s=600.0, slow_window_s=60.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SloSpec(name="x", objective=0.99, kind="throughput")

    def test_error_budget(self):
        assert SloSpec(name="x", objective=0.995).error_budget == pytest.approx(0.005)


class TestBurnRateMath:
    """Hand-computed windows: budget 0.01, threshold 10, fast 60s / slow 600s."""

    def test_error_burst_computes_expected_burn(self, engine, registry, clock):
        engine.tick()  # t=1000: all-zero baseline
        # 100 requests in the next minute, 5 of them 5xx:
        responses(registry, 200, 95)
        responses(registry, 500, 5)
        clock.advance(60.0)
        [status] = engine.tick()  # t=1060
        # fast window (60s): 5 errors / 100 total = 0.05 rate; /0.01 = burn 5.0
        assert status.burn_fast == pytest.approx(5.0)
        # slow window covers the same single minute of traffic:
        assert status.burn_slow == pytest.approx(5.0)
        assert status.window_total == 100
        assert status.window_errors == 5
        # 5.0 <= threshold 10 in the fast window -> still ok
        assert status.state == "ok"
        # slow-window budget consumed = burn 5.0 -> remaining clamps at 0
        assert status.budget_remaining == 0.0

    def test_burn_of_exactly_one_leaves_no_remaining_budget(self, engine, registry, clock):
        engine.tick()
        responses(registry, 200, 999)
        responses(registry, 500, 1)  # error rate 0.001 = budget/10
        clock.advance(60.0)
        [status] = engine.tick()
        assert status.burn_fast == pytest.approx(0.1)
        assert status.budget_remaining == pytest.approx(0.9)

    def test_old_errors_age_out_of_the_fast_window(self, engine, registry, clock):
        engine.tick()
        responses(registry, 500, 50)
        responses(registry, 200, 50)
        clock.advance(60.0)
        engine.tick()  # burst inside fast window
        # Nine clean minutes push the burst past the fast window edge
        # while keeping it inside the slow one:
        for _ in range(9):
            responses(registry, 200, 100)
            clock.advance(60.0)
            engine.tick()
        [status] = engine.evaluate()
        # fast window (60s) saw only the last 100 clean requests:
        assert status.burn_fast == 0.0
        # slow window (600s) still remembers the burst: 50 errors in the
        # 1000 requests since its t=1000 baseline = rate 0.05, burn 5.0.
        assert status.burn_slow == pytest.approx(5.0)

    def test_no_traffic_means_no_burn(self, engine, clock):
        engine.tick()
        clock.advance(60.0)
        [status] = engine.tick()
        assert status.state == "ok"
        assert status.burn_fast == 0.0 and status.burn_slow == 0.0
        assert status.budget_remaining == 1.0


class TestTransitions:
    def test_burst_fires_then_steady_traffic_resolves(self, engine, registry, clock):
        engine.tick()
        # 20% errors: rate 0.2 / budget 0.01 = burn 20 > threshold 10 in
        # both windows -> firing.
        responses(registry, 200, 80)
        responses(registry, 500, 20)
        clock.advance(60.0)
        [status] = engine.tick()
        assert status.state == "firing"
        alerts = engine.alert_log.recent()
        assert len(alerts) == 1
        assert alerts[0].state == "firing" and alerts[0].slo == "avail"
        assert alerts[0].burn_fast == pytest.approx(20.0)

        # Clean traffic ages the burst out of the fast window -> resolved.
        for _ in range(3):
            responses(registry, 200, 200)
            clock.advance(60.0)
            engine.tick()
        [status] = engine.evaluate()
        assert status.state == "ok"
        states = [alert.state for alert in engine.alert_log.recent()]
        assert states == ["firing", "resolved"]

    def test_no_duplicate_alerts_while_state_is_stable(self, engine, registry, clock):
        engine.tick()
        responses(registry, 500, 100)
        clock.advance(30.0)
        engine.tick()
        clock.advance(30.0)
        engine.tick()  # still firing; no second "firing" record
        assert [a.state for a in engine.alert_log.recent()] == ["firing"]

    def test_fast_blip_alone_does_not_fire(self, registry, clock):
        # Slow window must ALSO exceed the threshold.  Pre-load ten clean
        # minutes so the burst is diluted in the slow window.
        engine = SloEngine([AVAILABILITY], registry=registry, clock=clock)
        engine.tick()
        for _ in range(10):
            responses(registry, 200, 1000)
            clock.advance(60.0)
            engine.tick()
        responses(registry, 500, 30)
        responses(registry, 200, 70)
        clock.advance(60.0)
        [status] = engine.tick()
        # fast: 30/100 = burn 30 > 10.  The slow window's baseline is the
        # t=1060 sample (first clean minute already recorded), so it spans
        # 9100 requests: 30/9100 = rate 0.0033, burn 0.33 < 10 -> ok.
        assert status.burn_fast == pytest.approx(30.0)
        assert status.burn_slow == pytest.approx(30 / 9100 / 0.01)
        assert status.state == "ok"


class TestLatencySlo:
    SPEC = SloSpec(
        name="latency",
        objective=0.9,  # budget 0.1
        kind="latency",
        threshold_ms=1.0,
        fast_window_s=60.0,
        slow_window_s=600.0,
        burn_threshold=2.5,
    )

    def test_over_threshold_observations_burn_budget(self, registry, clock):
        engine = SloEngine([self.SPEC], registry=registry, clock=clock)
        engine.tick()
        hist = registry.histogram("serve.request_ms", endpoint="validate")
        for _ in range(8):
            hist.observe(0.5)  # good: <= 1ms bound
        for _ in range(2):
            hist.observe(50.0)  # bad
        clock.advance(60.0)
        [status] = engine.tick()
        # 2 slow of 10 = rate 0.2 / budget 0.1 = burn 2.0 < threshold 2.5
        assert status.burn_fast == pytest.approx(2.0)
        assert status.state == "ok"
        hist.observe(300.0)  # 3 of 11 slow: rate 0.27, burn 2.7 > 2.5
        clock.advance(30.0)
        [status] = engine.tick()
        assert status.state == "firing"

    def test_threshold_snaps_to_bucket_bound(self, registry, clock):
        spec = SloSpec(
            name="latency", objective=0.9, kind="latency",
            threshold_ms=0.7,  # between the 0.5 and 1.0 bounds -> snaps to 1.0
            fast_window_s=60.0, slow_window_s=600.0, burn_threshold=2.0,
        )
        engine = SloEngine([spec], registry=registry, clock=clock)
        engine.tick()
        hist = registry.histogram("serve.request_ms")
        hist.observe(0.9)  # within the snapped bound -> good
        clock.advance(60.0)
        [status] = engine.tick()
        assert status.window_errors == 0


class TestErrorClasses:
    def test_4xx_class_and_exact_codes(self, registry, clock):
        spec = SloSpec(
            name="client-errors", objective=0.99,
            error_classes=("4xx", "503"),
            fast_window_s=60.0, slow_window_s=600.0, burn_threshold=1.0,
        )
        engine = SloEngine([spec], registry=registry, clock=clock)
        engine.tick()
        responses(registry, 200, 6)
        responses(registry, 400, 1)
        responses(registry, 404, 1)
        responses(registry, 503, 1)
        responses(registry, 500, 1)  # not selected
        clock.advance(60.0)
        [status] = engine.tick()
        assert status.window_total == 10
        assert status.window_errors == 3


class TestAlertLog:
    def _alert(self, ts: float, state: str = "firing") -> Alert:
        return Alert(
            ts=ts, slo="avail", state=state, burn_fast=20.0, burn_slow=15.0,
            budget_remaining=0.0, window_total=100, window_errors=20,
        )

    def test_ring_is_bounded(self):
        log = AlertLog(keep=3)
        for i in range(10):
            log.append(self._alert(float(i)))
        assert [a.ts for a in log.recent()] == [7.0, 8.0, 9.0]
        assert [a.ts for a in log.recent(limit=2)] == [8.0, 9.0]

    def test_jsonl_file_round_trips(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        log = AlertLog(path=path, keep=8)
        log.append(self._alert(1.0))
        log.append(self._alert(2.0, state="resolved"))
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert [Alert.from_dict(r).state for r in records] == ["firing", "resolved"]

    def test_file_is_compacted_past_twice_keep(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        log = AlertLog(path=path, keep=4)
        for i in range(20):
            log.append(self._alert(float(i)))
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) <= 2 * 4 + 1
        # The newest alerts are always present:
        assert json.loads(lines[-1])["ts"] == 19.0

    def test_failed_compaction_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "alerts.jsonl"
        log = AlertLog(path=str(path), keep=2)
        for i in range(4):  # 2 * keep lines: the next append compacts
            log.append(self._alert(float(i)))
        before = path.read_text(encoding="utf-8")
        real_open = open

        class DiskFullHandle:
            """Writes half of what it is given, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError("disk full")

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return DiskFullHandle(handle) if "w" in mode else handle

        monkeypatch.setattr("builtins.open", failing_open)
        log.append(self._alert(4.0))
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert [a.ts for a in log.recent()] == [3.0, 4.0]
        assert [p.name for p in tmp_path.iterdir()] == ["alerts.jsonl"]

    def test_append_survives_file_write_failure(self, tmp_path, monkeypatch):
        # The engine tick runs on the runtime collector thread; a disk
        # blip on the JSONL write must neither raise (which would count
        # against the hook-failure limit) nor lose the in-memory alert.
        log = AlertLog(path=str(tmp_path / "alerts.jsonl"), keep=4)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("builtins.open", boom)
        log.append(self._alert(1.0))
        monkeypatch.undo()
        assert [a.ts for a in log.recent()] == [1.0]
        # Later appends with a healthy disk keep working:
        log.append(self._alert(2.0))
        assert [a.ts for a in log.recent()] == [1.0, 2.0]


class TestWindowCapacity:
    def test_capacity_covers_slow_window_at_cadence(self):
        from repro.obs.slo import _window_capacity

        assert _window_capacity(3600.0, 0.05) == 72008
        # Slow cadences keep the historical floor:
        assert _window_capacity(600.0, 5.0) == 4096
        # The cap bounds memory for absurd window/cadence combinations:
        assert _window_capacity(1e6, 0.05) == 90_000

    def test_engine_sizes_rings_from_sample_interval(self, registry, clock):
        engine = SloEngine(
            [AVAILABILITY], registry=registry, clock=clock,
            sample_interval_s=0.05,
        )
        ring = engine._windows["avail"].samples
        # 600s slow window at 0.05s cadence needs 12000 snapshots; the
        # old fixed 4096 ring silently shortened the slow window.
        assert ring.maxlen is not None
        assert ring.maxlen * 0.05 >= AVAILABILITY.slow_window_s


class TestSpecFiles:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": [
            {"name": "avail", "objective": 0.999, "kind": "availability",
             "error_classes": ["5xx"], "fast_window_s": 120,
             "slow_window_s": 3600, "burn_threshold": 6},
            {"name": "lat", "objective": 0.95, "kind": "latency",
             "threshold_ms": 250},
        ]}))
        specs = load_slo_specs(str(path))
        assert [s.name for s in specs] == ["avail", "lat"]
        assert specs[0].error_budget == pytest.approx(0.001)
        assert specs[1].threshold_ms == 250

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": [
            {"name": "a", "objective": 0.99, "fastwindow": 5},
        ]}))
        with pytest.raises(ValueError, match="unknown fields"):
            load_slo_specs(str(path))

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": [
            {"name": "a", "objective": 0.99},
            {"name": "a", "objective": 0.9},
        ]}))
        with pytest.raises(ValueError, match="duplicate"):
            load_slo_specs(str(path))

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": []}))
        with pytest.raises(ValueError, match="empty"):
            load_slo_specs(str(path))


class TestEngineReporting:
    def test_to_dict_shape(self, engine, registry, clock):
        engine.tick()
        payload = engine.to_dict()
        assert set(payload) == {"slos", "statuses", "alerts"}
        assert payload["slos"][0]["name"] == "avail"
        assert payload["statuses"][0]["state"] == "ok"
        json.dumps(payload)  # JSON-ready end to end

    def test_default_slos_construct(self):
        engine = SloEngine(DEFAULT_SLOS, registry=MetricsRegistry())
        assert {s.name for s in engine.specs} == {
            "availability-5xx", "latency-p99-1s",
        }
