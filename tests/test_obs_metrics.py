"""Metrics registry: instruments, label keys, snapshot determinism."""

import json
import threading

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    get_registry,
    histogram,
    set_registry,
)


@pytest.fixture
def registry():
    """A fresh registry installed as the global one."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


class TestInstruments:
    def test_counter_accumulates(self, registry):
        registry.counter("xsdgen.schemas_generated").inc()
        registry.counter("xsdgen.schemas_generated").inc(5)
        assert registry.snapshot()["xsdgen.schemas_generated"] == 6

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("memo.size")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec()
        assert registry.snapshot()["memo.size"] == 11

    def test_histogram_aggregates(self, registry):
        hist = registry.histogram("rule_ms")
        for value in [1.0, 3.0, 2.0]:
            hist.observe(value)
        aggregate = registry.snapshot()["rule_ms"]
        assert aggregate["count"] == 3
        assert aggregate["sum"] == 6.0
        assert aggregate["min"] == 1.0
        assert aggregate["max"] == 3.0
        assert aggregate["mean"] == 2.0
        assert 1.0 <= aggregate["p50"] <= aggregate["p90"] <= aggregate["p99"] <= 3.0

    def test_histogram_quantiles_single_observation(self, registry):
        hist = registry.histogram("one_ms")
        hist.observe(7.0)
        aggregate = hist.to_dict()
        assert aggregate["p50"] == aggregate["p99"] == 7.0

    def test_histogram_cumulative_buckets(self, registry):
        hist = registry.histogram("bucketed_ms")
        for value in [0.3, 0.3, 4.0, 99999.0]:
            hist.observe(value)
        pairs = hist.cumulative_buckets()
        assert pairs[-1] == (float("inf"), 4)
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)  # cumulative => non-decreasing
        by_bound = dict(pairs)
        assert by_bound[0.5] == 2
        assert by_bound[5.0] == 3
        assert by_bound[10000.0] == 3  # the 99999 lands in +Inf only

    def test_histogram_quantile_skewed_tail(self, registry):
        hist = registry.histogram("skew_ms")
        for _ in range(99):
            hist.observe(1.0)
        hist.observe(900.0)
        assert hist.quantile(50.0) <= 2.5
        assert hist.quantile(99.9) > 100.0

    def test_histogram_time_context_manager(self, registry):
        with registry.histogram("timed_ms").time():
            pass
        aggregate = registry.snapshot()["timed_ms"]
        assert aggregate["count"] == 1
        assert aggregate["sum"] >= 0.0

    def test_labels_key_instruments_separately(self, registry):
        registry.counter("validation.findings", severity="error").inc()
        registry.counter("validation.findings", severity="warning").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["validation.findings{severity=error}"] == 1
        assert snapshot["validation.findings{severity=warning}"] == 2

    def test_label_order_is_canonical(self, registry):
        a = registry.counter("m", b=1, a=2)
        b = registry.counter("m", a=2, b=1)
        assert a is b
        assert a.name == "m{a=2,b=1}"


class TestSnapshot:
    def test_snapshot_is_deterministic(self, registry):
        registry.counter("z").inc()
        registry.counter("a").inc(3)
        registry.histogram("h", rule="R1").observe(1.5)
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second
        assert list(first) == sorted(first)

    def test_render_json_round_trips(self, registry):
        registry.counter("xsdgen.memo_hits").inc(4)
        data = json.loads(registry.render_json())
        assert data["xsdgen.memo_hits"] == 4

    def test_render_text_lists_every_instrument(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        text = registry.render_text()
        assert "c" in text and "g" in text and "count=1" in text

    def test_render_text_empty_registry(self, registry):
        assert registry.render_text() == "(no metrics recorded)"

    def test_reset_clears_everything(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestGlobalShortcuts:
    def test_shortcuts_hit_the_global_registry(self, registry):
        counter("hits").inc()
        histogram("ms", rule="R").observe(2.0)
        assert get_registry() is registry
        snapshot = registry.snapshot()
        assert snapshot["hits"] == 1
        assert snapshot["ms{rule=R}"]["count"] == 1


class TestLabelEscaping:
    def test_structural_characters_do_not_collide_keys(self, registry):
        # Without escaping these two label sets would render identical keys.
        a = registry.counter("m", path="a=b,c")
        b = registry.counter("m", **{"path": "a", "extra": "b\\,c"})
        assert a is not b
        assert a.name != b.name

    def test_escaping_is_reversible(self):
        from repro.obs.metrics import escape_label_value

        nasty = 'a=b,{c}\\d\ne\rf'
        escaped = escape_label_value(nasty)
        assert "\n" not in escaped and "\r" not in escaped
        unescaped = (
            escaped.replace("\\\\", "\x00")
            .replace("\\=", "=").replace("\\,", ",")
            .replace("\\{", "{").replace("\\}", "}")
            .replace("\\n", "\n").replace("\\r", "\r")
            .replace("\x00", "\\")
        )
        assert unescaped == nasty

    def test_plain_values_pass_through(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value("UPCC-P01") == "UPCC-P01"


class TestKindCollisions:
    def test_counter_then_gauge_same_name_raises(self, registry):
        registry.counter("serve.depth").inc()
        with pytest.raises(ValueError, match="one name, one kind"):
            registry.gauge("serve.depth")

    def test_histogram_then_counter_same_name_raises(self, registry):
        registry.histogram("req_ms").observe(1.0)
        with pytest.raises(ValueError, match="one name, one kind"):
            registry.counter("req_ms")

    def test_snapshot_backstops_hand_assembled_collisions(self, registry):
        from repro.obs.metrics import Gauge

        registry.counter("dup").inc()
        registry._gauges["dup"] = Gauge("dup")
        with pytest.raises(ValueError, match="refusing to shadow"):
            registry.snapshot()


class TestRepeatLookups:
    """A repeat call is answered by call shape; the rendered key decides
    which instrument a new shape gets."""

    def test_repeat_call_returns_the_first_instrument(self, registry):
        first = registry.histogram("serve.stage_ms", endpoint="validate", stage="read")
        assert registry.histogram(
            "serve.stage_ms", endpoint="validate", stage="read"
        ) is first
        # Another label order is another call shape, but the same series.
        assert registry.histogram(
            "serve.stage_ms", stage="read", endpoint="validate"
        ) is first
        assert counter("plain") is counter("plain")

    def test_reset_gives_a_fresh_instrument(self, registry):
        before = registry.counter("serve.responses_total", code=200)
        before.inc()
        registry.reset()
        after = registry.counter("serve.responses_total", code=200)
        assert after is not before
        assert after.value == 0
        assert registry.snapshot() == {"serve.responses_total{code=200}": 0}

    def test_set_registry_gives_a_fresh_instrument(self, registry):
        before = counter("serve.requests_total", endpoint="healthz")
        replacement = MetricsRegistry()
        previous = set_registry(replacement)
        try:
            after = counter("serve.requests_total", endpoint="healthz")
        finally:
            set_registry(previous)
        assert after is not before
        assert replacement.counter("serve.requests_total", endpoint="healthz") is after
        assert counter("serve.requests_total", endpoint="healthz") is before

    def test_kind_clash_raises_after_a_cached_lookup(self, registry):
        registry.counter("serve.depth", endpoint="x").inc()
        registry.counter("serve.depth", endpoint="x").inc()  # answered by shape
        with pytest.raises(ValueError, match="one name, one kind"):
            registry.gauge("serve.depth", endpoint="x")
        with pytest.raises(ValueError, match="one name, one kind"):
            registry.histogram("serve.depth", endpoint="x")

    def test_equal_values_with_different_keys_do_not_share(self, registry):
        # 1 == True and hash(1) == hash(True), yet they render apart.
        one = registry.counter("codes", code=1)
        true = registry.counter("codes", code=True)
        assert one is not true
        assert (one.name, true.name) == ("codes{code=1}", "codes{code=True}")
        assert registry.counter("codes", code=1) is one
        assert registry.counter("codes", code=True) is true

    def test_equal_keys_from_different_types_share(self, registry):
        # "200" and 200 render one key: one series, whichever type asks.
        assert registry.counter("codes", code="200") is registry.counter("codes", code=200)


class TestPerInstrumentLocks:
    def test_instruments_do_not_share_the_registry_lock(self, registry):
        c = registry.counter("a")
        g = registry.gauge("b")
        h = registry.histogram("c")
        locks = {id(c._lock), id(g._lock), id(h._lock), id(registry._lock)}
        assert len(locks) == 4

    def test_increment_does_not_need_the_registry_lock(self, registry):
        instrument = registry.counter("free")
        with registry._lock:  # would deadlock if inc() took the registry lock
            instrument.inc()
        assert instrument.value == 1


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_counts(self, registry):
        instrument = registry.counter("contended")

        def work():
            for _ in range(1000):
                instrument.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot()["contended"] == 8000


    def test_racing_first_lookups_share_one_instrument(self, registry):
        import sys

        def work(worker):
            for _ in range(2000):
                registry.counter("raced", shard=worker % 2).inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.snapshot() == {"raced{shard=0}": 8000, "raced{shard=1}": 8000}


class TestExemplars:
    def test_bucket_keeps_most_recent_exemplar(self, registry):
        from repro.obs.metrics import Exemplar

        hist = registry.histogram("serve.request_ms")
        hist.observe(0.3, Exemplar("t1" * 16, "req1", 0.3))
        hist.observe(0.4, Exemplar("t2" * 16, "req2", 0.4))
        by_bound = dict(hist.bucket_exemplars())
        assert by_bound[0.5].request_id == "req2"

    def test_untraced_observation_leaves_exemplar_alone(self, registry):
        from repro.obs.metrics import Exemplar

        hist = registry.histogram("serve.request_ms")
        hist.observe(0.3, Exemplar("t1" * 16, "req1", 0.3))
        hist.observe(0.4)
        by_bound = dict(hist.bucket_exemplars())
        assert by_bound[0.5].request_id == "req1"

    def test_exemplars_land_in_value_bucket(self, registry):
        from repro.obs.metrics import DEFAULT_BUCKETS, Exemplar

        hist = registry.histogram("serve.request_ms")
        hist.observe(99999.0, Exemplar("t3" * 16, "req3", 99999.0))
        pairs = hist.bucket_exemplars()
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1].request_id == "req3"
        assert len(pairs) == len(DEFAULT_BUCKETS) + 1

    def test_exemplar_to_dict_is_json_ready(self):
        from repro.obs.metrics import Exemplar

        payload = Exemplar("ab" * 16, "reqx", 1.25, ts=1700000000.0).to_dict()
        assert json.loads(json.dumps(payload)) == {
            "trace_id": "ab" * 16, "request_id": "reqx",
            "value": 1.25, "ts": 1700000000.0,
        }


class TestDescriptions:
    def test_describe_and_lookup(self):
        from repro.obs.metrics import describe, description_of

        describe("metrics_test.example", "An example metric.")
        assert description_of("metrics_test.example") == "An example metric."
        assert description_of("metrics_test.never_described") is None
