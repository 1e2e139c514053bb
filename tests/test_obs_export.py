"""Prometheus exposition: rendering, escaping, parse-back, quantiles."""

import math

import pytest

from repro.obs.export import (
    counter_exposition_name,
    escape_label_value,
    format_le,
    format_value,
    parse_prometheus_text,
    quantile_from_buckets,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Exemplar, MetricsRegistry, describe


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    fresh.counter("xsdgen.schemas_generated").inc(7)
    fresh.counter("serve.requests_total", endpoint="validate").inc(3)
    fresh.counter("serve.requests_total", endpoint="generate").inc(1)
    fresh.gauge("serve.queue_depth").set(2)
    hist = fresh.histogram("serve.request_ms", endpoint="validate")
    for value in (0.2, 0.8, 3.0, 40.0, 20000.0):
        hist.observe(value)
    return fresh


class TestNameSanitization:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("serve.request_ms") == "serve_request_ms"

    def test_already_valid_names_pass_through(self):
        assert sanitize_metric_name("up_time:total") == "up_time:total"

    def test_leading_digit_gets_prefixed(self):
        assert sanitize_metric_name("2xx.count") == "_2xx_count"

    def test_counters_gain_the_total_suffix(self):
        assert counter_exposition_name("serve.model_cache_hits") == (
            "serve_model_cache_hits_total"
        )

    def test_counters_already_suffixed_pass_through(self):
        assert counter_exposition_name("serve.requests_total") == (
            "serve_requests_total"
        )


class TestRendering:
    def test_help_and_type_lines_precede_samples(self, registry):
        text = render_prometheus(registry)
        lines = text.splitlines()
        type_index = lines.index("# TYPE serve_requests_total counter")
        help_index = next(
            i for i, line in enumerate(lines)
            if line.startswith("# HELP serve_requests_total ")
        )
        first_sample = next(
            i for i, line in enumerate(lines)
            if line.startswith("serve_requests_total{")
        )
        assert help_index < type_index < first_sample

    def test_help_uses_registered_description(self, registry):
        describe("export_test.described_widgets", "Widgets seen by the export test.")
        registry.counter("export_test.described_widgets").inc()
        text = render_prometheus(registry)
        assert (
            "# HELP export_test_described_widgets_total "
            "Widgets seen by the export test." in text
        )

    def test_help_falls_back_to_generic_text(self, registry):
        text = render_prometheus(registry)
        assert (
            "# HELP xsdgen_schemas_generated_total "
            "repro metric xsdgen.schemas_generated (counter)" in text
        )

    def test_unsuffixed_counters_expose_as_total(self, registry):
        registry.counter("serve.model_cache_hits").inc(2)
        families = parse_prometheus_text(render_prometheus(registry))
        assert families["serve_model_cache_hits_total"].type == "counter"
        assert "serve_model_cache_hits" not in families

    def test_histogram_families_have_bucket_sum_count(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE serve_request_ms histogram" in text
        assert 'serve_request_ms_bucket{endpoint="validate",le="+Inf"} 5' in text
        assert 'serve_request_ms_count{endpoint="validate"} 5' in text
        assert 'serve_request_ms_sum{endpoint="validate"}' in text

    def test_bucket_series_is_cumulative_and_complete(self, registry):
        families = parse_prometheus_text(render_prometheus(registry))
        buckets = families["serve_request_ms"].buckets({"endpoint": "validate"})
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1
        assert math.isinf(buckets[-1][0])
        assert buckets[-1][1] == 5

    def test_deterministic_output(self, registry):
        assert render_prometheus(registry) == render_prometheus(registry)

    def test_empty_registry_renders_empty_payload(self):
        assert parse_prometheus_text(render_prometheus(MetricsRegistry())) == {}

    def test_ends_with_single_newline(self, registry):
        text = render_prometheus(registry)
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestEscaping:
    def test_label_values_escape_per_spec(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_escaped_labels_round_trip_through_the_parser(self):
        registry = MetricsRegistry()
        nasty = 'path="/x\\y",\nend'
        registry.counter("hits", where=nasty).inc()
        families = parse_prometheus_text(render_prometheus(registry))
        [(name, labels, value)] = families["hits_total"].samples
        assert labels == {"where": nasty}
        assert value == 1

    def test_registry_render_prometheus_delegates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert registry.render_prometheus() == render_prometheus(registry)


class TestValueFormatting:
    def test_integers_stay_integers(self):
        assert format_value(3) == "3"
        assert format_value(3.0) == "3"

    def test_infinities_spelled_out(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_le(float("inf")) == "+Inf"

    def test_le_values_are_compact(self):
        assert format_le(0.25) == "0.25"
        assert format_le(10.0) == "10"


class TestParser:
    def test_parse_back_reconstructs_families(self, registry):
        families = parse_prometheus_text(render_prometheus(registry))
        assert families["serve_requests_total"].type == "counter"
        assert families["serve_queue_depth"].type == "gauge"
        assert families["serve_request_ms"].type == "histogram"
        assert sum(families["serve_requests_total"].values()) == 4

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        with pytest.raises(ValueError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_rejects_unclosed_bucket_series(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="1"} 5\n'
        with pytest.raises(ValueError, match="not closed"):
            parse_prometheus_text(text)

    def test_rejects_count_bucket_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_count 4\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_prometheus_text(text)

    def test_rejects_garbage_lines(self):
        with pytest.raises(ValueError, match="unparsable"):
            parse_prometheus_text("this is not exposition format\n")

    def test_untyped_samples_are_tolerated(self):
        families = parse_prometheus_text("free_floating 12\n")
        assert families["free_floating"].type == "untyped"
        assert families["free_floating"].values() == [12.0]


class TestExemplars:
    def test_traced_observation_renders_openmetrics_exemplar(self, registry):
        hist = registry.histogram("serve.request_ms", endpoint="validate")
        hist.observe(0.3, Exemplar("a" * 32, "req000abc0001", 0.3, ts=1700000000.5))
        text = render_prometheus(registry, openmetrics=True)
        assert (
            'serve_request_ms_bucket{endpoint="validate",le="0.5"} 2 '
            f'# {{trace_id="{"a" * 32}",request_id="req000abc0001"}} '
            "0.3 1700000000.5" in text
        )

    def test_classic_rendering_never_emits_exemplars(self, registry):
        # The 0.0.4 text-format parser rejects exemplar trailers, so the
        # default rendering must strip them even for traced observations.
        hist = registry.histogram("serve.request_ms", endpoint="validate")
        hist.observe(0.3, Exemplar("a" * 32, "req000abc0001", 0.3))
        text = render_prometheus(registry)
        assert " # {" not in text
        assert "# EOF" not in text
        assert parse_prometheus_text(text)["serve_request_ms"].exemplars == []

    def test_openmetrics_payload_ends_with_eof(self, registry):
        text = render_prometheus(registry, openmetrics=True)
        assert text.endswith("# EOF\n")
        # The parser tolerates the terminator like any other comment.
        parse_prometheus_text(text)

    def test_openmetrics_counter_family_drops_total_suffix(self, registry):
        text = render_prometheus(registry, openmetrics=True)
        assert "# TYPE serve_requests counter" in text
        assert 'serve_requests_total{endpoint="validate"} 3' in text
        families = parse_prometheus_text(text)
        family = families["serve_requests"]
        assert family.type == "counter"
        assert sum(family.values()) == 4

    def test_exemplars_parse_back_losslessly(self, registry):
        trace_id = "b" * 32
        hist = registry.histogram("serve.request_ms", endpoint="validate")
        hist.observe(7.0, Exemplar(trace_id, "reqdeadbeef99", 7.0, ts=1700000001.25))
        families = parse_prometheus_text(
            render_prometheus(registry, openmetrics=True)
        )
        family = families["serve_request_ms"]
        matching = [
            entry for entry in family.exemplars
            if entry[2].get("trace_id") == trace_id
        ]
        assert len(matching) == 1
        name, labels, exemplar_labels, value, ts = matching[0]
        assert name == "serve_request_ms_bucket"
        assert labels["le"] == "10"
        assert exemplar_labels == {
            "trace_id": trace_id, "request_id": "reqdeadbeef99",
        }
        assert value == 7.0
        assert ts == 1700000001.25

    def test_exemplar_timestamp_is_optional_on_parse(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1 # {trace_id="c"} 0.5\n'
            "h_count 1\n"
        )
        families = parse_prometheus_text(text)
        [(_, _, exemplar_labels, value, ts)] = families["h"].exemplars
        assert exemplar_labels == {"trace_id": "c"}
        assert value == 0.5 and ts is None

    def test_untraced_buckets_carry_no_exemplar(self, registry):
        families = parse_prometheus_text(render_prometheus(registry))
        assert families["serve_request_ms"].exemplars == []

    def test_bucket_validation_ignores_exemplars(self, registry):
        hist = registry.histogram("serve.request_ms", endpoint="validate")
        hist.observe(50000.0, Exemplar("d" * 32, "reqoverflow01", 50000.0))
        # +Inf overflow bucket exemplar must not break cumulative checks.
        parse_prometheus_text(render_prometheus(registry, openmetrics=True))

    def test_label_value_containing_exemplar_syntax_is_plain_data(self):
        # A label value holding '} ' followed by '# {' must neither end
        # the label block early nor be mis-read as a phantom exemplar.
        registry = MetricsRegistry()
        nasty = 'prefix} # {trace_id="zzz"} 9 suffix'
        registry.counter("hits", path=nasty).inc(3)
        for openmetrics in (False, True):
            families = parse_prometheus_text(
                render_prometheus(registry, openmetrics=openmetrics)
            )
            family = families["hits" if openmetrics else "hits_total"]
            [(_, labels, value)] = family.samples
            assert labels == {"path": nasty}
            assert value == 3
            assert family.exemplars == []

    def test_exemplar_after_braced_label_value_still_parses(self):
        # '} ' and '#' inside a label value, then a real exemplar.
        trace = "e" * 32
        text = (
            "# TYPE h histogram\n"
            f'h_bucket{{path="a}}b#c",le="+Inf"}} 1 '
            f'# {{trace_id="{trace}"}} 0.5\n'
            "h_count 1\n"
        )
        families = parse_prometheus_text(text)
        [(name, labels, exemplar_labels, value, ts)] = families["h"].exemplars
        assert labels["path"] == "a}b#c"
        assert exemplar_labels == {"trace_id": "e" * 32}
        assert value == 0.5 and ts is None


class TestQuantileFromBuckets:
    def test_empty_series_is_zero(self):
        assert quantile_from_buckets([], 99.0) == 0.0

    def test_single_bucket_interpolates_inside_it(self):
        buckets = [(1.0, 0), (2.0, 10), (float("inf"), 10)]
        estimate = quantile_from_buckets(buckets, 50.0)
        assert 1.0 <= estimate <= 2.0

    def test_overflow_bucket_clamps_to_last_finite_bound(self):
        buckets = [(1.0, 0), (float("inf"), 10)]
        assert quantile_from_buckets(buckets, 99.0) == 1.0

    def test_matches_histogram_side_estimate(self):
        from repro.obs.metrics import Histogram

        hist = Histogram("h")
        for value in (0.3, 0.7, 2.0, 8.0, 30.0, 70.0, 200.0, 900.0):
            hist.observe(value)
        scraped = quantile_from_buckets(hist.cumulative_buckets(), 90.0)
        native = hist.quantile(90.0)
        # Same buckets, same interpolation; the native side additionally
        # clamps to observed min/max.
        assert scraped == pytest.approx(native, rel=0.35)

    @pytest.mark.parametrize("observations", [
        [1.2] * 90 + [3.1] * 10,
        [0.7] * 5 + [12000.0, 30000.0],  # the tail lies past the last finite bound
    ])
    def test_stats_quantile_is_the_clamped_scrape_quantile(self, observations):
        registry = MetricsRegistry()
        for value in observations:
            registry.histogram("h_ms").observe(value)
        stats = registry.snapshot()["h_ms"]  # what ``GET /stats`` serves
        buckets = parse_prometheus_text(render_prometheus(registry))["h_ms"].buckets()
        for q in (50, 90, 99):
            scraped = quantile_from_buckets(buckets, q)
            clamped = min(max(scraped, min(observations)), max(observations))
            assert stats[f"p{q}"] == round(clamped, 3)
