"""Span-tree profiling: aggregation, renderings, CPU capture, cProfile attach."""

import json
from collections import deque

import pytest

from repro.obs.prof import (
    Profile,
    build_profile,
    cprofile_session,
    cprofile_stats_text,
    profile_from_tracer,
)
from repro.obs.trace import Span, Tracer, set_tracer


def _span(name, wall_ms, cpu_ms=None, children=()):
    """A finished span with exact timings (profiles need controlled input)."""
    made = Span(name=name)
    made.started_at = 0.0
    made.ended_at = wall_ms / 1000.0
    made.cpu_ns = int((cpu_ms if cpu_ms is not None else wall_ms) * 1e6)
    for child in children:
        child.parent = made
        made.children.append(child)
    return made


@pytest.fixture
def tracer():
    fresh = Tracer(enabled=True)
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


class TestAggregation:
    def test_counts_and_totals_per_path(self):
        root = _span(
            "generate",
            10.0,
            children=[_span("library", 3.0), _span("library", 5.0)],
        )
        profile = build_profile([root])
        assert profile.span_count == 3
        node = profile.nodes[("generate", "library")]
        assert node.count == 2
        assert node.wall_ms == pytest.approx(8.0)
        assert node.min_ms == pytest.approx(3.0)
        assert node.max_ms == pytest.approx(5.0)

    def test_self_time_subtracts_children(self):
        root = _span("generate", 10.0, children=[_span("library", 4.0)])
        profile = build_profile([root])
        assert profile.nodes[("generate",)].self_wall_ms == pytest.approx(6.0)
        assert profile.nodes[("generate", "library")].self_wall_ms == pytest.approx(4.0)

    def test_self_time_clamps_at_zero(self):
        # Clock granularity can make children sum past the parent.
        root = _span("generate", 3.0, children=[_span("library", 5.0)])
        profile = build_profile([root])
        assert profile.nodes[("generate",)].self_wall_ms == 0.0

    def test_same_name_different_parents_stay_separate(self):
        roots = [
            _span("generate", 4.0, children=[_span("library", 2.0)]),
            _span("parallel", 4.0, children=[_span("library", 2.0)]),
        ]
        profile = build_profile(roots)
        assert ("generate", "library") in profile.nodes
        assert ("parallel", "library") in profile.nodes
        assert profile.nodes[("generate", "library")].count == 1

    def test_cpu_split_tracked_independently(self):
        # 10ms wall / 2ms CPU: a span that mostly waited.
        root = _span("generate", 10.0, cpu_ms=2.0, children=[_span("library", 4.0, cpu_ms=1.0)])
        profile = build_profile([root])
        node = profile.nodes[("generate",)]
        assert node.cpu_ms == pytest.approx(2.0)
        assert node.self_cpu_ms == pytest.approx(1.0)
        assert node.self_wall_ms == pytest.approx(6.0)

    def test_multiple_trees_accumulate(self):
        profile = Profile()
        for _ in range(3):
            profile.add_span_tree(_span("generate", 2.0))
        assert profile.nodes[("generate",)].count == 3
        assert profile.span_count == 3


class TestRenderings:
    def _profile(self):
        return build_profile(
            [
                _span(
                    "generate",
                    10.0,
                    children=[_span("library", 3.0), _span("library", 5.0)],
                )
            ]
        )

    def test_table_orders_hottest_first(self):
        table = self._profile().render_table(top=10)
        lines = table.splitlines()
        assert lines[0].strip().startswith("count")
        # library self (8ms) beats generate self (2ms).
        assert "generate;library" in lines[2]
        assert lines[-1].startswith("(2 path(s), 3 span(s)")

    def test_table_top_limits_rows(self):
        table = self._profile().render_table(top=1)
        assert "generate;library" in table
        body = [line for line in table.splitlines()[2:-1]]
        assert len(body) == 1

    def test_json_round_trips_deterministically(self):
        profile = self._profile()
        first = json.loads(profile.render_json())
        second = json.loads(profile.render_json())
        assert first == second
        assert first["span_count"] == 3
        stacks = [node["stack"] for node in first["nodes"]]
        assert stacks == ["generate", "generate;library"]

    def test_collapsed_lines_use_self_wall_microseconds(self):
        collapsed = self._profile().to_collapsed()
        assert collapsed.splitlines() == [
            "generate 2000",
            "generate;library 8000",
        ]

    def test_render_dispatches_all_formats(self):
        profile = self._profile()
        assert profile.render("table").startswith(" count") or "count" in profile.render("table")
        assert json.loads(profile.render("json"))
        assert "generate" in profile.render("collapsed")
        with pytest.raises(ValueError):
            profile.render("svg")

    def test_sorted_nodes_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            self._profile().sorted_nodes(by="latency")

    def test_empty_profile_renders(self):
        assert build_profile([]).render_table() == "(no spans profiled)"
        assert build_profile([]).to_collapsed() == ""


class TestTracerIntegration:
    def test_profile_from_tracer_folds_ring_buffer(self):
        tracer = Tracer(enabled=True)
        tracer.roots = deque(maxlen=1024)
        for _ in range(2):
            with tracer.span("generate"):
                with tracer.span("library"):
                    pass
        profile = profile_from_tracer(tracer)
        assert profile.nodes[("generate",)].count == 2
        assert profile.nodes[("generate", "library")].count == 2

    def test_profile_from_tracer_without_ring_is_empty(self, tracer):
        assert profile_from_tracer(tracer).span_count == 0

    def test_spans_capture_thread_cpu_time(self, tracer):
        with tracer.span("busy") as busy:
            total = 0
            for i in range(200_000):
                total += i * i
        assert busy.cpu_ns is not None
        assert busy.cpu_ms > 0.0
        # CPU-bound work: CPU time tracks wall time within scheduler noise.
        assert busy.cpu_ms <= busy.duration_ms * 1.5 + 1.0

    def test_open_span_reports_zero_cpu(self, tracer):
        with tracer.span("open") as open_span:
            assert open_span.cpu_ms == 0.0
        assert open_span.cpu_ms >= 0.0

    def test_to_dict_includes_cpu(self, tracer):
        with tracer.span("timed") as timed:
            pass
        assert "cpu_ms" in timed.to_record()


class TestCprofileAttach:
    def test_session_captures_function_stats(self):
        def busy():
            return sum(i * i for i in range(50_000))

        with cprofile_session() as profiler:
            busy()
        text = cprofile_stats_text(profiler, top=5)
        assert "function calls" in text
        assert "cumulative" in text

    def test_stats_text_honors_sort(self):
        with cprofile_session() as profiler:
            sum(range(1000))
        text = cprofile_stats_text(profiler, top=3, sort="tottime")
        assert "internal time" in text


class TestTraceEvents:
    def test_empty_input_yields_empty_document(self):
        from repro.obs.prof import to_trace_events

        document = to_trace_events([])
        assert document == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_spans_become_complete_events_rebased_to_zero(self):
        from repro.obs.prof import to_trace_events

        child = _span("xsdgen.library", 40.0)
        child.started_at, child.ended_at = 105.0, 105.040
        root = _span("serve.request", 100.0, children=[child])
        root.started_at, root.ended_at = 105.0, 105.100
        document = to_trace_events([root])
        events = document["traceEvents"]
        assert len(events) == 2
        root_event = next(e for e in events if e["name"] == "serve.request")
        assert root_event["ph"] == "X"
        assert root_event["ts"] == 0.0
        assert root_event["dur"] == pytest.approx(100_000.0, rel=0.01)  # µs
        child_event = next(e for e in events if e["name"] == "xsdgen.library")
        assert child_event["args"]["parent_id"] == root.span_id

    def test_each_tree_gets_its_own_tid(self):
        from repro.obs.prof import to_trace_events

        first, second = _span("a", 1.0), _span("b", 1.0)
        events = to_trace_events([first, second])["traceEvents"]
        assert {event["tid"] for event in events} == {1, 2}

    def test_attributes_and_status_ride_in_args(self):
        from repro.obs.prof import to_trace_events

        root = _span("serve.request", 5.0)
        root.attributes = {"endpoint": "validate", "docs": 3}
        root.status = "error"
        root.error = "ValueError: boom"
        [event] = to_trace_events([root])["traceEvents"]
        assert event["args"]["endpoint"] == "validate"
        assert event["args"]["status"] == "error"
        assert event["args"]["error"] == "ValueError: boom"

    def test_render_trace_events_is_json(self):
        from repro.obs.prof import render_trace_events

        text = render_trace_events([_span("a", 1.0)])
        document = json.loads(text)
        assert document["displayTimeUnit"] == "ms"

    def test_unfinished_spans_are_skipped(self):
        from repro.obs.prof import to_trace_events

        open_span = Span(name="still.open")
        open_span.started_at = 1.0
        finished = _span("done", 1.0)
        finished.children.append(open_span)
        open_span.parent = finished
        events = to_trace_events([finished])["traceEvents"]
        assert [event["name"] for event in events] == ["done"]
