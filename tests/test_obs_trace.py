"""Tracing core: span nesting, attributes, error capture, the ring of
root spans and the flat span record."""

import json
import threading
from collections import deque

import pytest

from repro.obs.trace import Tracer, get_tracer, set_tracer, span


@pytest.fixture
def tracer():
    """A fresh enabled tracer with a ring, installed as the global one."""
    fresh = Tracer(enabled=True)
    fresh.roots = deque(maxlen=1024)
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


class TestSpanNesting:
    def test_children_attach_to_parent(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                with tracer.span("leaf"):
                    pass
        assert [child.name for child in outer.children] == ["inner.a", "inner.b"]
        assert outer.children[1].children[0].name == "leaf"
        # Only the root lands in the ring; descendants via the tree.
        assert [root.name for root in tracer.roots] == ["outer"]
        assert len(list(outer.walk())) == 4

    def test_walk_reports_depth(self, tracer):
        with tracer.span("a") as a:
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [s.name for s, _ in a.walk()] == ["a", "b", "c"]
        assert [d for _, d in a.walk()] == [0, 1, 2]

    def test_attributes_at_open_and_set(self, tracer):
        with tracer.span("work", library="X") as s:
            s.set(schemas=3)
        assert s.attributes == {"library": "X", "schemas": 3}

    def test_duration_is_measured(self, tracer):
        with tracer.span("timed") as s:
            pass
        assert s.finished
        assert s.duration_ms >= 0.0

    def test_threads_get_independent_nesting(self, tracer):
        def work(name):
            with tracer.span(name):
                pass

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(root.name for root in tracer.roots) == ["t0", "t1", "t2", "t3"]
        assert all(root.parent is None for root in tracer.roots)


class TestErrorCapture:
    def test_exception_marks_span_error_and_rethrows(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing") as s:
                raise ValueError("boom")
        assert s.status == "error"
        assert s.error == "ValueError: boom"
        assert s.finished

    def test_error_spans_still_reach_sinks(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("nope")
        assert [root.status for root in tracer.roots] == ["error"]


class TestGlobalSpanHelper:
    def test_disabled_tracer_yields_noop(self):
        previous = set_tracer(Tracer(enabled=False))
        try:
            with span("anything", key="value") as s:
                s.set(more=1)  # absorbed, no error
            assert not hasattr(s, "attributes")
        finally:
            set_tracer(previous)

    def test_enabled_tracer_records(self, tracer):
        with span("recorded", n=1):
            pass
        assert [root.name for root in tracer.roots] == ["recorded"]
        assert get_tracer() is tracer


class TestJsonLinesSink:
    """The flat span record (``Span.to_record``) slow captures write, one
    JSON object per line."""

    def test_one_json_object_per_span_with_parent(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner", n=2):
                pass
        records = [json.loads(json.dumps(s.to_record())) for s, _ in outer.walk()]
        assert [r["name"] for r in records] == ["outer", "inner"]
        assert records[1]["parent"] == "outer"
        assert records[1]["attributes"] == {"n": 2}
        assert records[0]["parent"] is None
        assert all(r["status"] == "ok" for r in records)

    def test_records_carry_w3c_span_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        inner_record, outer_record = inner.to_record(), outer.to_record()
        assert outer_record["id"] == outer.span_id
        assert inner_record["parent_id"] == outer.span_id
        assert outer_record["parent_id"] is None
        assert "children" not in outer_record
        for record in (inner_record, outer_record):
            assert len(record["id"]) == 16
            assert record["id"] == record["id"].lower()
            int(record["id"], 16)


class TestRingBuffer:
    def test_capacity_bounds_roots(self):
        tracer = Tracer(enabled=True)
        tracer.roots = deque(maxlen=2)
        for name in ["a", "b", "c"]:
            with tracer.span(name):
                pass
        assert [root.name for root in tracer.roots] == ["b", "c"]

    def test_render_tree_indents(self, tracer):
        with tracer.span("outer", k="v"):
            with tracer.span("inner"):
                pass
        lines = tracer.render_tree().splitlines()
        assert lines[0].startswith("outer ")
        assert "k=v" in lines[0]
        assert lines[1].startswith("  inner ")

    def test_without_a_ring_roots_are_not_kept(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.roots is None
        assert tracer.render_tree() == ""
