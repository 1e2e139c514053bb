"""W3C trace-context header parsing, rendering, and ambient propagation."""

from __future__ import annotations

import contextvars
import threading

import pytest

from repro.obs.propagation import (
    TraceContext,
    current_trace_context,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    parse_tracestate,
    render_traceparent,
    render_tracestate,
    use_trace_context,
)

TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
PARENT = "00f067aa0ba902b7"


class TestTraceparentParse:
    def test_canonical_header_round_trips(self):
        header = f"00-{TRACE}-{PARENT}-01"
        ctx = parse_traceparent(header)
        assert ctx is not None
        assert ctx.trace_id == TRACE
        assert ctx.parent_id == PARENT
        assert ctx.sampled is True
        assert render_traceparent(ctx) == header

    def test_unsampled_flag(self):
        ctx = parse_traceparent(f"00-{TRACE}-{PARENT}-00")
        assert ctx is not None and ctx.sampled is False
        assert render_traceparent(ctx).endswith("-00")

    def test_surrounding_whitespace_tolerated(self):
        assert parse_traceparent(f"  00-{TRACE}-{PARENT}-01 ") is not None

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "00",
            f"00-{TRACE}-{PARENT}",  # missing flags
            f"00-{TRACE[:-1]}-{PARENT}-01",  # short trace id
            f"00-{TRACE}Z-{PARENT}-01",  # non-hex
            f"00-{TRACE.upper()}-{PARENT}-01",  # uppercase forbidden
            f"00-{'0' * 32}-{PARENT}-01",  # all-zero trace id
            f"00-{TRACE}-{'0' * 16}-01",  # all-zero parent id
            f"ff-{TRACE}-{PARENT}-01",  # version ff invalid
            f"00-{TRACE}-{PARENT}-01-extra",  # v00 admits no extra fields
            f"0-{TRACE}-{PARENT}-01",  # short version
        ],
    )
    def test_rejects_malformed(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_with_extra_fields_parses(self):
        ctx = parse_traceparent(f"cc-{TRACE}-{PARENT}-01-what-the-future-holds")
        assert ctx is not None
        assert ctx.trace_id == TRACE

    def test_unknown_flag_bits_only_sampled_is_read(self):
        ctx = parse_traceparent(f"00-{TRACE}-{PARENT}-fe")
        assert ctx is not None and ctx.sampled is False
        ctx = parse_traceparent(f"00-{TRACE}-{PARENT}-ff")
        assert ctx is not None and ctx.sampled is True


class TestTracestate:
    def test_ordered_entries_round_trip(self):
        header = "rojo=00f067aa0ba902b7,congo=t61rcWkgMzE"
        entries = parse_tracestate(header)
        assert entries == (("rojo", "00f067aa0ba902b7"), ("congo", "t61rcWkgMzE"))
        assert render_tracestate(entries) == header

    def test_empty_and_malformed_members_dropped(self):
        entries = parse_tracestate("a=1,, ,BAD=2,c,=x,d=4")
        assert entries == (("a", "1"), ("d", "4"))

    def test_duplicate_keys_keep_first(self):
        assert parse_tracestate("a=1,a=2") == (("a", "1"),)

    def test_vendor_tenant_keys_accepted(self):
        assert parse_tracestate("tenant@vendor=ok") == (("tenant@vendor", "ok"),)

    def test_entry_count_bounded(self):
        header = ",".join(f"k{i}=v" for i in range(64))
        assert len(parse_tracestate(header)) == 32

    def test_none_and_empty(self):
        assert parse_tracestate(None) == ()
        assert parse_tracestate("") == ()
        assert render_tracestate(()) == ""


class TestIds:
    def test_shapes(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_randomness(self):
        assert len({new_trace_id() for _ in range(64)}) == 64


class TestTraceContext:
    def test_new_and_child(self):
        ctx = TraceContext.new()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.parent_id != ctx.parent_id
        assert parse_traceparent(ctx.to_traceparent()) == TraceContext(
            trace_id=ctx.trace_id, parent_id=ctx.parent_id, sampled=True
        )


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_trace_context() is None

    def test_use_sets_and_restores(self):
        ctx = TraceContext.new()
        with use_trace_context(ctx) as active:
            assert active is ctx
            assert current_trace_context() is ctx
        assert current_trace_context() is None

    def test_survives_copy_context_thread_hop(self):
        """A thread hop that runs its work in a context snapshot keeps it."""
        ctx = TraceContext.new()
        seen: list[TraceContext | None] = []
        with use_trace_context(ctx):
            snapshot = contextvars.copy_context()
        thread = threading.Thread(target=lambda: seen.append(snapshot.run(current_trace_context)))
        thread.start()
        thread.join()
        assert seen == [ctx]
