"""Tests for repro.obs.query -- offline telemetry filtering.

Covers the pure filters (status classes, time bounds), rotated
access-log discovery, slow-capture summarization from span-tree JSONL
files, alert-ring queries, tolerance of malformed lines, and the
``upcc obs query`` CLI wiring.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.query import (
    access_log_paths,
    main,
    parse_when,
    query_jsonl as query_access_log,
    query_jsonl as query_alerts,
    query_slow_captures,
    read_jsonl,
    status_matches,
)


def _write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


ACCESS_RECORDS = [
    {"ts": 100.0, "method": "POST", "path": "/validate", "status": 200,
     "request_id": "req-a", "trace_id": "a" * 32},
    {"ts": 200.0, "method": "POST", "path": "/validate", "status": 400,
     "request_id": "req-b", "trace_id": "b" * 32},
    {"ts": 300.0, "method": "GET", "path": "/healthz", "status": 200,
     "request_id": "req-c", "trace_id": ""},
    {"ts": 400.0, "method": "POST", "path": "/validate", "status": 503,
     "request_id": "req-d", "trace_id": "d" * 32},
]


class TestStatusMatching:
    @pytest.mark.parametrize("status,pattern,expected", [
        (200, "200", True),
        (200, "2xx", True),
        (404, "4xx", True),
        (503, "5xx", True),
        (200, "4xx", False),
        (200, "201", False),
        ("503", "503", True),
        (40, "4xx", False),  # class patterns need three digits
    ])
    def test_matches(self, status, pattern, expected):
        assert status_matches(status, pattern) is expected


class TestParseWhen:
    def test_none_passes_through(self):
        assert parse_when(None) is None

    def test_unix_seconds(self):
        assert parse_when("1723100000.5") == 1723100000.5

    def test_iso_naive_is_utc(self):
        assert parse_when("1970-01-01T00:01:40") == 100.0

    def test_iso_with_offset(self):
        assert parse_when("1970-01-01T01:01:40+01:00") == 100.0

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_when("yesterday")


class TestReadJsonl:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_jsonl(tmp_path / "absent.jsonl")) == []

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ok": 1}\n{broken\n\n[1, 2]\n{"ok": 2}\n')
        assert list(read_jsonl(path)) == [{"ok": 1}, {"ok": 2}]


class TestAccessLogQuery:
    def test_filter_by_trace_id(self, tmp_path):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        matches = query_access_log(log, trace_id="b" * 32)
        assert [m["request_id"] for m in matches] == ["req-b"]

    def test_filter_by_request_id(self, tmp_path):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        matches = query_access_log(log, request_id="req-d")
        assert [m["status"] for m in matches] == [503]

    def test_filter_by_status_class(self, tmp_path):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        matches = query_access_log(log, status="4xx")
        assert [m["request_id"] for m in matches] == ["req-b"]

    def test_filter_by_time_window(self, tmp_path):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        matches = query_access_log(log, since=150.0, until=350.0)
        assert [m["request_id"] for m in matches] == ["req-b", "req-c"]

    def test_limit_keeps_newest(self, tmp_path):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        matches = query_access_log(log, limit=2)
        assert [m["request_id"] for m in matches] == ["req-c", "req-d"]

    def test_rotated_generations_read_oldest_first(self, tmp_path):
        log = tmp_path / "access.jsonl"
        _write_jsonl(tmp_path / "access.jsonl.2", ACCESS_RECORDS[:1])
        _write_jsonl(tmp_path / "access.jsonl.1", ACCESS_RECORDS[1:2])
        _write_jsonl(log, ACCESS_RECORDS[2:])
        assert [p.name for p in access_log_paths(log)] == [
            "access.jsonl.2", "access.jsonl.1", "access.jsonl",
        ]
        matches = query_access_log(log)
        assert [m["request_id"] for m in matches] == [
            "req-a", "req-b", "req-c", "req-d",
        ]

    def test_missing_log_is_empty(self, tmp_path):
        assert query_access_log(tmp_path / "nope.jsonl") == []


def _write_capture(directory, seq, request_id, trace_id, *, status=200,
                   endpoint="validate", duration_ms=120.0):
    directory.mkdir(parents=True, exist_ok=True)
    root = {
        "name": "serve.request", "duration_ms": duration_ms, "cpu_ms": 1.0,
        "status": "ok", "id": "root", "parent_id": None,
        "attributes": {"endpoint": endpoint, "trace_id": trace_id,
                       "status": status},
    }
    child = {"name": "app.validate", "duration_ms": 100.0, "cpu_ms": 1.0,
             "status": "ok", "id": "c1", "parent_id": "root"}
    _write_jsonl(directory / f"slow-{seq:06d}-{request_id}.jsonl", [root, child])


class TestSlowCaptureQuery:
    def test_summaries_from_span_trees(self, tmp_path):
        slow = tmp_path / "slow"
        _write_capture(slow, 1, "req-a", "a" * 32)
        _write_capture(slow, 2, "req-b", "b" * 32, status=400)
        summaries = query_slow_captures(slow)
        assert [s["request_id"] for s in summaries] == ["req-a", "req-b"]
        assert summaries[0]["trace_id"] == "a" * 32
        assert summaries[0]["spans"] == 2
        assert summaries[0]["endpoint"] == "validate"

    def test_filter_by_trace_and_status(self, tmp_path):
        slow = tmp_path / "slow"
        _write_capture(slow, 1, "req-a", "a" * 32)
        _write_capture(slow, 2, "req-b", "b" * 32, status=400)
        assert [s["request_id"] for s in query_slow_captures(slow, trace_id="b" * 32)] == ["req-b"]
        assert [s["request_id"] for s in query_slow_captures(slow, status="4xx")] == ["req-b"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert query_slow_captures(tmp_path / "nope") == []


ALERTS = [
    {"ts": 10.0, "slo": "avail", "state": "firing", "burn_fast": 20.0},
    {"ts": 20.0, "slo": "avail", "state": "resolved", "burn_fast": 0.0},
    {"ts": 30.0, "slo": "latency", "state": "firing", "burn_fast": 3.0},
]


class TestAlertQuery:
    def test_filter_by_slo_and_state(self, tmp_path):
        ring = tmp_path / "alerts.jsonl"
        _write_jsonl(ring, ALERTS)
        assert len(query_alerts(ring, slo="avail")) == 2
        firing = query_alerts(ring, state="firing")
        assert [a["slo"] for a in firing] == ["avail", "latency"]

    def test_time_window(self, tmp_path):
        ring = tmp_path / "alerts.jsonl"
        _write_jsonl(ring, ALERTS)
        assert [a["ts"] for a in query_alerts(ring, since=15.0, until=25.0)] == [20.0]

    def test_rotated_generation_is_read_before_the_live_file(self, tmp_path):
        ring = tmp_path / "alerts.jsonl"
        _write_jsonl(tmp_path / "alerts.jsonl.1", ALERTS[:2])
        _write_jsonl(ring, ALERTS[2:])
        assert [a["ts"] for a in query_alerts(ring)] == [10.0, 20.0, 30.0]


class TestCli:
    def test_requires_a_source(self, capsys):
        assert main(["--trace-id", "a" * 32]) == 2
        assert "nothing to query" in capsys.readouterr().err

    def test_bad_time_bound(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        assert main(["--access-log", str(log), "--since", "lately"]) == 2
        assert "ISO-8601" in capsys.readouterr().err

    def test_negative_limit_is_rejected(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        assert main(["--access-log", str(log), "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--limit" in captured.err
        assert captured.out == ""

    def test_alerts_query_reads_rotated_generations(self, tmp_path, capsys):
        ring = tmp_path / "alerts.jsonl"
        _write_jsonl(tmp_path / "alerts.jsonl.1", ALERTS[:1])
        _write_jsonl(ring, ALERTS[1:])
        assert main(["--alerts", str(ring), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [a["ts"] for a in document["alerts"]] == [10.0, 20.0, 30.0]

    def test_jsonl_output_tags_sources(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        ring = tmp_path / "alerts.jsonl"
        _write_jsonl(ring, ALERTS)
        rc = main([
            "--access-log", str(log), "--alerts", str(ring),
            "--status", "4xx", "--slo", "latency",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert {l["source"] for l in lines} == {"access", "alerts"}
        assert "match(es)" in captured.err

    def test_json_document_output(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        rc = main(["--access-log", str(log), "--trace-id", "d" * 32, "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert [r["request_id"] for r in document["access"]] == ["req-d"]

    def test_upcc_obs_query_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        log = tmp_path / "access.jsonl"
        _write_jsonl(log, ACCESS_RECORDS)
        rc = cli_main([
            "obs", "query", "--access-log", str(log),
            "--request-id", "req-b", "--json",
        ])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in document["access"]] == [400]

    def test_end_to_end_against_a_real_daemon_trail(self, tmp_path, capsys):
        """Round-trip: serve with trace + alert files, then query offline."""
        from repro.serve import ServeApp, ServeConfig, UpccServer
        from tests.test_serve import TRACE_ID, TRACEPARENT, _traced_request

        config = ServeConfig(
            workers=2, queue_size=16,
            access_log=str(tmp_path / "access.jsonl"),
            slow_ms=0.0, slow_dir=str(tmp_path / "slow"),
        )
        with UpccServer(ServeApp(), config) as server:
            status, _, _ = _traced_request(
                server, "GET", "/healthz",
                headers={"traceparent": TRACEPARENT},
            )
            assert status == 200
        rc = main([
            "--access-log", str(tmp_path / "access.jsonl"),
            "--slow-dir", str(tmp_path / "slow"),
            "--trace-id", TRACE_ID, "--json",
        ])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["access"], document
        assert document["access"][0]["trace_id"] == TRACE_ID
        assert document["slow"], document
        assert document["slow"][0]["trace_id"] == TRACE_ID
