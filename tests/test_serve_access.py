"""Access log, request ids and the slow-request capture store."""

import json

import pytest

from repro.obs.trace import Tracer
from repro.serve.access import (
    ACCESS_LOG_FIELDS,
    AccessLog,
    SlowRequestStore,
    new_request_id,
)


class TestRequestIds:
    def test_ids_are_short_hex(self):
        request_id = new_request_id()
        assert len(request_id) == 12
        int(request_id, 16)  # hex or raise

    def test_ids_are_unique(self):
        assert len({new_request_id() for _ in range(256)}) == 256


class TestAccessLog:
    def test_record_schema(self, tmp_path):
        log = AccessLog(tmp_path / "access.jsonl")
        record = log.log(
            method="POST", path="/validate", status=200, duration_ms=12.3456,
            queue_wait_ms=1.2, request_id="abc123", span_id="s9",
        )
        assert tuple(sorted(record)) == tuple(sorted(ACCESS_LOG_FIELDS))
        assert record["duration_ms"] == 12.346
        assert record["status"] == 200

    def test_jsonl_file_gets_one_parsable_line_per_request(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        for index in range(5):
            log.log(method="GET", path="/healthz", status=200,
                    duration_ms=0.1, request_id=f"id{index}")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert log.lines_written == 5
        parsed = [json.loads(line) for line in lines]
        assert [record["request_id"] for record in parsed] == [
            "id0", "id1", "id2", "id3", "id4"
        ]

    def test_ring_is_bounded_and_ordered(self):
        log = AccessLog(ring=3)
        for index in range(10):
            log.log(method="GET", path=f"/{index}", status=200,
                    duration_ms=1.0, request_id=str(index))
        recent = log.recent()
        assert [record["path"] for record in recent] == ["/7", "/8", "/9"]

    def test_ring_only_mode_needs_no_file(self):
        log = AccessLog()
        log.log(method="GET", path="/stats", status=200, duration_ms=0.5)
        assert log.path is None
        assert len(log.recent()) == 1

    def test_ring_only_mode_builds_no_json(self, monkeypatch):
        import repro.serve.access as access

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called without a log file")

        monkeypatch.setattr(access.json, "dumps", refuse)
        log = AccessLog()
        for index in range(3):
            log.log(method="GET", path="/stats", status=200, duration_ms=0.5,
                    request_id=str(index))
        assert len(log.recent()) == 3

    def test_file_moved_from_outside_keeps_receiving_writes(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        log.log(method="GET", path="/a", status=200, duration_ms=0.1)
        moved = path.rename(tmp_path / "moved.jsonl")
        log.log(method="GET", path="/b", status=200, duration_ms=0.1)
        log.close()
        assert [json.loads(line)["path"] for line in moved.read_text().splitlines()] == [
            "/a", "/b"
        ]
        assert not path.exists()

    def test_close_stops_file_writes_but_keeps_the_ring(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        log.log(method="GET", path="/a", status=200, duration_ms=0.1)
        log.close()
        log.close()  # idempotent
        log.log(method="GET", path="/b", status=200, duration_ms=0.1)
        assert len(path.read_text().splitlines()) == 1
        assert [record["path"] for record in log.recent()] == ["/a", "/b"]

    def test_failed_open_is_retried_by_the_next_record(self, tmp_path, monkeypatch):
        from pathlib import Path

        path = tmp_path / "access.jsonl"
        real_open = Path.open
        failures = []

        def fail_once(self, *args, **kwargs):
            if not failures:
                failures.append(self)
                raise OSError("EMFILE: too many open files")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", fail_once)
        log = AccessLog(path)
        assert failures == [path]
        log.log(method="GET", path="/a", status=200, duration_ms=0.1)
        log.close()
        assert [json.loads(line)["path"] for line in path.read_text().splitlines()] == ["/a"]
        assert log.lines_written == 1

    def test_creates_parent_directories(self, tmp_path):
        nested = tmp_path / "logs" / "deep" / "access.jsonl"
        AccessLog(nested).log(
            method="GET", path="/", status=200, duration_ms=0.1
        )
        assert nested.exists()


def _finished_span(tracer, slow_s=0.0):
    with tracer.span("serve.request", endpoint="validate") as root:
        with tracer.span("validate.doc"):
            if slow_s:
                import time

                time.sleep(slow_s)
    return root


class TestSlowRequestStore:
    @pytest.fixture
    def tracer(self):
        return Tracer(enabled=True)

    def test_capture_writes_jsonl_and_trace(self, tmp_path, tracer):
        store = SlowRequestStore(tmp_path, keep=4)
        root = _finished_span(tracer)
        entry = store.capture(root, request_id="req1", threshold_ms=0.0)
        assert entry["spans"] == 2
        jsonl = (tmp_path / entry["jsonl"]).read_text(encoding="utf-8")
        spans = [json.loads(line) for line in jsonl.splitlines()]
        assert {span["name"] for span in spans} == {"serve.request", "validate.doc"}
        assert any(span["parent_id"] is None for span in spans)
        trace = json.loads((tmp_path / entry["trace"]).read_text(encoding="utf-8"))
        assert trace["displayTimeUnit"] == "ms"
        assert len(trace["traceEvents"]) == 2
        assert all(event["ph"] == "X" for event in trace["traceEvents"])

    def test_ring_is_bounded_on_disk(self, tmp_path, tracer):
        store = SlowRequestStore(tmp_path, keep=2)
        for index in range(5):
            store.capture(_finished_span(tracer), request_id=f"req{index}")
        assert len(store) == 2
        files = sorted(path.name for path in tmp_path.iterdir())
        assert len(files) == 4  # 2 captures x (jsonl + trace)
        listed = store.list()
        assert [entry["request_id"] for entry in listed] == ["req3", "req4"]
        assert all((tmp_path / entry["jsonl"]).exists() for entry in listed)

    def test_ring_is_bounded_across_restarts(self, tmp_path, tracer):
        first = SlowRequestStore(tmp_path, keep=2)
        for index in range(3):
            first.capture(_finished_span(tracer), request_id=f"old{index}")
        second = SlowRequestStore(tmp_path, keep=2)
        assert [entry["request_id"] for entry in second.list()] == ["old1", "old2"]
        assert second.list()[0]["endpoint"] == "validate"
        for index in range(3):
            second.capture(_finished_span(tracer), request_id=f"new{index}")
        assert len(list(tmp_path.iterdir())) == 4  # 2 captures x (jsonl + trace)
        assert [entry["request_id"] for entry in second.list()] == ["new1", "new2"]

    def test_index_entries_carry_duration_and_endpoint(self, tmp_path, tracer):
        store = SlowRequestStore(tmp_path)
        root = _finished_span(tracer, slow_s=0.01)
        entry = store.capture(root, request_id="slowone", threshold_ms=5.0)
        assert entry["endpoint"] == "validate"
        assert entry["duration_ms"] >= 10.0
        assert entry["threshold_ms"] == 5.0


class TestAccessLogRotation:
    def _fill(self, log, n, path="/validate"):
        for index in range(n):
            log.log(method="POST", path=path, status=200,
                    duration_ms=1.0, request_id=f"req{index:04d}")

    def test_rotates_once_past_max_bytes(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=600, keep_rolled=2)
        self._fill(log, 10)
        assert log.rotations >= 1
        rolled = path.with_name("access.jsonl.1")
        assert rolled.exists()
        # Every line in every generation is still valid JSON:
        for file in (path, rolled):
            if file.exists():
                for line in file.read_text(encoding="utf-8").splitlines():
                    json.loads(line)

    def test_keep_rolled_bounds_generations(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=200, keep_rolled=2)
        self._fill(log, 40)
        generations = sorted(p.name for p in tmp_path.iterdir())
        assert set(generations) <= {
            "access.jsonl", "access.jsonl.1", "access.jsonl.2"
        }
        assert "access.jsonl.1" in generations
        assert log.rotations > 2  # older generations were dropped, not kept

    def test_no_records_lost_across_rotation(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=500, keep_rolled=8)
        self._fill(log, 12)
        records = []
        for file in sorted(tmp_path.iterdir()):
            for line in file.read_text(encoding="utf-8").splitlines():
                records.append(json.loads(line))
        assert len(records) == 12
        assert {r["request_id"] for r in records} == {
            f"req{i:04d}" for i in range(12)
        }

    def test_existing_file_size_counts_toward_the_bound(self, tmp_path):
        path = tmp_path / "access.jsonl"
        self._fill(AccessLog(path), 5)
        size = path.stat().st_size
        log = AccessLog(path, max_bytes=size + 10, keep_rolled=2)
        self._fill(log, 1)
        assert log.rotations == 1

    def test_unbounded_by_default(self, tmp_path):
        log = AccessLog(tmp_path / "access.jsonl")
        self._fill(log, 20)
        assert log.rotations == 0
        assert log.max_bytes is None

    def test_size_accounting_counts_encoded_bytes(self, tmp_path):
        # Multibyte paths: the rotation trigger must track what stat()
        # reports (UTF-8 bytes), not Python character counts.
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=10_000, keep_rolled=2)
        self._fill(log, 3, path="/schémas/валидация/校验")
        assert log.rotations == 0
        assert log._bytes == path.stat().st_size

    def test_thousand_records_stay_bounded_and_parse(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=4096, keep_rolled=2)
        self._fill(log, 1000)
        log.close()
        files = sorted(tmp_path.iterdir())
        assert {file.name for file in files} <= {
            "access.jsonl", "access.jsonl.1", "access.jsonl.2"
        }
        for file in files:
            # One record may push a file past the bound before it rotates.
            assert file.stat().st_size <= 4096 + 300
            for line in file.read_text(encoding="utf-8").splitlines():
                json.loads(line)
        assert log.rotations > 10

    def test_failed_rotation_keeps_counter_and_retries(self, tmp_path, monkeypatch):
        from pathlib import Path

        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=300, keep_rolled=2)

        def refuse(self, target):
            raise OSError("EXDEV: cross-device link")

        monkeypatch.setattr(Path, "rename", refuse)
        self._fill(log, 10)
        # Rename failures must not reset the byte counter or count as
        # rotations -- otherwise the live file grows forever.
        assert log.rotations == 0
        assert log._bytes == path.stat().st_size
        assert log._bytes > 300
        monkeypatch.undo()
        # Once renames work again the very next append rotates:
        self._fill(log, 1)
        assert log.rotations == 1
        assert path.with_name("access.jsonl.1").exists()

    def test_failed_reopen_after_rotation_is_retried(self, tmp_path, monkeypatch):
        from pathlib import Path

        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=300, keep_rolled=2)
        real_open = Path.open
        failures = []

        def fail_once(self, *args, **kwargs):
            if not failures:
                failures.append(self)
                raise OSError("ENOSPC: no space left on device")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", fail_once)
        while not failures:
            self._fill(log, 1)
        assert log.rotations == 1
        self._fill(log, 1, path="/after")
        log.close()
        assert json.loads(path.read_text().splitlines()[-1])["path"] == "/after"

    def test_reopened_log_refills_its_ring_oldest_first(self, tmp_path):
        path = tmp_path / "access.jsonl"
        for name, first, count in (
            ("access.jsonl.2", 0, 3), ("access.jsonl.1", 3, 3), ("access.jsonl", 6, 2),
        ):
            self._fill(AccessLog(tmp_path / name), count)
            # Rename the request ids so each record says where it sits.
            records = [
                {**json.loads(line), "request_id": f"r{first + index}"}
                for index, line in enumerate((tmp_path / name).read_text().splitlines())
            ]
            (tmp_path / name).write_text(
                "".join(json.dumps(record) + "\n" for record in records)
            )
        log = AccessLog(path, ring=5, max_bytes=10_000, keep_rolled=2)
        assert [r["request_id"] for r in log.recent()] == ["r3", "r4", "r5", "r6", "r7"]
        # New records follow the refilled ones in the ring.
        self._fill(log, 1, path="/new")
        assert [r["path"] for r in log.recent()][-2:] == ["/validate", "/new"]

    def test_smaller_keep_deletes_the_higher_generations(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=200, keep_rolled=3)
        self._fill(log, 40)
        log.close()
        assert path.with_name("access.jsonl.3").exists()
        restarted = AccessLog(path, ring=100, max_bytes=200, keep_rolled=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "access.jsonl", "access.jsonl.1"
        ]
        # The restart read saw only the generations it keeps.
        kept = [
            json.loads(line)["request_id"]
            for name in ("access.jsonl.1", "access.jsonl")
            for line in (tmp_path / name).read_text(encoding="utf-8").splitlines()
        ]
        assert [r["request_id"] for r in restarted.recent()] == kept

    def test_refill_skips_a_torn_line(self, tmp_path):
        path = tmp_path / "access.jsonl"
        self._fill(AccessLog(path), 2)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"ts": 1.0, "method": "GE')
        log = AccessLog(path, ring=8)
        assert [r["request_id"] for r in log.recent()] == ["req0000", "req0001"]


class TestTraceIdField:
    def test_trace_id_recorded_and_in_schema(self, tmp_path):
        log = AccessLog(tmp_path / "access.jsonl")
        trace_id = "ab" * 16
        record = log.log(
            method="POST", path="/validate", status=200, duration_ms=1.0,
            request_id="req1", span_id="s1", trace_id=trace_id,
        )
        assert record["trace_id"] == trace_id
        assert "trace_id" in ACCESS_LOG_FIELDS

    def test_trace_id_defaults_to_empty(self):
        log = AccessLog()
        record = log.log(method="GET", path="/healthz", status=200, duration_ms=0.1)
        assert record["trace_id"] == ""

    def test_slow_capture_carries_trace_id(self, tmp_path):
        tracer = Tracer(enabled=True)
        store = SlowRequestStore(tmp_path)
        root = _finished_span(tracer)
        entry = store.capture(root, request_id="req1", trace_id="cd" * 16)
        assert entry["trace_id"] == "cd" * 16
        assert store.list()[0]["trace_id"] == "cd" * 16
