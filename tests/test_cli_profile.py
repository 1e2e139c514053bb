"""CLI surface for profiling: ``upcc profile`` and ``upcc stats --json``."""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer


@pytest.fixture(autouse=True)
def _restore_globals():
    previous_tracer = set_tracer(Tracer(enabled=False))
    previous_registry = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


class TestProfileCommand:
    def test_table_to_stdout(self, capsys):
        assert main(["profile", "easybiz", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "count" in out
        assert "xsdgen.generate" in out
        assert "xsdgen.generate;xsdgen.library" in out

    def test_collapsed_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "profile.folded"
        code = main([
            "profile", "easybiz", "--runs", "1",
            "--profile-format", "collapsed", "--profile-out", str(out_file),
        ])
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack.startswith("xsdgen.generate")
            assert int(value) >= 0

    def test_json_format_is_machine_readable(self, capsys):
        assert main(["profile", "easybiz", "--runs", "1", "--profile-format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stacks = [node["stack"] for node in payload["nodes"]]
        assert any(stack.startswith("xsdgen.generate;xsdgen.library") for stack in stacks)
        assert payload["span_count"] >= len(stacks)

    def test_repeated_runs_fold_into_counts(self, capsys):
        assert main(["profile", "easybiz", "--runs", "3", "--profile-format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        generate = next(n for n in payload["nodes"] if n["stack"] == "xsdgen.generate")
        assert generate["count"] == 3

    def test_cprofile_attach(self, tmp_path):
        stats_file = tmp_path / "cprofile.txt"
        code = main([
            "profile", "easybiz", "--runs", "1", "--cprofile-out", str(stats_file),
        ])
        assert code == 0
        assert "function calls" in stats_file.read_text(encoding="utf-8")

    def test_ecommerce_catalog(self, capsys):
        assert main(["profile", "ecommerce", "--runs", "1"]) == 0
        assert "xsdgen.generate" in capsys.readouterr().out


class TestStatsJson:
    def test_json_output_parses_clean(self, capsys):
        assert main(["stats", "easybiz", "--runs", "2", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # would raise if span-tree text leaked in
        assert payload["model"] == "easybiz"
        assert payload["runs"] == 2
        assert payload["schemas"] == 6
        assert payload["validation"]["ok"] is True
        assert payload["coverage"]["mapped"] <= payload["coverage"]["total_elements"]
        assert payload["metrics"]["xsdgen.schemas_generated"] >= 6

    def test_plain_stats_still_prints_span_tree(self, capsys):
        assert main(["stats", "easybiz", "--runs", "1"]) == 0
        assert "== span tree ==" in capsys.readouterr().out
