"""run_manifest.json provenance records."""

import json

from repro.config import BASELINE
from repro.runner.artifacts import CacheStats
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_describe,
    write_manifest,
)


class TestBuild:
    def test_core_fields_present(self):
        doc = build_manifest(command="report")
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["command"] == "report"
        assert "python" in doc["machine"]
        assert "created" in doc and "created_unix" in doc

    def test_records_repro_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("UNRELATED_VAR", "x")
        doc = build_manifest(command="bench")
        assert doc["environment"]["REPRO_TELEMETRY"] == "1"
        assert "UNRELATED_VAR" not in doc["environment"]

    def test_config_and_cache_stats_serialize(self):
        stats = CacheStats()
        stats._bump(stats.hits, "trace")
        doc = build_manifest(
            command="report", config=BASELINE, wall_seconds=1.25,
            cache_stats=stats, extra={"trace_length": 4000},
        )
        assert doc["cache"]["hits"] == {"trace": 1}
        assert doc["wall_seconds"] == 1.25
        assert doc["trace_length"] == 4000
        # the whole document must be JSON-serializable
        json.dumps(doc)

    def test_git_describe_never_raises(self, tmp_path):
        # a non-repository directory degrades to None
        assert git_describe(tmp_path) is None


class TestWrite:
    def test_lands_next_to_output_file(self, tmp_path):
        out = tmp_path / "results" / "report.md"
        out.parent.mkdir()
        out.write_text("# report\n")
        path = write_manifest(out, build_manifest(command="report"))
        assert path == out.parent / "run_manifest.json"
        assert json.loads(path.read_text())["command"] == "report"

    def test_accepts_a_directory(self, tmp_path):
        path = write_manifest(tmp_path, build_manifest(command="bench"))
        assert path.parent == tmp_path
        assert path.name == "run_manifest.json"


class TestWallclock:
    def test_wallclock_section_embeds_verbatim(self):
        summary = {"total_s": 1.25,
                   "phases": {"trace.generate": 0.8, "(self)": 0.45}}
        doc = build_manifest(command="report", wallclock=summary)
        assert doc["wallclock"] == summary

    def test_absent_unless_provided(self):
        assert "wallclock" not in build_manifest(command="report")
