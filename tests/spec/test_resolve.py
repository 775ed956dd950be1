"""Layered spec resolution: defaults < file < environment < overrides."""

from __future__ import annotations

import json

import pytest

from repro.spec import EngineSpec, SpecError, load_spec_file, resolve_spec


def _write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLayers:
    def test_defaults_alone_need_a_benchmark(self):
        with pytest.raises(SpecError, match="benchmark"):
            resolve_spec()

    def test_overrides_alone_resolve(self):
        spec = resolve_spec(overrides={"workload": {"benchmark": "gzip"}})
        assert spec.workload.benchmark == "gzip"
        assert spec.workload.length == 30_000  # package default
        assert spec.engine == EngineSpec()  # package default

    def test_file_layer(self, tmp_path):
        path = _write_spec(tmp_path, {
            "workload": {"benchmark": "mcf", "length": 5_000},
            "machine": {"width": 8},
        })
        spec = resolve_spec(path=path)
        assert spec.workload.benchmark == "mcf"
        assert spec.workload.length == 5_000
        assert spec.machine.width == 8
        assert spec.machine.window_size == 48  # default fills the rest

    def test_env_file_layer(self, tmp_path, monkeypatch):
        path = _write_spec(tmp_path, {"workload": {"benchmark": "vpr"}})
        monkeypatch.setenv("REPRO_SPEC", path)
        assert resolve_spec().workload.benchmark == "vpr"

    def test_explicit_path_beats_env_path(self, tmp_path, monkeypatch):
        env_path = _write_spec(tmp_path, {"workload": {"benchmark": "vpr"}},
                               "env.json")
        cli_path = _write_spec(tmp_path, {"workload": {"benchmark": "mcf"}},
                               "cli.json")
        monkeypatch.setenv("REPRO_SPEC", env_path)
        assert resolve_spec(path=cli_path).workload.benchmark == "mcf"

    def test_env_beats_file(self, tmp_path, monkeypatch):
        path = _write_spec(tmp_path, {
            "workload": {"benchmark": "gzip"},
            "telemetry": {"interval": 500},
        })
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL", "250")
        assert resolve_spec(path=path).telemetry.interval == 250

    def test_overrides_beat_env_and_file(self, tmp_path, monkeypatch):
        path = _write_spec(tmp_path, {
            "workload": {"benchmark": "gzip", "length": 5_000},
        })
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL", "250")
        spec = resolve_spec(path=path, overrides={
            "workload": {"length": 9_000},
            "telemetry": {"interval": 750},
        })
        assert spec.workload.length == 9_000
        assert spec.workload.benchmark == "gzip"  # file layer survives
        assert spec.telemetry.interval == 750

    def test_env_telemetry_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL", "250")
        spec = resolve_spec(overrides={"workload": {"benchmark": "gzip"}})
        assert spec.telemetry.enabled
        assert spec.telemetry.interval == 250

    def test_use_env_false_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        spec = resolve_spec(overrides={"workload": {"benchmark": "gzip"}},
                            use_env=False)
        assert not spec.telemetry.enabled


class TestSpecFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError):
            load_spec_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError):
            load_spec_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = _write_spec(tmp_path, {"workload": {"benchmark": "gzip"},
                                      "surprise": {}})
        with pytest.raises(SpecError):
            resolve_spec(path=path)

    def test_example_baseline_spec_resolves(self):
        from pathlib import Path

        example = (Path(__file__).resolve().parents[2]
                   / "examples" / "baseline_spec.json")
        spec = resolve_spec(path=example, use_env=False)
        assert spec.workload.benchmark == "gzip"
        assert spec.machine.width == 4


class TestObsLayer:
    def test_env_obs_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_TRACE", "/tmp/spans.jsonl")
        spec = resolve_spec(overrides={"workload": {"benchmark": "gzip"}})
        assert spec.obs.enabled
        assert spec.obs.trace_path == "/tmp/spans.jsonl"

    def test_overrides_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        spec = resolve_spec(overrides={
            "workload": {"benchmark": "gzip"},
            "obs": {"enabled": False},
        })
        assert not spec.obs.enabled
