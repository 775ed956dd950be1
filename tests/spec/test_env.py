"""The REPRO_* registry, its accessors, and the no-stray-getenv lint."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.spec import env

SRC = Path(__file__).resolve().parents[2] / "src"


class TestLint:
    def test_no_environment_access_outside_the_registry(self):
        """Grep ``src/`` for environment reads outside ``repro/spec/env``.

        Every configuration knob must enter through the registry so the
        spec resolver's layering stays the whole story.  If this test
        fails, move the read into :mod:`repro.spec.env` (add the
        variable to ``REGISTRY``) and call the accessor instead.
        """
        pattern = re.compile(
            r"os\.environ|os\.getenv|environ\[|getenv\(")
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "env.py" and path.parent.name == "spec":
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}: "
                                     f"{line.strip()}")
        assert not offenders, (
            "environment access outside repro/spec/env.py:\n"
            + "\n".join(offenders)
        )

    def test_every_registry_entry_names_a_subsystem(self):
        for name, (subsystem, description) in env.REGISTRY.items():
            assert name.startswith("REPRO_")
            assert subsystem and description

    def test_unregistered_reads_are_rejected(self):
        with pytest.raises(AssertionError):
            env._get("REPRO_NOT_A_KNOB")


class TestAccessors:
    def test_cache_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        assert env.cache_dir() == tmp_path / "a"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert env.cache_dir() == tmp_path / "xdg" / "repro-firstorder"

    def test_telemetry_overrides_only_reflect_set_variables(
            self, monkeypatch):
        for name in env.REGISTRY:
            if name.startswith("REPRO_TELEMETRY"):
                monkeypatch.delenv(name, raising=False)
        assert env.telemetry_overrides() == {}
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL", "250")
        assert env.telemetry_overrides() == {"enabled": True,
                                             "interval": 250}
        monkeypatch.setenv("REPRO_TELEMETRY_TRACE", "/tmp/t.jsonl")
        overrides = env.telemetry_overrides()
        assert overrides["events"] is True
        assert overrides["trace_path"] == "/tmp/t.jsonl"

    def test_repro_environment_echoes_set_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        echoed = env.repro_environment()
        assert echoed["REPRO_TELEMETRY"] == "1"
        assert all(k.startswith("REPRO_") for k in echoed)


class TestObsOverrides:
    def _clear(self, monkeypatch):
        for name in env.REGISTRY:
            if name.startswith("REPRO_OBS"):
                monkeypatch.delenv(name, raising=False)

    def test_only_reflect_set_variables(self, monkeypatch):
        self._clear(monkeypatch)
        assert env.obs_overrides() == {}
        monkeypatch.setenv("REPRO_OBS", "1")
        assert env.obs_overrides() == {"enabled": True}

    def test_export_path_implies_collection(self, monkeypatch):
        self._clear(monkeypatch)
        monkeypatch.setenv("REPRO_OBS_CHROME", "/tmp/spans.json")
        overrides = env.obs_overrides()
        assert overrides["enabled"] is True
        assert overrides["chrome_path"] == "/tmp/spans.json"

    def test_explicit_zero_beats_the_implied_enable(self, monkeypatch):
        self._clear(monkeypatch)
        monkeypatch.setenv("REPRO_OBS", "0")
        monkeypatch.setenv("REPRO_OBS_TRACE", "/tmp/spans.jsonl")
        overrides = env.obs_overrides()
        assert overrides["enabled"] is False
        assert overrides["trace_path"] == "/tmp/spans.jsonl"
