"""Telemetry sessions: env opt-in and its agreement with spec resolution,
accounting invariants, trace output."""

import json

import pytest

from repro.simulator.processor import DetailedSimulator, resolve_telemetry
from repro.spec import SpecError, TelemetrySpec, env, resolve_spec
from repro.telemetry.accountant import (
    CLS_BASE,
    CLS_BRANCH,
    CLS_DCACHE_LONG,
    MeasuredCPIStack,
    STALL_CLASSES,
)
from repro.telemetry.session import Telemetry


def _clear_telemetry_env(monkeypatch):
    for name in env.REGISTRY:
        if name.startswith("REPRO_TELEMETRY"):
            monkeypatch.delenv(name, raising=False)


class TestEnvOptIn:
    def test_disabled_by_default(self, monkeypatch):
        _clear_telemetry_env(monkeypatch)
        assert resolve_telemetry(None) is None
        assert not env.telemetry_overrides().get("enabled", False)
        assert DetailedSimulator()._telemetry_session() is None

    def test_zero_and_empty_mean_off(self, monkeypatch):
        _clear_telemetry_env(monkeypatch)
        for value in ("0", "", "  "):
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            assert resolve_telemetry(None) is None

    def test_enabled_with_knobs(self, monkeypatch, tmp_path):
        _clear_telemetry_env(monkeypatch)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL", "250")
        monkeypatch.setenv("REPRO_TELEMETRY_TRACE",
                           str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "0.5")
        monkeypatch.setenv("REPRO_TELEMETRY_SEED", "7")
        tele = resolve_telemetry(None)
        spec = tele.spec
        assert spec.interval == 250
        assert spec.events  # a trace path switches events on
        assert spec.sample_rate == 0.5
        assert spec.seed == 7
        assert env.telemetry_overrides()["enabled"]
        assert isinstance(tele, Telemetry)


#: ``REPRO_TELEMETRY*`` settings the direct and resolved paths must agree
#: on; every unlisted variable is unset
_ENV_TABLE = {
    "unset": {},
    "off": {"REPRO_TELEMETRY": "0"},
    "on": {"REPRO_TELEMETRY": "1"},
    "interval": {"REPRO_TELEMETRY": "yes",
                 "REPRO_TELEMETRY_INTERVAL": "125"},
    "empty-numbers": {"REPRO_TELEMETRY": "1",
                      "REPRO_TELEMETRY_INTERVAL": "",
                      "REPRO_TELEMETRY_SAMPLE": "",
                      "REPRO_TELEMETRY_SEED": ""},
    "trace": {"REPRO_TELEMETRY": "1",
              "REPRO_TELEMETRY_TRACE": "{tmp}/t.jsonl",
              "REPRO_TELEMETRY_SAMPLE": "0.25",
              "REPRO_TELEMETRY_SEED": "3"},
    "chrome": {"REPRO_TELEMETRY": "1",
               "REPRO_TELEMETRY_CHROME": "{tmp}/t.json"},
    "knobs-while-off": {"REPRO_TELEMETRY": "0",
                        "REPRO_TELEMETRY_INTERVAL": "50",
                        "REPRO_TELEMETRY_TRACE": "{tmp}/t.jsonl"},
}

#: out-of-range settings both paths must reject with SpecError
_BAD_ENV_TABLE = {
    "zero-interval": {"REPRO_TELEMETRY": "1",
                      "REPRO_TELEMETRY_INTERVAL": "0"},
    "sample-above-one": {"REPRO_TELEMETRY": "1",
                         "REPRO_TELEMETRY_TRACE": "{tmp}/t.jsonl",
                         "REPRO_TELEMETRY_SAMPLE": "2"},
}


def _set_env(monkeypatch, tmp_path, settings):
    _clear_telemetry_env(monkeypatch)
    for name, value in settings.items():
        monkeypatch.setenv(name, value.format(tmp=tmp_path))


class TestEnvPathsAgree:
    """The session ``DetailedSimulator()`` resolves from the environment
    carries what ``resolve_spec`` puts in the spec's telemetry section."""

    @pytest.mark.parametrize("case", sorted(_ENV_TABLE))
    def test_direct_session_matches_resolved_spec(
            self, monkeypatch, tmp_path, case):
        _set_env(monkeypatch, tmp_path, _ENV_TABLE[case])
        resolved = resolve_spec(overrides={
            "workload": {"benchmark": "gzip"}}).telemetry
        session = DetailedSimulator()._telemetry_session()
        if not resolved.enabled:
            assert session is None
            return
        assert session.spec == resolved
        assert (session.events is not None) == resolved.events

    @pytest.mark.parametrize("case", sorted(_BAD_ENV_TABLE))
    def test_out_of_range_values_raise_spec_error_on_both_paths(
            self, monkeypatch, tmp_path, case):
        _set_env(monkeypatch, tmp_path, _BAD_ENV_TABLE[case])
        with pytest.raises(SpecError):
            resolve_spec(overrides={"workload": {"benchmark": "gzip"}})
        with pytest.raises(SpecError):
            DetailedSimulator()._telemetry_session()

    def test_an_export_path_implies_events(self, tmp_path):
        spec = TelemetrySpec(chrome_path=str(tmp_path / "t.json"))
        assert spec.events
        assert TelemetrySpec.from_dict(spec.to_dict()) == spec


class TestAccounting:
    def test_counts_partition_cycles(self):
        tele = Telemetry()
        tele.charge(CLS_BASE, 0)
        tele.charge(CLS_BRANCH, 1, span=4)
        tele.charge(CLS_DCACHE_LONG, 5, span=5)
        report = tele.finish("t", instructions=20, cycles=10)
        assert report.stack.cycles == 10
        assert report.stack.total == pytest.approx(report.stack.cpi)

    def test_lost_cycles_detected(self):
        tele = Telemetry()
        tele.charge(CLS_BASE, 0, span=3)
        with pytest.raises(AssertionError, match="lost cycles"):
            tele.finish("t", instructions=10, cycles=5)

    def test_stall_runs_coalesce_into_span_events(self, tmp_path):
        config = TelemetrySpec(events=True)
        tele = Telemetry(config)
        tele.charge(CLS_BASE, 0)
        for c in range(1, 5):
            tele.charge(CLS_BRANCH, c)
        tele.charge(CLS_BASE, 5)
        tele.finish("t", instructions=10, cycles=6)
        stalls = [e for e in tele.events.events
                  if e["name"] == "dispatch_stall"]
        assert len(stalls) == 1
        assert stalls[0]["ts"] == 1 and stalls[0]["dur"] == 4
        assert stalls[0]["args"]["cause"] == "branch"

    def test_finish_writes_configured_trace_files(self, tmp_path):
        config = TelemetrySpec(
            events=True,
            trace_path=str(tmp_path / "events.jsonl"),
            chrome_path=str(tmp_path / "chrome.json"),
        )
        tele = Telemetry(config)
        tele.charge(CLS_BASE, 0)
        tele.mark_long_miss(0, 3, latency=200)
        tele.finish("t", instructions=5, cycles=1)
        assert (tmp_path / "events.jsonl").exists()
        chrome = json.loads((tmp_path / "chrome.json").read_text())
        assert any(e["name"] == "dcache_long_miss"
                   for e in chrome["traceEvents"])


class TestMeasuredStack:
    def test_from_counts_validation(self):
        with pytest.raises(ValueError, match="class counts"):
            MeasuredCPIStack.from_counts("t", [1, 2], 10)
        with pytest.raises(ValueError, match="instructions"):
            MeasuredCPIStack.from_counts("t", [0] * len(STALL_CLASSES), 0)

    def test_model_stack_folding_preserves_total(self):
        counts = [50, 20, 5, 3, 12, 6, 4]
        stack = MeasuredCPIStack.from_counts("t", counts, 100)
        folded = stack.as_model_stack()
        assert folded.total == pytest.approx(stack.total)
        assert folded.ideal == pytest.approx(stack.base + stack.window_full)
        assert folded.l2_dcache == pytest.approx(
            stack.dcache_long + stack.rob_full
        )
