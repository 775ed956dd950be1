"""Stall telemetry stays cheap in the fast engine: it derives its
per-cycle quantities per block of instructions, so the calls it makes
into the session and the timeline recorder scale with events and
intervals, not with cycles.  Counting calls catches a regression to per-cycle calls
without timing anything."""

from __future__ import annotations

from collections import Counter
from functools import wraps

from repro.config import BASELINE
from repro.runner.artifacts import trace_artifact
from repro.simulator.processor import DetailedSimulator
from repro.telemetry.session import Telemetry
from repro.telemetry.timeline import TimelineRecorder


def _count_calls(monkeypatch, cls, calls: Counter) -> None:
    for name, member in list(vars(cls).items()):
        if callable(member) and not name.startswith("__"):
            def counting(*args, _name=f"{cls.__name__}.{name}",
                         _member=member, **kwargs):
                calls[_name] += 1
                return _member(*args, **kwargs)
            monkeypatch.setattr(cls, name, wraps(member)(counting))


def test_fast_engine_calls_per_interval_not_per_cycle(monkeypatch):
    trace = trace_artifact("gzip", 30_000)
    sim = DetailedSimulator(BASELINE, instrument=False, telemetry=Telemetry())
    annotations = sim.annotate(trace)
    calls: Counter = Counter()
    for cls in (Telemetry, TimelineRecorder):
        _count_calls(monkeypatch, cls, calls)
    result = sim.run(trace, annotations)
    assert sum(sim.last_telemetry.counts) == result.cycles
    # one flush per 1000-cycle interval, plus the event markers
    assert calls["TimelineRecorder.add_interval"] == -(-result.cycles // 1000)
    assert calls["Telemetry.charge"] == 0
    assert calls["Telemetry.occupancy"] == calls["Telemetry.retire"] == 0
    assert sum(calls.values()) < result.cycles / 10, calls
