"""Hierarchical rollup: bounded rows, exact merges, streaming totals.

The two contracts of :class:`RollupTimelineRecorder`:

* **bit-identity** — its finalized timeline equals a plain
  :class:`TimelineRecorder` driven with the same calls at the final
  effective interval (merges are exact integer sums);
* **bounded memory** — stored rows never exceed ``max_rows`` no matter
  how many cycles are recorded, so ``repro timeline --stream`` stays
  O(log n) on arbitrarily long runs.
"""

from __future__ import annotations

import random

import pytest

from repro.spec import TelemetrySpec
from repro.telemetry.rollup import RollupTimelineRecorder
from repro.telemetry.session import Telemetry
from repro.telemetry.timeline import EVENT_FIELDS, TimelineRecorder


def synthetic_calls(cycles=200_000, seed=7):
    """A deterministic, irregular recorder workload."""
    rng = random.Random(seed)
    calls = []
    cycle = 0
    while cycle < cycles:
        calls.append(("retire", cycle, rng.randint(0, 4)))
        if rng.random() < 0.2:
            calls.append(
                ("count", rng.choice(EVENT_FIELDS), cycle,
                 rng.randint(1, 3)))
        span = rng.randint(1, 500)
        calls.append(
            ("occupancy", cycle, span, rng.randint(0, 32),
             rng.randint(0, 16)))
        cycle += span
    return calls, cycle


def replay(recorder, calls):
    for call in calls:
        if call[0] == "retire":
            recorder.retire(call[1], call[2])
        elif call[0] == "count":
            recorder.count(call[1], call[2], call[3])
        else:
            recorder.occupancy(call[1], call[2], call[3], call[4])


class TestBitIdentity:
    def test_rollup_equals_plain_recorder_at_effective_interval(self):
        calls, cycles = synthetic_calls()
        roll = RollupTimelineRecorder(interval=100, max_rows=8)
        replay(roll, calls)
        assert roll.level > 0, "workload never triggered a coalesce"

        plain = TimelineRecorder(interval=roll.interval)
        replay(plain, calls)

        instructions = sum(c[2] for c in calls if c[0] == "retire")
        assert roll.finalize(cycles, instructions) == plain.finalize(
            cycles, instructions)

    def test_identity_holds_across_max_rows_choices(self):
        calls, cycles = synthetic_calls(cycles=50_000, seed=11)
        timelines = []
        for max_rows in (4, 16, 64):
            roll = RollupTimelineRecorder(interval=50, max_rows=max_rows)
            replay(roll, calls)
            tl = roll.finalize(cycles, 1)
            plain = TimelineRecorder(interval=roll.interval)
            replay(plain, calls)
            assert tl == plain.finalize(cycles, 1)
            timelines.append(tl)
        # different caps coarsen differently but preserve totals
        totals = {sum(tl.retired) for tl in timelines}
        assert len(totals) == 1


class TestBoundedMemory:
    def test_rows_never_exceed_the_cap(self):
        roll = RollupTimelineRecorder(interval=10, max_rows=8)
        for cycle in range(0, 1_000_000, 97):
            roll.retire(cycle, 1)
            assert roll.rows() <= 8
        assert roll.level > 0
        tl = roll.finalize(1_000_000, 10_000)
        assert tl.intervals <= 8
        assert tl.interval == 10 << roll.level

    def test_occupancy_spans_survive_a_mid_span_coalesce(self):
        roll = RollupTimelineRecorder(interval=10, max_rows=2)
        # one span long enough to force several doublings mid-flight
        roll.occupancy(0, 10_000, rob=3, window=1)
        tl = roll.finalize(10_000, 1)
        # the integral must be exact: 3 * 10_000 cycle-entries
        total = sum(o * min(tl.interval, 10_000 - i * tl.interval)
                    for i, o in enumerate(tl.rob_occupancy))
        assert total == 3 * 10_000

    def test_max_rows_must_allow_a_merge(self):
        with pytest.raises(ValueError):
            RollupTimelineRecorder(interval=10, max_rows=1)


class TestStreamingTotals:
    """Streamed rollup timelines agree with the in-memory run exactly."""

    LENGTH = 20_000

    def _streamed(self, chunk_size):
        from repro.runner import artifacts
        from repro.simulator.streaming import simulate_stream

        tele = Telemetry(TelemetrySpec(interval=500,
                                       max_timeline_rows=16))
        stream = artifacts.trace_chunk_stream(
            "gzip", self.LENGTH, chunk_size=chunk_size)
        result = simulate_stream(stream, telemetry=tele)
        return result, tele.report.timeline

    def _in_memory(self):
        from repro.simulator.processor import DetailedSimulator
        from repro.trace.synthetic import generate_trace

        tele = Telemetry(TelemetrySpec(interval=500))
        sim = DetailedSimulator(telemetry=tele)
        result = sim.run(generate_trace("gzip", self.LENGTH))
        return result, tele.report.timeline

    def test_class_totals_bit_identical_across_chunk_sizes(self):
        base_result, base_tl = self._in_memory()
        for chunk_size in (4096, 8192):
            result, tl = self._streamed(chunk_size)
            assert result.cycles == base_result.cycles
            assert result.instructions == base_result.instructions
            assert tl.intervals <= 16
            assert sum(tl.retired) == sum(base_tl.retired)
            assert sum(tl.mispredicts) == sum(base_tl.mispredicts)
            assert sum(tl.icache_misses) == sum(base_tl.icache_misses)
            assert sum(tl.long_misses) == sum(base_tl.long_misses)
