"""Cycle-exactness of the fast engine against the reference engine.

The fast engine (:func:`repro.simulator.streaming.run_fast_stream`) is
pure optimization: for every trace, configuration and chunk size it must
reproduce the reference loop's cycle count, event counts and
instrumentation bit for bit.  This is the regression gate that keeps it
honest.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import BASELINE, MachineSpec
from repro.frontend.events import EventAnnotations
from repro.simulator import streaming
from repro.simulator.processor import DetailedSimulator, simulate
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.synthetic import generate_trace

#: two trace lengths: one short, one mid-size
LENGTHS = (1_500, 3_000)

#: the baseline plus a deliberately cramped machine that exercises every
#: structural stall (tiny window, shallow ROB, narrow width)
CONFIGS = (
    BASELINE,
    MachineSpec(pipeline_depth=3, width=2, window_size=8, rob_size=16),
)

#: chunk sizes the engine is also fed at, beside the whole trace (the
#: in-memory path): a prime mid-size chunk and a tiny one
CHUNK_SIZES = (997, 7)


def assert_equivalent(fast, ref) -> None:
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert fast.misprediction_count == ref.misprediction_count
    assert fast.icache_short_count == ref.icache_short_count
    assert fast.icache_long_count == ref.icache_long_count
    assert fast.dcache_long_count == ref.dcache_long_count
    fi, ri = fast.instrumentation, ref.instrumentation
    assert (fi is None) == (ri is None)
    if fi is not None:
        assert np.array_equal(fi.issued_histogram, ri.issued_histogram)
        assert fi.window_left_at_mispredict == ri.window_left_at_mispredict
        assert fi.rob_ahead_at_long_miss == ri.rob_ahead_at_long_miss
        assert fi.dispatch_stall_rob == ri.dispatch_stall_rob
        assert fi.dispatch_stall_window == ri.dispatch_stall_window


@pytest.mark.parametrize("bench_name", BENCHMARK_ORDER)
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("config", CONFIGS, ids=("baseline", "cramped"))
def test_fast_engine_matches_reference(bench_name, length, config,
                                      monkeypatch):
    trace = generate_trace(bench_name, length)
    annotations = DetailedSimulator(config, engine="fast").annotate(trace)
    fast = DetailedSimulator(config, engine="fast").run(trace, annotations)
    ref = DetailedSimulator(config, engine="reference").run(
        trace, annotations
    )
    assert_equivalent(fast, ref)
    # the smallest tables the engine allows (twice the history it keeps
    # in front of a block), so the chunked runs cross many blocks
    monkeypatch.setattr(streaming, "_TABLE_SPAN", 0)
    for size in CHUNK_SIZES:
        feed = [(i, trace[i:i + size], _annotation_slice(annotations, i,
                                                          size))
                for i in range(0, length, size)]
        chunked = streaming.run_fast_stream(feed, length, config,
                                            name=trace.name)
        assert_equivalent(chunked, ref)


def _annotation_slice(ann: EventAnnotations, start: int,
                      size: int) -> EventAnnotations:
    part = slice(start, start + size)
    return EventAnnotations(
        fetch_stall=ann.fetch_stall[part],
        load_extra=ann.load_extra[part],
        long_miss=ann.long_miss[part],
        mispredicted=ann.mispredicted[part],
    )


def test_equivalence_without_instrumentation(gzip_trace):
    fast = simulate(gzip_trace, instrument=False, engine="fast")
    ref = simulate(gzip_trace, instrument=False, engine="reference")
    assert fast.instrumentation is None
    assert_equivalent(fast, ref)


def test_equivalence_under_miss_pressure(mcf_trace, small_l2_hierarchy):
    """A 16 KB L2 floods the trace with long misses — the drain/skip
    machinery gets real exercise."""
    config = dataclasses.replace(BASELINE, hierarchy=small_l2_hierarchy)
    annotations = DetailedSimulator(config).annotate(mcf_trace)
    fast = DetailedSimulator(config, engine="fast").run(
        mcf_trace, annotations
    )
    ref = DetailedSimulator(config, engine="reference").run(
        mcf_trace, annotations
    )
    assert fast.dcache_long_count > 30
    assert_equivalent(fast, ref)


def test_engine_is_a_constructor_argument_only(monkeypatch):
    from repro.frontend.collector import MissEventCollector

    # no environment fallback: the reference loops are reached only by
    # naming them, and a stray variable changes nothing
    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    assert DetailedSimulator().engine == "fast"
    assert MissEventCollector().engine == "fast"
    for component in (DetailedSimulator, MissEventCollector):
        with pytest.raises(ValueError):
            component(engine="warp")


@pytest.mark.slow
@pytest.mark.parametrize("bench_name", ("gzip", "mcf", "vpr"))
def test_full_length_equivalence(bench_name):
    """Full experiment-length traces, both engines, bit-for-bit."""
    trace = generate_trace(bench_name, 30_000)
    annotations = DetailedSimulator(BASELINE).annotate(trace)
    fast = DetailedSimulator(BASELINE, engine="fast").run(
        trace, annotations
    )
    ref = DetailedSimulator(BASELINE, engine="reference").run(
        trace, annotations
    )
    assert_equivalent(fast, ref)


class TestTelemetryEquivalence:
    """Telemetry must be invisible to results and engine-independent."""

    @pytest.mark.parametrize("bench_name", ("gzip", "mcf", "vpr", "gcc"))
    @pytest.mark.parametrize("config", CONFIGS, ids=("baseline", "cramped"))
    def test_telemetry_does_not_perturb_results(self, bench_name, config):
        trace = generate_trace(bench_name, 2_000)
        annotations = DetailedSimulator(config).annotate(trace)
        for engine in ("fast", "reference"):
            off = DetailedSimulator(
                config, engine=engine, telemetry=False
            ).run(trace, annotations)
            on = DetailedSimulator(
                config, engine=engine, telemetry=True
            ).run(trace, annotations)
            assert_equivalent(on, off)

    @pytest.mark.parametrize("bench_name", ("gzip", "mcf", "vpr", "gcc"))
    @pytest.mark.parametrize("config", CONFIGS, ids=("baseline", "cramped"))
    def test_measured_stack_identical_across_engines(self, bench_name,
                                                     config):
        trace = generate_trace(bench_name, 2_000)
        annotations = DetailedSimulator(config).annotate(trace)
        sims = {
            engine: DetailedSimulator(config, engine=engine, telemetry=True)
            for engine in ("fast", "reference")
        }
        results = {
            engine: sim.run(trace, annotations)
            for engine, sim in sims.items()
        }
        fast, ref = sims["fast"].last_telemetry, sims["reference"].last_telemetry
        assert fast.counts == ref.counts
        assert sum(fast.counts) == results["fast"].cycles
        assert fast.report.timeline == ref.report.timeline

    def test_measured_stack_under_miss_pressure(self, mcf_trace,
                                                small_l2_hierarchy):
        config = dataclasses.replace(BASELINE, hierarchy=small_l2_hierarchy)
        annotations = DetailedSimulator(config).annotate(mcf_trace)
        sims = {
            engine: DetailedSimulator(config, engine=engine, telemetry=True)
            for engine in ("fast", "reference")
        }
        results = {
            engine: sim.run(mcf_trace, annotations)
            for engine, sim in sims.items()
        }
        fast, ref = sims["fast"].last_telemetry, sims["reference"].last_telemetry
        assert fast.counts == ref.counts
        assert sum(fast.counts) == results["fast"].cycles
        # the pressure hierarchy must actually exercise the long-miss
        # and ROB-full classes
        from repro.telemetry.accountant import CLS_DCACHE_LONG

        assert fast.counts[CLS_DCACHE_LONG] > 0
        assert fast.report.timeline == ref.report.timeline

    def test_telemetry_env_opt_in(self, monkeypatch, gzip_trace):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        sim = DetailedSimulator(BASELINE)
        sim.run(gzip_trace)
        assert sim.last_telemetry is None
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        sim = DetailedSimulator(BASELINE)
        sim.run(gzip_trace)
        assert sim.last_telemetry is not None
        assert sim.last_telemetry.report.stack.cycles > 0
