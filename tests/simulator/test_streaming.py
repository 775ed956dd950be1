"""Streaming pipeline equivalence: chunked execution is bit-identical.

The streaming functional pass and the chunk-fed detailed engine must
reproduce the in-memory pipeline's outputs exactly — same cycles, same
counts, same instrumentation, same profile, same telemetry — for every
chunk size.  Chunk size is a memory knob, never a semantic one.  (The
streaming trace analyzer's check is in ``tests/trace/test_analysis.py``.)
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import BASELINE
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.frontend.events import EventAnnotations
from repro.frontend.streaming import StreamingCollector
from repro.simulator.processor import simulate
from repro.simulator.streaming import simulate_stream
from repro.telemetry import Telemetry
from repro.trace.chunks import TraceChunkStream
from repro.trace.synthetic import generate_trace
from repro.trace.vectorgen import (
    ChunkedTraceGenerator,
    concat_traces,
    stream_chunks,
)
from repro.trace.profiles import get_profile
from tests.frontend.test_pass_fuzz import ANNOTATIONS, summarize

_N = 8_000
CHUNK_SIZES = [512, 1009, _N]


def _stream(benchmark: str, n: int, chunk_size: int) -> TraceChunkStream:
    """A cache-independent stream (regenerates per iteration)."""
    return TraceChunkStream(
        lambda: stream_chunks(benchmark, n, chunk_size=chunk_size),
        name=benchmark, length=n, chunk_size=chunk_size,
    )


def _collect_streamed(stream, config: CollectorConfig) -> SimpleNamespace:
    """The profile counts and indices recomputed from the chunks and
    annotations :meth:`StreamingCollector.iter_annotated` yields."""
    chunks, parts = [], []
    for _, chunk, annotations in (
            StreamingCollector(config).iter_annotated(stream)):
        chunks.append(chunk)
        parts.append(annotations)
    annotations = EventAnnotations(*(
        np.concatenate([getattr(a, f) for a in parts]) for f in ANNOTATIONS))
    return SimpleNamespace(**summarize(concat_traces(chunks, stream.name),
                                       annotations,
                                       config.hierarchy))


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("bench", ["gzip", "mcf"])
def test_simulate_stream_matches_in_memory(bench, chunk_size):
    cfg = BASELINE
    ref = simulate(generate_trace(bench, _N), cfg, instrument=True)
    got = simulate_stream(_stream(bench, _N, chunk_size), cfg,
                          instrument=True)
    assert got.cycles == ref.cycles
    assert got.instructions == ref.instructions
    assert got.misprediction_count == ref.misprediction_count
    assert got.icache_short_count == ref.icache_short_count
    assert got.icache_long_count == ref.icache_long_count
    assert got.dcache_long_count == ref.dcache_long_count
    gi, ri = got.instrumentation, ref.instrumentation
    assert np.array_equal(gi.issued_histogram, ri.issued_histogram)
    assert gi.window_left_at_mispredict == ri.window_left_at_mispredict
    assert gi.rob_ahead_at_long_miss == ri.rob_ahead_at_long_miss
    assert gi.dispatch_stall_rob == ri.dispatch_stall_rob
    assert gi.dispatch_stall_window == ri.dispatch_stall_window


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_streaming_collector_matches_in_memory(chunk_size):
    cfg = BASELINE
    trace = generate_trace("vortex", _N)
    ref = MissEventCollector(CollectorConfig.of(cfg)).collect(trace)
    got = _collect_streamed(_stream("vortex", _N, chunk_size),
                            CollectorConfig.of(cfg))
    for field in ("length", "branch_count", "misprediction_count",
                  "fetch_line_accesses", "icache_short_count",
                  "icache_long_count", "load_count", "dcache_short_count",
                  "dcache_long_count"):
        assert getattr(got, field) == getattr(ref, field), field
    assert np.array_equal(got.misprediction_indices,
                          ref.misprediction_indices)
    assert np.array_equal(got.long_miss_indices, ref.long_miss_indices)


def test_streaming_telemetry_matches_in_memory():
    t_ref, t_got = Telemetry(), Telemetry()
    simulate(generate_trace("mcf", _N), telemetry=t_ref)
    simulate_stream(_stream("mcf", _N, 1009), telemetry=t_got)
    assert t_got.report == t_ref.report


def test_register_renaming_runs_once_per_instruction(monkeypatch):
    """The in-memory path reads the trace's memoized dependences, so a
    machine sweep over one trace renames it once; a chunk stream is
    renamed by the engine alone, chunk by chunk."""
    from dataclasses import replace

    from repro.simulator.processor import DetailedSimulator
    from repro.trace.trace import StreamingRenamer

    renamed: list[int] = []
    original = StreamingRenamer.rename_chunk

    def counting(self, chunk):
        renamed.append(len(chunk))
        return original(self, chunk)

    monkeypatch.setattr(StreamingRenamer, "rename_chunk", counting)
    trace = generate_trace("gzip", 2_000)
    annotations = DetailedSimulator(BASELINE).annotate(trace)
    for width in (2, 4):
        DetailedSimulator(replace(BASELINE, width=width)).run(trace,
                                                              annotations)
    assert renamed == [2_000]
    renamed.clear()
    simulate_stream(_stream("gzip", 2_000, 500), BASELINE)
    assert renamed == [500] * 4


def test_streaming_warmup_passes_match():
    cfg = BASELINE
    trace = generate_trace("gcc", 5_000)
    for passes in (0, 2):
        config = CollectorConfig.of(cfg, warmup_passes=passes)
        ref = MissEventCollector(config).collect(trace)
        got = _collect_streamed(_stream("gcc", 5_000, 777), config)
        assert got.misprediction_count == ref.misprediction_count
        assert got.icache_long_count == ref.icache_long_count
        assert got.dcache_long_count == ref.dcache_long_count
        assert np.array_equal(got.long_miss_indices, ref.long_miss_indices)


def _sweep_rename(trace) -> tuple[list[int], list[int]]:
    """Renaming as a plain in-order sweep: each source maps to the latest
    earlier writer of its register (the statement the vectorized renamer
    is checked against)."""
    from repro.isa.instruction import NO_REG
    from repro.isa.opclass import OpClass, writes_register

    producer: dict[int, int] = {}
    dep1: list[int] = []
    dep2: list[int] = []
    for k in range(len(trace)):
        for out, src in ((dep1, trace.src1[k]), (dep2, trace.src2[k])):
            src = int(src)
            out.append(-1 if src == NO_REG else producer.get(src, -1))
        dst = int(trace.dst[k])
        if dst != NO_REG and writes_register(OpClass(int(trace.opclass[k]))):
            producer[dst] = k
    return dep1, dep2


def test_streaming_renamer_matches_whole_trace_rename():
    from repro.trace.trace import StreamingRenamer

    trace = ChunkedTraceGenerator(get_profile("twolf")).generate(6_000)
    ref1, ref2 = _sweep_rename(trace)
    whole = trace.dependences()
    assert whole.dep1.tolist() == ref1
    assert whole.dep2.tolist() == ref2
    for chunk_size in (1, 7, 1009):
        renamer = StreamingRenamer()
        parts = [renamer.rename_chunk(trace[i:i + chunk_size])
                 for i in range(0, len(trace), chunk_size)]
        assert np.concatenate([d.dep1 for d in parts]).tolist() == ref1
        assert np.concatenate([d.dep2 for d in parts]).tolist() == ref2


def test_engine_rejects_a_feed_that_does_not_cover_length():
    """The feed must deliver exactly ``length`` instructions, in order."""
    from repro.simulator.processor import DetailedSimulator
    from repro.simulator.streaming import run_fast_stream

    cfg = BASELINE
    trace = generate_trace("gzip", 2_000)
    ann = DetailedSimulator(cfg).annotate(trace)
    whole = [(0, trace, ann)]
    halves = [(0, trace[:1_000], _part(ann, 0, 1_000)),
              (1_000, trace[1_000:], _part(ann, 1_000, 2_000))]
    with pytest.raises(ValueError, match="ended after 2000 of 2500"):
        run_fast_stream(whole, 2_500, cfg)
    # a long feed used to simulate ``length`` instructions but total the
    # miss events of every chunk it staged
    with pytest.raises(ValueError, match="more than 1500"):
        run_fast_stream(whole, 1_500, cfg)
    with pytest.raises(ValueError, match="more than 1000"):
        run_fast_stream(halves, 1_000, cfg)
    with pytest.raises(ValueError, match="chunk at 1000 follows 0"):
        run_fast_stream(halves[::-1], 2_000, cfg)
    assert run_fast_stream(halves, 2_000, cfg).cycles == (
        DetailedSimulator(cfg).run(trace, ann).cycles)


def _part(ann, start, stop):
    return type(ann)(ann.fetch_stall[start:stop], ann.load_extra[start:stop],
                     ann.long_miss[start:stop], ann.mispredicted[start:stop])


def test_execute_spec_streaming_matches_and_shares_result_key():
    from repro.runner.pool import execute_spec
    from repro.spec.specs import (
        EngineSpec,
        MachineSpec,
        RunSpec,
        WorkloadSpec,
    )

    base = RunSpec(workload=WorkloadSpec("gzip", 4_000),
                   machine=MachineSpec(),
                   engine=EngineSpec(instrument=True))
    streamed = RunSpec(workload=base.workload, machine=base.machine,
                       engine=EngineSpec(instrument=True, stream=True,
                                         chunk_size=600))
    assert base.content_key() == streamed.content_key()
    ref = execute_spec(base)
    got = execute_spec(streamed)
    assert got.cycles == ref.cycles
    assert got.misprediction_count == ref.misprediction_count


def test_stream_rejects_bad_chunk_size():
    from repro.spec.specs import EngineSpec, SpecError

    with pytest.raises(SpecError):
        EngineSpec(stream=True, chunk_size=0)
