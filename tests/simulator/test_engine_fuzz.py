"""Differential fuzzing of the detailed engines over generated machines.

Every drawn :class:`~repro.config.MachineSpec` and short synthetic trace
must simulate identically on the reference loop, the in-memory fast
engine and the chunk-streamed pipeline (streaming functional pass into
:func:`~repro.simulator.streaming.run_fast_stream`) at a drawn chunk
size.  The caches are tiny so misses, long-miss overlap and ROB stalls
all occur on a few hundred instructions.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PREDICTORS, CacheSpec, HierarchySpec, MachineSpec
from repro.isa.opclass import OpClass
from repro.simulator import streaming
from repro.simulator.processor import DetailedSimulator
from repro.simulator.streaming import simulate_stream
from repro.trace.chunks import TraceChunkStream
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.synthetic import generate_trace
from tests.simulator.test_engine_equivalence import assert_equivalent


@st.composite
def tiny_caches(draw) -> CacheSpec:
    line = draw(st.sampled_from([32, 64, 128]))
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    return CacheSpec(sets * ways * line, ways, line)


@st.composite
def machines(draw) -> MachineSpec:
    window = draw(st.integers(1, 64))
    l2_latency = draw(st.integers(1, 20))
    return MachineSpec(
        pipeline_depth=draw(st.integers(1, 8)),
        width=draw(st.integers(1, 8)),
        window_size=window,
        rob_size=draw(st.integers(window, window + 64)),
        predictor=draw(st.sampled_from(sorted(PREDICTORS))),
        ideal_predictor=draw(st.booleans()),
        hierarchy=HierarchySpec(
            l1i=draw(tiny_caches()), l1d=draw(tiny_caches()),
            l2=draw(tiny_caches()), l2_latency=l2_latency,
            memory_latency=draw(st.integers(l2_latency + 1, 300)),
            ideal_icache=draw(st.booleans()),
            ideal_dcache=draw(st.booleans())),
        latencies={c.name.lower(): draw(st.integers(1, 12))
                   for c in OpClass},
    )


def _chunked(trace, size: int) -> TraceChunkStream:
    return TraceChunkStream(
        lambda: (trace[i:i + size] for i in range(0, len(trace), size)),
        name=trace.name, length=len(trace), chunk_size=size)


@given(machine=machines(),
       bench=st.sampled_from(BENCHMARK_ORDER),
       length=st.integers(1, 600),
       seed=st.integers(0, 3),
       chunk_size=st.integers(1, 650),
       small_tables=st.booleans())
@settings(max_examples=150, deadline=None)
def test_engines_agree_on_generated_machines(machine, bench, length, seed,
                                             chunk_size, small_tables):
    trace = generate_trace(bench, length, seed)
    ref_sim = DetailedSimulator(machine, engine="reference", telemetry=False)
    annotations = ref_sim.annotate(trace)
    ref = ref_sim.run(trace, annotations)
    fast = DetailedSimulator(machine, engine="fast", telemetry=False).run(
        trace, annotations)
    assert_equivalent(fast, ref)
    # the smallest tables the engine allows make it compact them often
    span = 0 if small_tables else streaming._TABLE_SPAN
    with mock.patch.object(streaming, "_TABLE_SPAN", span):
        streamed = simulate_stream(_chunked(trace, chunk_size), machine,
                                   telemetry=False)
    assert_equivalent(streamed, ref)
