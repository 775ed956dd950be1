"""Differential fuzzing of the detailed engines over generated machines.

Every drawn :class:`~repro.config.MachineSpec` and short synthetic trace
must simulate identically on the reference loop, the in-memory fast
engine and the chunk-streamed pipeline (streaming functional pass into
:func:`~repro.simulator.streaming.run_fast_stream`) at a drawn chunk
size.  The caches are tiny so misses, long-miss overlap and ROB stalls
all occur on a few hundred instructions.  Identical means the whole
telemetry output too: stall-class counts, the interval timeline at a
drawn interval, the rollup timeline at a drawn row cap, and the event
trace's JSONL.

Hand-built pathological ``(Trace, EventAnnotations)`` pairs push each
miss-event class to its extreme, where a generator seldom goes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PREDICTORS, CacheSpec, HierarchySpec, MachineSpec
from repro.frontend.events import EventAnnotations
from repro.isa.instruction import NO_REG
from repro.isa.opclass import OpClass
from repro.simulator import streaming
from repro.simulator.processor import DetailedSimulator
from repro.simulator.streaming import simulate_stream
from repro.spec import TelemetrySpec
from repro.telemetry.session import Telemetry
from repro.trace.chunks import TraceChunkStream
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace
from tests.simulator.test_engine_equivalence import (
    CONFIGS,
    _annotation_slice,
    assert_equivalent,
)


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


def _measured(tele: Telemetry) -> tuple:
    """Everything a finished session measured, in comparable form."""
    report = tele.report
    events = report.events.to_jsonl() if report.events is not None else None
    return tele.counts, report.timeline, events


@given(machine=machines(),
       bench=st.sampled_from(BENCHMARK_ORDER),
       length=st.integers(1, 600),
       seed=st.integers(0, 3),
       chunk_size=st.integers(1, 650),
       small_tables=st.booleans(),
       interval=st.integers(1, 50),
       max_rows=st.integers(2, 16))
@settings(max_examples=150, deadline=None)
def test_engines_agree_on_generated_machines(machine, bench, length, seed,
                                             chunk_size, small_tables,
                                             interval, max_rows):
    trace = generate_trace(bench, length, seed)
    ref_sim = DetailedSimulator(machine, engine="reference", telemetry=False)
    annotations = ref_sim.annotate(trace)
    ref = ref_sim.run(trace, annotations)
    fast = DetailedSimulator(machine, engine="fast", telemetry=False).run(
        trace, annotations)
    assert_equivalent(fast, ref)
    # the smallest tables the engine allows make it cross many blocks
    span = 0 if small_tables else streaming._TABLE_SPAN
    with mock.patch.object(streaming, "_TABLE_SPAN", span):
        streamed = simulate_stream(_chunked(trace, chunk_size), machine,
                                   telemetry=False)
    assert_equivalent(streamed, ref)
    # the fast engine charges class counts in place without an event
    # trace and through the session with one: draw a session of each
    configs = (TelemetrySpec(interval=interval),
               TelemetrySpec(interval=interval, events=True,
                             max_timeline_rows=max_rows))
    for config in configs:
        sessions = [Telemetry(config) for _ in range(3)]
        ref_sim = DetailedSimulator(machine, engine="reference",
                                    telemetry=sessions[0])
        assert_equivalent(ref_sim.run(trace, annotations), ref)
        fast_sim = DetailedSimulator(machine, engine="fast",
                                     telemetry=sessions[1])
        assert_equivalent(fast_sim.run(trace, annotations), ref)
        with mock.patch.object(streaming, "_TABLE_SPAN", span):
            streamed = simulate_stream(_chunked(trace, chunk_size), machine,
                                       telemetry=sessions[2])
        assert_equivalent(streamed, ref)
        expected = _measured(sessions[0])
        assert sum(expected[0]) == ref.cycles
        assert _measured(sessions[1]) == expected
        assert _measured(sessions[2]) == expected


#: instructions in each pathological trace
_N = 300

#: consumer distance past rob_size of each ``long-load-consumer-at-rob``
#: case
_ROB_EDGES = {"long-load-consumer-at-rob-minus-1": -1,
              "long-load-consumer-at-rob": 0,
              "long-load-consumer-at-rob-plus-1": 1}


def _pathological(case: str, machine: MachineSpec):
    """The ``(trace, annotations)`` pair named ``case`` for ``machine``."""
    idx = np.arange(_N)
    none = np.full(_N, NO_REG)
    op = np.full(_N, int(OpClass.IALU))
    dst, src1 = (idx % 32) + 1, none
    fetch_stall = np.zeros(_N, dtype=np.int32)
    load_extra = np.zeros(_N, dtype=np.int32)
    long_miss = np.zeros(_N, dtype=np.bool_)
    mispredicted = np.zeros(_N, dtype=np.bool_)
    memory = machine.hierarchy.memory_latency
    if case == "all-mispredicted":
        op[:] = int(OpClass.BRANCH)
        dst = none
        mispredicted[:] = True
    elif case == "all-long-loads":
        op[:] = int(OpClass.LOAD)
        load_extra[:] = memory
        long_miss[:] = True
    elif case == "imiss-every-line":
        # four 4-byte instructions per 16-byte line; the line's first
        # instruction carries its stall, alternating L2 hit and miss
        starts = idx % 4 == 0
        fetch_stall[starts] = np.where(idx[starts] % 8 == 0, memory,
                                       machine.hierarchy.l2_latency)
    elif case == "one-chain":
        op[:] = np.array([OpClass.IALU, OpClass.IMUL, OpClass.LOAD])[idx % 3]
        dst = src1 = np.ones(_N)
        load_extra[op == OpClass.LOAD] = machine.hierarchy.l2_latency
    elif case.startswith("long-load-consumer-at-rob"):
        # every instruction writes its own register; each memory-latency
        # load's value is read by the instruction rob_size - 1, rob_size
        # or rob_size + 1 later, the edge where a producer stops binding
        dist = machine.rob_size + _ROB_EDGES[case]
        loads = idx % 25 == 0
        op[loads] = int(OpClass.LOAD)
        load_extra[loads] = memory
        long_miss[loads] = True
        dst = idx + 1
        src1 = np.where((idx >= dist) & loads[idx - dist], idx - dist + 1,
                        NO_REG)
    elif case == "same-cycle-ready-burst":
        # groups of one memory-latency load and 2 * width + 1 readers of
        # its value: the readers become ready in the same cycle, so issue
        # must skip the full cycles that follow
        group = idx % (2 * machine.width + 2)
        loads = group == 0
        op[loads] = int(OpClass.LOAD)
        load_extra[loads] = memory
        long_miss[loads] = True
        dst = np.where(loads, 1, group + 1)
        src1 = np.where(loads, NO_REG, 1)
    elif case != "no-dependences":
        raise ValueError(case)
    trace = Trace(pc=0x1000 + 4 * idx, opclass=op, dst=dst, src1=src1,
                  src2=none, addr=np.where(op == OpClass.LOAD,
                                           0x10_0000 + 64 * idx, 0),
                  taken=np.zeros(_N, dtype=np.bool_),
                  target=np.zeros(_N), name=case)
    return trace, EventAnnotations(fetch_stall=fetch_stall,
                                   load_extra=load_extra,
                                   long_miss=long_miss,
                                   mispredicted=mispredicted)


@pytest.mark.parametrize("machine", CONFIGS, ids=("baseline", "cramped"))
@pytest.mark.parametrize("case", ("all-mispredicted", "all-long-loads",
                                  "imiss-every-line", "one-chain",
                                  "no-dependences", *_ROB_EDGES,
                                  "same-cycle-ready-burst"))
def test_engines_agree_on_pathological_traces(case, machine):
    trace, annotations = _pathological(case, machine)
    sims = {engine: DetailedSimulator(machine, engine=engine, telemetry=True)
            for engine in ("reference", "fast")}
    ref, fast = (sim.run(trace, annotations) for sim in sims.values())
    # every annotated event reaches the timing model
    assert ref.misprediction_count == annotations.mispredicted.sum()
    assert ref.dcache_long_count == annotations.long_miss.sum()
    assert (ref.icache_short_count + ref.icache_long_count
            == np.count_nonzero(annotations.fetch_stall))
    assert_equivalent(fast, ref)
    expected = _measured(sims["reference"].last_telemetry)
    assert _measured(sims["fast"].last_telemetry) == expected
    assert sum(expected[0]) == ref.cycles
    for span in (streaming._TABLE_SPAN, 0):
        for size in (1, 7, _N):
            tele = Telemetry()
            feed = [(i, trace[i:i + size],
                     _annotation_slice(annotations, i, size))
                    for i in range(0, _N, size)]
            with mock.patch.object(streaming, "_TABLE_SPAN", span):
                streamed = streaming.run_fast_stream(
                    feed, _N, machine, name=case, telemetry=tele)
            assert_equivalent(streamed, ref)
            tele.finish(case, streamed.instructions, streamed.cycles)
            assert _measured(tele) == expected
