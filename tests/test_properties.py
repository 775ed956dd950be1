"""Property-based tests on randomly generated programs.

Hypothesis builds small random-but-valid instruction sequences and random
miss-event annotations, then checks invariants that must hold for *any*
program on the first-order machine:

* structural bounds on cycle counts (issue-width and dependence-chain
  lower bounds, serial upper bound);
* monotonicity: removing any single miss event never slows the machine;
* monotonicity in machine parameters (wider/shallower/bigger never
  slower on identical inputs);
* dependence-renaming invariants on arbitrary register traffic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.frontend.events import EventAnnotations
from repro.isa.instruction import NO_REG, Instruction
from repro.isa.opclass import OpClass
from repro.simulator.processor import simulate
from repro.trace.trace import Trace

# -- strategies -----------------------------------------------------------


@st.composite
def random_programs(draw, min_size=8, max_size=60):
    """A valid instruction sequence with random dependences, plus a pc
    stream of sequential addresses."""
    n = draw(st.integers(min_size, max_size))
    rows = []
    writers: list[int] = []  # registers written so far
    for k in range(n):
        kind = draw(st.sampled_from(["alu", "alu", "alu", "load",
                                     "store", "branch"]))
        def src():
            if writers and draw(st.booleans()):
                return draw(st.sampled_from(writers))
            return draw(st.integers(0, 7))

        if kind == "alu":
            dst = 8 + (k % 48)
            rows.append(Instruction(pc=4 * k, opclass=OpClass.IALU,
                                    dst=dst, src1=src(),
                                    src2=src() if draw(st.booleans())
                                    else NO_REG))
            writers.append(dst)
        elif kind == "load":
            dst = 8 + (k % 48)
            rows.append(Instruction(pc=4 * k, opclass=OpClass.LOAD,
                                    dst=dst, src1=src(),
                                    addr=64 * draw(st.integers(0, 40))))
            writers.append(dst)
        elif kind == "store":
            rows.append(Instruction(pc=4 * k, opclass=OpClass.STORE,
                                    src1=src(), src2=src(),
                                    addr=64 * draw(st.integers(0, 40))))
        else:
            rows.append(Instruction(pc=4 * k, opclass=OpClass.BRANCH,
                                    src1=src(),
                                    taken=draw(st.booleans()),
                                    target=4 * (k + 1)))
        if len(writers) > 48:
            del writers[:16]
    return Trace.from_instructions(rows)


@st.composite
def random_annotations(draw, trace):
    """Random (but consistent) miss-event annotations for ``trace``."""
    n = len(trace)
    fetch_stall = np.zeros(n, dtype=np.int32)
    load_extra = np.zeros(n, dtype=np.int32)
    long_miss = np.zeros(n, dtype=np.bool_)
    mispredicted = np.zeros(n, dtype=np.bool_)
    for k in range(n):
        if draw(st.integers(0, 19)) == 0:
            fetch_stall[k] = draw(st.sampled_from([8, 200]))
        if trace.loads[k] and draw(st.integers(0, 9)) == 0:
            if draw(st.booleans()):
                load_extra[k] = 8
            else:
                load_extra[k] = 200
                long_miss[k] = True
        if trace.branches[k] and draw(st.integers(0, 4)) == 0:
            mispredicted[k] = True
    return EventAnnotations(fetch_stall=fetch_stall,
                            load_extra=load_extra,
                            long_miss=long_miss,
                            mispredicted=mispredicted)


def clean(n):
    return EventAnnotations(
        fetch_stall=np.zeros(n, dtype=np.int32),
        load_extra=np.zeros(n, dtype=np.int32),
        long_miss=np.zeros(n, dtype=np.bool_),
        mispredicted=np.zeros(n, dtype=np.bool_),
    )


SMALL_MACHINE = MachineSpec(
    pipeline_depth=3, width=2, window_size=8, rob_size=16,
    latencies={c.name.lower(): 1 for c in OpClass},
)

# -- properties ----------------------------------------------------------


class TestCycleBounds:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_width_lower_bound(self, trace):
        r = simulate(trace, SMALL_MACHINE, annotations=clean(len(trace)),
                     instrument=False)
        assert r.cycles >= len(trace) / SMALL_MACHINE.width

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_serial_upper_bound(self, trace):
        """No clean program is slower than fully serial execution plus
        the pipeline fill."""
        r = simulate(trace, SMALL_MACHINE, annotations=clean(len(trace)),
                     instrument=False)
        lat = trace.latencies(SMALL_MACHINE.latency_table)
        assert r.cycles <= int(lat.sum()) + SMALL_MACHINE.pipeline_depth + 2

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_dependence_chain_lower_bound(self, trace):
        """Cycles >= depth of the dependence chain (unit latency)."""
        deps = trace.dependences()
        depth = np.zeros(len(trace), dtype=np.int64)
        for k in range(len(trace)):
            d = 0
            if deps.dep1[k] >= 0:
                d = depth[deps.dep1[k]] + 1
            if deps.dep2[k] >= 0:
                d = max(d, depth[deps.dep2[k]] + 1)
            depth[k] = d
        r = simulate(trace, SMALL_MACHINE, annotations=clean(len(trace)),
                     instrument=False)
        assert r.cycles >= int(depth.max())


class TestEventMonotonicity:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_removing_any_event_never_slows_the_machine(self, data):
        trace = data.draw(random_programs())
        ann = data.draw(random_annotations(trace))
        base = simulate(trace, SMALL_MACHINE, annotations=ann,
                        instrument=False)

        events = (
            [("stall", k) for k in np.flatnonzero(ann.fetch_stall)]
            + [("load", k) for k in np.flatnonzero(ann.load_extra)]
            + [("misp", k) for k in np.flatnonzero(ann.mispredicted)]
        )
        if not events:
            return
        kind, k = events[data.draw(st.integers(0, len(events) - 1))]
        fetch = ann.fetch_stall.copy()
        extra = ann.load_extra.copy()
        long_ = ann.long_miss.copy()
        misp = ann.mispredicted.copy()
        if kind == "stall":
            fetch[k] = 0
        elif kind == "load":
            extra[k] = 0
            long_[k] = False
        else:
            misp[k] = False
        reduced = simulate(
            trace, SMALL_MACHINE,
            annotations=EventAnnotations(fetch, extra, long_, misp),
            instrument=False,
        )
        assert reduced.cycles <= base.cycles

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_clean_run_is_fastest(self, data):
        trace = data.draw(random_programs())
        ann = data.draw(random_annotations(trace))
        with_events = simulate(trace, SMALL_MACHINE, annotations=ann,
                               instrument=False)
        without = simulate(trace, SMALL_MACHINE,
                           annotations=clean(len(trace)),
                           instrument=False)
        assert without.cycles <= with_events.cycles


class TestMachineMonotonicity:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_shallower_pipe_never_slower_without_fetch_stalls(self, data):
        """Holds only without I-cache stalls: a *deeper* front end
        carries more fetch-side buffering (depth x width slots) and can
        hide an I-miss stall a shallow pipe exposes — hypothesis found
        that counterexample, and it is real machine behaviour (it is why
        the paper's Eq. 4 subtracts win_drain).  With stall-free fetch,
        every dispatch strictly moves earlier as the pipe shortens."""
        trace = data.draw(random_programs())
        ann = data.draw(random_annotations(trace))
        ann = EventAnnotations(
            fetch_stall=np.zeros(len(trace), dtype=np.int32),
            load_extra=ann.load_extra,
            long_miss=ann.long_miss,
            mispredicted=ann.mispredicted,
        )
        deep = simulate(trace, SMALL_MACHINE.with_depth(8),
                        annotations=ann, instrument=False)
        shallow = simulate(trace, SMALL_MACHINE.with_depth(2),
                           annotations=ann, instrument=False)
        assert shallow.cycles <= deep.cycles

    def test_icache_stall_penalty_depth_independent_when_saturated(self):
        """The Figure-11 property at its sharpest: in saturated
        independent code, fetch bandwidth equals issue bandwidth, so a
        lost fetch cycle can never be made up — the exposed penalty of an
        I-stall equals the full fill delay at *any* front-end depth
        (buffering shifts the bubble, it cannot absorb it)."""
        n = 600
        rows = [Instruction(pc=4 * k, opclass=OpClass.IALU,
                            dst=8 + k % 48) for k in range(n)]
        trace = Trace.from_instructions(rows)
        ann = clean(n)
        ann.fetch_stall[300] = 8
        exposed = {}
        for depth in (2, 8):
            cfg = SMALL_MACHINE.with_depth(depth)
            stalled = simulate(trace, cfg, annotations=ann,
                               instrument=False)
            baseline = simulate(trace, cfg, annotations=clean(n),
                                instrument=False)
            exposed[depth] = stalled.cycles - baseline.cycles
        assert exposed[2] == exposed[8] == 8

    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_wider_machine_never_slower_clean(self, trace):
        ann = clean(len(trace))
        narrow = simulate(trace, SMALL_MACHINE.with_width(1),
                          annotations=ann, instrument=False)
        wide = simulate(trace, SMALL_MACHINE.with_width(4),
                        annotations=ann, instrument=False)
        assert wide.cycles <= narrow.cycles


class TestRenamingProperties:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_producers_precede_consumers(self, trace):
        deps = trace.dependences()
        idx = np.arange(len(trace))
        assert (deps.dep1 < idx).all() and (deps.dep2 < idx).all()

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_producers_write_the_consumed_register(self, trace):
        deps = trace.dependences()
        for dep, src in ((deps.dep1, trace.src1), (deps.dep2, trace.src2)):
            has = dep >= 0
            if has.any():
                assert (trace.dst[dep[has]]
                        == src[np.flatnonzero(has)]).all()

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_live_in_registers_never_have_producers(self, trace):
        deps = trace.dependences()
        low = trace.src1 < 8
        present = trace.src1 != NO_REG
        # registers 0..7 are never written by the strategy
        assert (deps.dep1[low & present] == -1).all()
