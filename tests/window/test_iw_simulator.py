"""Tests for the idealized IW simulators (paper §3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instruction import NO_REG, Instruction
from repro.isa.latency import LatencyTable
from repro.isa.opclass import OpClass, writes_register
from repro.trace.trace import Trace
from repro.window.iw_simulator import (
    LimitedWidthIWSimulator,
    measure_iw_curve,
    simulate_unbounded_issue,
)


def alu(pc, dst, src1=NO_REG, src2=NO_REG):
    return Instruction(pc=pc, opclass=OpClass.IALU, dst=dst, src1=src1,
                       src2=src2)


def chain(n):
    """A pure serial dependence chain: IPC must be 1 at any window."""
    rows = [alu(0, dst=10)]
    for k in range(1, n):
        rows.append(alu(4 * k, dst=10 + k % 40, src1=10 + (k - 1) % 40))
    return Trace.from_instructions(rows)


def independent(n):
    """Fully independent instructions: IPC = window size (unit latency)."""
    return Trace.from_instructions(
        [alu(4 * k, dst=10 + k % 40) for k in range(n)]
    )


class TestAnalyticalExtremes:
    def test_serial_chain_has_ipc_one(self):
        r = simulate_unbounded_issue(chain(500), window_size=16)
        assert r.ipc == pytest.approx(1.0, rel=0.05)

    def test_independent_code_fills_the_window(self):
        r = simulate_unbounded_issue(independent(512), window_size=8)
        assert r.ipc == pytest.approx(8.0, rel=0.05)

    def test_window_of_one_serialises(self):
        r = simulate_unbounded_issue(independent(100), window_size=1)
        assert r.ipc == pytest.approx(1.0, rel=0.05)

    def test_cycles_times_ipc_equals_instructions(self, gzip_trace):
        r = simulate_unbounded_issue(gzip_trace, 32)
        assert r.ipc * r.cycles == pytest.approx(r.instructions)


class TestEquivalence:
    @pytest.mark.parametrize("window", (2, 8, 48))
    def test_heap_formulation_matches_per_cycle(self, gzip_trace, window):
        """The O(N log W) incremental formulation and the per-cycle
        simulator implement the same machine."""
        fast = simulate_unbounded_issue(gzip_trace, window)
        slow = LimitedWidthIWSimulator(
            window, issue_width=len(gzip_trace)
        ).run(gzip_trace)
        assert fast.cycles == slow.cycles

    def test_equivalence_with_latencies(self, vpr_trace):
        table = LatencyTable()
        fast = simulate_unbounded_issue(vpr_trace, 16, table)
        slow = LimitedWidthIWSimulator(
            16, issue_width=len(vpr_trace), latency_table=table
        ).run(vpr_trace)
        assert fast.cycles == slow.cycles


@st.composite
def short_traces(draw):
    """Short traces over a handful of registers, every opclass allowed,
    so dependences are dense and latencies vary under the real table."""
    n = draw(st.integers(1, 40))
    reg = st.one_of(st.just(NO_REG), st.integers(1, 6))
    rows = []
    for k in range(n):
        op = draw(st.sampled_from(list(OpClass)))
        dst = draw(reg) if writes_register(op) else NO_REG
        rows.append(Instruction(pc=4 * k, opclass=op, dst=dst,
                                src1=draw(reg), src2=draw(reg)))
    return Trace.from_instructions(rows)


class TestLeanKernel:
    @given(trace=short_traces(), window=st.integers(1, 48),
           real=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cycle_simulator(self, trace, window, real):
        """The pre-filled-heap kernel equals the per-cycle simulator at
        unbounded width, including w = 1 and w >= len(trace)."""
        table = LatencyTable() if real else LatencyTable.unit()
        for w in {1, window, len(trace), len(trace) + window}:
            fast = simulate_unbounded_issue(trace, w, table)
            slow = LimitedWidthIWSimulator(
                w, issue_width=len(trace), latency_table=table
            ).run(trace)
            assert fast.cycles == slow.cycles


class TestMonotonicity:
    def test_ipc_grows_with_window(self, gzip_trace):
        ipcs = [
            simulate_unbounded_issue(gzip_trace, w).ipc
            for w in (2, 4, 8, 16, 32)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(ipcs, ipcs[1:]))

    def test_latency_scales_down_ipc(self, gzip_trace):
        unit = simulate_unbounded_issue(gzip_trace, 16)
        slow = simulate_unbounded_issue(
            gzip_trace, 16, LatencyTable.unit().replace(ialu=2, load=2)
        )
        assert slow.ipc < unit.ipc

    def test_littles_law_direction(self, gzip_trace):
        """Doubling every latency roughly halves the issue rate
        (I_L = I_1 / L, paper §3)."""
        table2 = LatencyTable({c: 2 for c in
                               LatencyTable.unit().latencies})
        unit = simulate_unbounded_issue(gzip_trace, 32)
        doubled = simulate_unbounded_issue(gzip_trace, 32, table2)
        assert doubled.ipc == pytest.approx(unit.ipc / 2, rel=0.15)


class TestLimitedWidth:
    def test_saturates_at_width(self, gzip_trace):
        r = LimitedWidthIWSimulator(128, issue_width=2).run(gzip_trace)
        assert r.ipc <= 2.0 + 1e-9
        assert r.ipc > 1.8

    def test_follows_ideal_below_saturation(self, gzip_trace):
        ideal = simulate_unbounded_issue(gzip_trace, 2)
        limited = LimitedWidthIWSimulator(2, issue_width=8).run(gzip_trace)
        assert limited.ipc == pytest.approx(ideal.ipc, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            LimitedWidthIWSimulator(0)
        with pytest.raises(ValueError):
            LimitedWidthIWSimulator(4, issue_width=0)


class TestMeasureCurve:
    def test_points_match_window_sizes(self, gzip_trace):
        curve = measure_iw_curve(gzip_trace, (2, 8, 32))
        assert tuple(p.window_size for p in curve.points) == (2, 8, 32)
        assert curve.name == gzip_trace.name

    def test_ipc_at(self, gzip_trace):
        curve = measure_iw_curve(gzip_trace, (2, 8))
        assert curve.ipc_at(8) == curve.points[1].ipc
        with pytest.raises(KeyError):
            curve.ipc_at(64)

    def test_limited_width_curve(self, gzip_trace):
        curve = measure_iw_curve(gzip_trace, (4, 64), issue_width=2)
        assert curve.ipc_at(64) <= 2.0 + 1e-9

    def test_errors(self, gzip_trace):
        with pytest.raises(ValueError):
            simulate_unbounded_issue(gzip_trace, 0)
        with pytest.raises(ValueError):
            simulate_unbounded_issue(gzip_trace[0:0], 4)
