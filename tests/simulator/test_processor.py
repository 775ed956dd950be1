"""Tests for the detailed cycle-level simulator."""

import dataclasses

import numpy as np
import pytest

from repro.config import MachineSpec
from repro.frontend.events import EventAnnotations
from repro.isa.instruction import NO_REG, Instruction
from repro.isa.latency import LatencyTable
from repro.isa.opclass import OpClass
from repro.simulator.processor import DetailedSimulator, simulate
from repro.trace.trace import Trace


def alu(pc, dst, src1=NO_REG, src2=NO_REG):
    return Instruction(pc=pc, opclass=OpClass.IALU, dst=dst, src1=src1,
                       src2=src2)


def clean_annotations(n):
    """No miss-events at all."""
    return EventAnnotations(
        fetch_stall=np.zeros(n, dtype=np.int32),
        load_extra=np.zeros(n, dtype=np.int32),
        long_miss=np.zeros(n, dtype=np.bool_),
        mispredicted=np.zeros(n, dtype=np.bool_),
    )


def small_machine(**kw):
    defaults = dict(pipeline_depth=3, width=2, window_size=8, rob_size=16)
    defaults.update(kw)
    return MachineSpec(**defaults)


class TestAnalyticalCases:
    def test_serial_chain_throughput(self):
        """A pure dependence chain retires ~1 IPC regardless of width."""
        n = 200
        rows = [alu(4 * k, dst=10 + k % 40,
                    src1=(10 + (k - 1) % 40) if k else NO_REG)
                for k in range(n)]
        trace = Trace.from_instructions(rows)
        r = simulate(trace, small_machine(width=4, window_size=16,
                                          rob_size=32),
                     annotations=clean_annotations(n))
        assert r.ipc == pytest.approx(1.0, rel=0.1)

    def test_independent_code_saturates_width(self):
        n = 400
        trace = Trace.from_instructions(
            [alu(4 * k, dst=10 + k % 40) for k in range(n)]
        )
        r = simulate(trace, small_machine(width=2),
                     annotations=clean_annotations(n))
        assert r.ipc == pytest.approx(2.0, rel=0.1)

    def test_single_long_miss_costs_about_the_delay(self):
        """One long miss in independent code costs ≈ ΔD − rob_fill
        (paper Eq. 6)."""
        n = 2000
        cfg = small_machine(width=2, window_size=8, rob_size=16)
        rows = []
        for k in range(n):
            if k == 500:
                rows.append(Instruction(pc=4 * k, opclass=OpClass.LOAD,
                                        dst=10 + k % 40, addr=0x1000))
            else:
                rows.append(alu(4 * k, dst=10 + k % 40))
        trace = Trace.from_instructions(rows)
        clean = simulate(trace, cfg, annotations=clean_annotations(n))
        ann = clean_annotations(n)
        ann.load_extra[500] = 200
        ann.long_miss[500] = True
        missed = simulate(trace, cfg, annotations=ann)
        penalty = missed.cycles - clean.cycles
        rob_fill = cfg.rob_size / cfg.width
        assert 200 - rob_fill - 10 <= penalty <= 200 + 5

    def test_overlapping_long_misses_share_the_delay(self):
        """Two independent long misses within the ROB window cost about
        one isolated delay in total (paper Eq. 7)."""
        n = 2000
        cfg = small_machine(width=2, window_size=8, rob_size=16)
        rows = []
        for k in range(n):
            if k in (500, 504):
                rows.append(Instruction(pc=4 * k, opclass=OpClass.LOAD,
                                        dst=10 + k % 40, addr=0x1000))
            else:
                rows.append(alu(4 * k, dst=10 + k % 40))
        trace = Trace.from_instructions(rows)
        clean = simulate(trace, cfg, annotations=clean_annotations(n))
        ann = clean_annotations(n)
        for k in (500, 504):
            ann.load_extra[k] = 200
            ann.long_miss[k] = True
        missed = simulate(trace, cfg, annotations=ann)
        total_penalty = missed.cycles - clean.cycles
        assert total_penalty < 1.3 * 200  # far less than 2 x 200

    def test_misprediction_costs_more_than_the_pipe(self):
        """An isolated misprediction costs ΔP plus drain and ramp
        (paper §4.1: 'significantly greater than the front-end depth')."""
        n = 2000
        cfg = small_machine(pipeline_depth=5, width=2, window_size=8,
                            rob_size=16)
        rows = []
        for k in range(n):
            if k == 500:
                rows.append(Instruction(pc=4 * k, opclass=OpClass.BRANCH,
                                        src1=10, taken=True,
                                        target=4 * (k + 1)))
            else:
                rows.append(alu(4 * k, dst=10 + k % 40))
        trace = Trace.from_instructions(rows)
        clean = simulate(trace, cfg, annotations=clean_annotations(n))
        ann = clean_annotations(n)
        ann.mispredicted[500] = True
        missed = simulate(trace, cfg, annotations=ann)
        penalty = missed.cycles - clean.cycles
        assert penalty >= cfg.pipeline_depth
        assert penalty <= 3 * cfg.pipeline_depth

    def test_icache_stall_costs_about_the_fill_delay(self):
        n = 2000
        cfg = small_machine()
        trace = Trace.from_instructions(
            [alu(4 * k, dst=10 + k % 40) for k in range(n)]
        )
        clean = simulate(trace, cfg, annotations=clean_annotations(n))
        ann = clean_annotations(n)
        ann.fetch_stall[1000] = 8
        stalled = simulate(trace, cfg, annotations=ann)
        penalty = stalled.cycles - clean.cycles
        assert 0 <= penalty <= 9


class TestAgainstIdealizedSimulator:
    def test_matches_iw_simulator_without_events(self, gzip_trace):
        """With no miss-events, a huge front end and matching widths, the
        detailed machine approaches the idealized IW simulator."""
        from repro.window.iw_simulator import LimitedWidthIWSimulator

        cfg = MachineSpec(
            pipeline_depth=1, width=4, window_size=48, rob_size=4096,
            latencies={c.name.lower(): 1 for c in OpClass},
        )
        detailed = simulate(gzip_trace, cfg,
                            annotations=clean_annotations(len(gzip_trace)))
        ideal = LimitedWidthIWSimulator(48, 4, LatencyTable.unit()).run(
            gzip_trace
        )
        assert detailed.ipc == pytest.approx(ideal.ipc, rel=0.1)


class TestEventAccounting:
    def test_counts_match_annotations(self, gzip_trace, baseline):
        sim = DetailedSimulator(baseline)
        ann = sim.annotate(gzip_trace)
        r = sim.run(gzip_trace, ann)
        assert r.misprediction_count == int(ann.mispredicted.sum())
        assert r.dcache_long_count == int(ann.long_miss.sum())
        assert r.icache_short_count + r.icache_long_count == int(
            (ann.fetch_stall > 0).sum()
        )

    def test_deterministic(self, gzip_trace, baseline):
        a = simulate(gzip_trace, baseline)
        b = simulate(gzip_trace, baseline)
        assert a.cycles == b.cycles

    def test_annotation_length_checked(self, gzip_trace, baseline):
        with pytest.raises(ValueError, match="match"):
            simulate(gzip_trace, baseline, annotations=clean_annotations(5))

    def test_empty_trace_rejected(self, gzip_trace, baseline):
        with pytest.raises(ValueError):
            simulate(gzip_trace[0:0], baseline)


class TestStructuralSensitivity:
    def test_ideal_config_is_fastest(self, gzip_trace, baseline):
        ideal = simulate(gzip_trace, baseline.all_ideal())
        real = simulate(gzip_trace, baseline.all_real())
        assert ideal.cycles <= real.cycles

    def test_partial_configs_bracket(self, mcf_trace, baseline):
        ideal = simulate(mcf_trace, baseline.all_ideal())
        real = simulate(mcf_trace, baseline.all_real())
        for cfg in (baseline.only_real_predictor(),
                    baseline.only_real_icache(),
                    baseline.only_real_dcache()):
            partial = simulate(mcf_trace, cfg)
            assert ideal.cycles <= partial.cycles <= real.cycles + 5

    def test_deeper_pipe_never_faster(self, gzip_trace, baseline):
        shallow = simulate(gzip_trace, baseline.with_depth(5))
        deep = simulate(gzip_trace, baseline.with_depth(9))
        assert deep.cycles >= shallow.cycles

    def test_wider_machine_never_slower(self, gzip_trace, baseline):
        narrow = simulate(gzip_trace, baseline.with_width(2))
        wide = simulate(gzip_trace, baseline.with_width(4))
        assert wide.cycles <= narrow.cycles

    def test_bigger_window_never_slower(self, vpr_trace, baseline):
        small = simulate(vpr_trace, dataclasses.replace(
            baseline, window_size=16))
        big = simulate(vpr_trace, dataclasses.replace(
            baseline, window_size=64))
        assert big.cycles <= small.cycles


class TestInstrumentation:
    def test_histogram_sums_to_cycles(self, gzip_trace, baseline):
        r = simulate(gzip_trace, baseline)
        hist = r.instrumentation.issued_histogram
        assert int(hist.sum()) == r.cycles
        # the weighted sum equals total instructions issued
        weighted = int((hist * np.arange(len(hist))).sum())
        assert weighted == r.instructions

    def test_histogram_width_bound(self, gzip_trace, baseline):
        r = simulate(gzip_trace, baseline)
        assert len(r.instrumentation.issued_histogram) == baseline.width + 1

    def test_window_left_recorded_per_mispredict_issue(self, gzip_trace,
                                                       baseline):
        r = simulate(gzip_trace, baseline.all_real())
        instr = r.instrumentation
        if r.misprediction_count:
            assert 0 < len(instr.window_left_at_mispredict) <= (
                r.misprediction_count
            )
            assert all(
                0 <= v <= baseline.window_size
                for v in instr.window_left_at_mispredict
            )

    def test_rob_ahead_bounded(self, mcf_trace, baseline):
        r = simulate(mcf_trace, baseline.all_real())
        instr = r.instrumentation
        assert all(
            0 <= v < baseline.rob_size
            for v in instr.rob_ahead_at_long_miss
        )

    def test_instrument_false_skips_collection(self, gzip_trace, baseline):
        r = simulate(gzip_trace, baseline, instrument=False)
        assert r.instrumentation is None

    def test_fraction_of_cycles_at_issue(self, gzip_trace, baseline):
        r = simulate(gzip_trace, baseline)
        f_any = r.instrumentation.fraction_of_cycles_at_issue(0)
        f_max = r.instrumentation.fraction_of_cycles_at_issue(baseline.width)
        assert f_any == pytest.approx(1.0)
        assert 0 <= f_max <= 1


class TestResultArithmetic:
    def test_ipc_cpi_reciprocal(self, gzip_trace, baseline):
        r = simulate(gzip_trace, baseline)
        assert r.ipc * r.cpi == pytest.approx(1.0)

    def test_penalty_per_event_validation(self, gzip_trace, baseline):
        r = simulate(gzip_trace, baseline)
        with pytest.raises(ValueError):
            r.penalty_per_event(r, 0)
        short = simulate(gzip_trace[:100], baseline)
        with pytest.raises(ValueError, match="same trace"):
            r.penalty_per_event(short, 1)
