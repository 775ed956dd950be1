"""Synthetic-trace generation from program statistics.

The second half of statistical simulation: sample a trace whose
statistics match a :class:`~repro.statsim.statistics.ProgramStatistics`,
*including pre-sampled miss events* (statistical simulation does not
re-simulate caches — event rates are part of the profile), then run the
cycle-level simulator over it.

Dependence encoding: the generator wants to realise sampled
producer->consumer *distances* directly, but a :class:`Trace` carries
register names, not producer indices.  Destinations are therefore
allocated round-robin over a large register file and a ring of recent
writers is kept; a sampled distance is realised by naming the register of
the writer closest to ``k - distance``.  With 56 writable registers the
encoding is faithful for distances well beyond the 256-bucket histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import BASELINE, MachineSpec
from repro.frontend.events import EventAnnotations
from repro.isa.instruction import NO_REG
from repro.isa.opclass import OpClass, writes_register
from repro.statsim.statistics import ProgramStatistics
from repro.trace.trace import Trace

_LIVE_IN = 4
_NUM_REGS = 64


@dataclass(frozen=True)
class StatisticalTrace:
    """A sampled trace plus its pre-sampled miss-event annotations."""

    trace: Trace
    annotations: EventAnnotations


class StatisticalTraceGenerator:
    """Samples synthetic traces from a statistical profile."""

    def __init__(self, statistics: ProgramStatistics,
                 config: MachineSpec | None = None):
        self.statistics = statistics
        self.config = config or BASELINE

    def generate(self, length: int | None = None,
                 seed: int = 0) -> StatisticalTrace:
        """Sample a trace of ``length`` instructions (defaults to the
        profiled length)."""
        stats = self.statistics
        n = stats.length if length is None else int(length)
        if n <= 0:
            raise ValueError("length must be positive")
        rng = np.random.default_rng(seed)

        classes = np.array([int(c) for c in stats.mix], dtype=np.int8)
        probs = np.array([stats.mix[c] for c in stats.mix], dtype=float)
        probs = probs / probs.sum()
        opclass = rng.choice(classes, size=n, p=probs)

        dist_probs = stats.distance_distribution()
        distances = 1 + rng.choice(
            len(dist_probs), size=2 * n, p=dist_probs
        )
        has_src1 = rng.random(n) < stats.src1_presence
        has_src2 = rng.random(n) < stats.src2_presence

        dst = np.full(n, NO_REG, dtype=np.int16)
        src1 = np.full(n, NO_REG, dtype=np.int16)
        src2 = np.full(n, NO_REG, dtype=np.int16)

        writer_class = np.array(
            [writes_register(OpClass(c)) for c in range(len(OpClass))]
        )
        writers_idx: list[int] = []   # trace index of each write, in order
        writers_reg: list[int] = []
        next_reg = _LIVE_IN

        op_list = opclass.tolist()
        d_list = distances.tolist()
        h1 = has_src1.tolist()
        h2 = has_src2.tolist()
        di = 0
        for k in range(n):
            if h1[k]:
                src1[k] = self._resolve(writers_idx, writers_reg,
                                        k - d_list[di], rng)
                di += 1
            if h2[k]:
                src2[k] = self._resolve(writers_idx, writers_reg,
                                        k - d_list[di], rng)
                di += 1
            if writer_class[op_list[k]]:
                dst[k] = next_reg
                writers_idx.append(k)
                writers_reg.append(next_reg)
                next_reg += 1
                if next_reg >= _NUM_REGS:
                    next_reg = _LIVE_IN
                if len(writers_idx) > 4 * _NUM_REGS:
                    del writers_idx[: 2 * _NUM_REGS]
                    del writers_reg[: 2 * _NUM_REGS]

        # control classes carry no destination; strip any accidental ones
        taken = np.zeros(n, dtype=np.bool_)
        taken[np.isin(opclass, [int(OpClass.JUMP)])] = True

        trace = Trace(
            pc=4 * np.arange(n, dtype=np.int64),
            opclass=opclass,
            dst=dst,
            src1=src1,
            src2=src2,
            addr=np.zeros(n, dtype=np.int64),
            taken=taken,
            target=np.zeros(n, dtype=np.int64),
            name="statsim",
        )
        annotations = self._sample_annotations(trace, rng)
        return StatisticalTrace(trace=trace, annotations=annotations)

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _resolve(writers_idx: list[int], writers_reg: list[int],
                 target: int, rng: np.random.Generator) -> int:
        """Register of the writer closest to trace index ``target``;
        live-in when the distance reaches before the trace start."""
        if target < 0 or not writers_idx:
            return int(rng.integers(0, _LIVE_IN))
        # writers_idx is sorted; binary search for the closest
        import bisect

        pos = bisect.bisect_right(writers_idx, target) - 1
        if pos < 0:
            return int(rng.integers(0, _LIVE_IN))
        return writers_reg[pos]

    def _sample_annotations(
        self, trace: Trace, rng: np.random.Generator
    ) -> EventAnnotations:
        stats = self.statistics
        cfg = self.config.hierarchy
        n = len(trace)

        fetch_stall = np.zeros(n, dtype=np.int32)
        short_i = rng.random(n) < stats.icache_short_per_instruction
        long_i = rng.random(n) < stats.icache_long_per_instruction
        fetch_stall[short_i] = cfg.l2_latency
        fetch_stall[long_i] = cfg.memory_latency

        loads = np.flatnonzero(trace.loads)
        load_extra = np.zeros(n, dtype=np.int32)
        long_miss = np.zeros(n, dtype=np.bool_)
        if loads.size:
            short_d = rng.random(loads.size) < stats.dcache_short_rate
            load_extra[loads[short_d]] = cfg.l2_latency
            self._place_long_misses(loads, load_extra, long_miss, rng)

        branches = np.flatnonzero(trace.branches)
        mispredicted = np.zeros(n, dtype=np.bool_)
        if branches.size:
            miss = rng.random(branches.size) < stats.misprediction_rate
            mispredicted[branches[miss]] = True

        return EventAnnotations(
            fetch_stall=fetch_stall,
            load_extra=load_extra,
            long_miss=long_miss,
            mispredicted=mispredicted,
        )

    def _place_long_misses(
        self,
        loads: np.ndarray,
        load_extra: np.ndarray,
        long_miss: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Place long misses by resampling the empirical inter-miss gap
        distribution, preserving the clustering that drives overlap; fall
        back to i.i.d. placement when no gaps were observed."""
        stats = self.statistics
        n = len(load_extra)
        expected = stats.dcache_long_rate * loads.size
        if expected <= 0:
            return
        positions: list[int] = []
        if stats.long_miss_gaps.size:
            pos = int(rng.integers(0, max(1, int(n * 0.05) + 1)))
            while pos < n:
                positions.append(pos)
                pos += int(rng.choice(stats.long_miss_gaps))
        else:
            count = max(1, round(expected))
            positions = sorted(
                int(p) for p in rng.choice(n, size=count, replace=False)
            )
        # snap each sampled position to the nearest load
        for p in positions:
            j = int(np.searchsorted(loads, p))
            j = min(j, loads.size - 1)
            k = int(loads[j])
            long_miss[k] = True
            load_extra[k] = self.config.hierarchy.memory_latency


def statistical_simulate(
    trace: Trace,
    config: MachineSpec | None = None,
    length: int | None = None,
    seed: int = 0,
):
    """End-to-end statistical simulation of ``trace``'s workload:
    collect statistics, sample a synthetic trace, run the cycle-level
    simulator over it.  Returns the :class:`~repro.simulator.SimResult`
    of the synthetic run."""
    from repro.core.model import FirstOrderModel
    from repro.simulator.processor import DetailedSimulator
    from repro.statsim.statistics import ProgramStatistics

    cfg = config or BASELINE
    profile = FirstOrderModel(cfg).profile(trace)
    stats = ProgramStatistics.collect(trace, profile)
    synthetic = StatisticalTraceGenerator(stats, cfg).generate(length, seed)
    sim = DetailedSimulator(cfg)
    return sim.run(synthetic.trace, synthetic.annotations)
