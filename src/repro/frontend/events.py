"""Miss-event profiles: the analytical model's measured inputs.

Paper §5 step 5: "Use trace-driven simulations to arrive at the numbers
of branch mispredictions, instruction cache misses, data cache misses,
and distributions of the bursts of long data cache misses…".
A :class:`MissEventProfile` is the container for exactly that data — and
nothing more: the first-order model never sees cycle-level information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.latency import LatencyTable
from repro.isa.opclass import OpClass
from repro.trace.analysis import TraceStatistics, group_size_distribution


@dataclass(frozen=True)
class EventAnnotations:
    """Per-instruction miss-event annotations for the timing simulator.

    The detailed simulator is trace-driven, like the paper's: cache and
    predictor outcomes are resolved by the functional pass (in trace
    order) and attached to instructions, while all *timing* consequences
    — drains, ramp-ups, pipeline refills, ROB blocking, overlap — are
    simulated cycle by cycle.  Driving both the model and the simulator
    from the same annotations keeps their miss-event streams identical,
    which is exactly the paper's methodology.

    Attributes:
        fetch_stall: extra fetch-stall cycles charged when the line
            containing this instruction is fetched (non-zero only at the
            first instruction of a missing line).
        load_extra: extra load-to-use latency beyond the L1 hit latency
            (0, l2_latency for short misses, memory_latency for long).
        long_miss: True for loads whose reference missed the L2.
        mispredicted: True for mispredicted conditional branches.
    """

    fetch_stall: np.ndarray
    load_extra: np.ndarray
    long_miss: np.ndarray
    mispredicted: np.ndarray

    def __len__(self) -> int:
        return len(self.fetch_stall)


@dataclass(frozen=True)
class MissEventProfile:
    """Trace-derived statistics consumed by the first-order model.

    All counts are over the measured portion of the trace (after any
    functional warm-up pass).

    Attributes:
        name: benchmark name.
        length: dynamic instructions measured.
        branch_count: conditional branches executed.
        misprediction_count: gShare (or chosen predictor) mispredictions.
        misprediction_indices: trace indices of mispredicted branches
            (used by the misprediction-burst extension).
        fetch_line_accesses: I-cache accesses at line granularity.
        icache_short_count: instruction fetches that missed L1I, hit L2.
        icache_long_count: instruction fetches that missed the L2.
        load_count: loads executed.
        dcache_short_count: loads that missed L1D, hit L2 (short misses).
        dcache_long_count: loads that missed the L2 (long misses).
        long_miss_indices: trace indices of long-missing loads; distances
            between them feed the f_LDM(i) distribution of Eq. 8.
        trace_stats: general trace statistics (mix, dependences).
        annotations: per-instruction annotations for the detailed
            simulator, present when collection ran with ``annotate=True``.
    """

    name: str
    length: int
    branch_count: int
    misprediction_count: int
    misprediction_indices: np.ndarray
    fetch_line_accesses: int
    icache_short_count: int
    icache_long_count: int
    load_count: int
    dcache_short_count: int
    dcache_long_count: int
    long_miss_indices: np.ndarray
    trace_stats: TraceStatistics
    annotations: EventAnnotations | None = None

    # -- rates ------------------------------------------------------------

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per conditional branch."""
        return (
            self.misprediction_count / self.branch_count
            if self.branch_count else 0.0
        )

    @property
    def mispredictions_per_instruction(self) -> float:
        return self.misprediction_count / self.length

    @property
    def icache_short_per_instruction(self) -> float:
        return self.icache_short_count / self.length

    @property
    def icache_long_per_instruction(self) -> float:
        return self.icache_long_count / self.length

    @property
    def dcache_long_per_instruction(self) -> float:
        return self.dcache_long_count / self.length

    @property
    def short_miss_rate_per_load(self) -> float:
        return (
            self.dcache_short_count / self.load_count if self.load_count else 0.0
        )

    @property
    def long_miss_rate_per_load(self) -> float:
        return (
            self.dcache_long_count / self.load_count if self.load_count else 0.0
        )

    # -- derived model inputs ------------------------------------------------

    def effective_mean_latency(
        self, table: LatencyTable, l2_latency: int
    ) -> float:
        """Mix-weighted mean latency with short data-cache misses folded
        into the load latency.

        Paper §4.3: "Short misses are modeled as if they are serviced by
        long latency functional units.  Therefore, short misses are
        modeled by their effect on the IW characteristic (and is
        reflected in the third column of Table 1)."
        """
        mix = dict(self.trace_stats.mix)
        base = table.mean_latency(mix)
        load_frac = mix.get(OpClass.LOAD, 0.0)
        return base + load_frac * self.short_miss_rate_per_load * l2_latency

    def long_miss_group_distribution(self, rob_size: int) -> np.ndarray:
        """f_LDM(i) of Eq. 8 for a machine with ``rob_size`` ROB slots:
        the probability that a long miss belongs to a group of ``i``
        misses all within ``rob_size`` dynamic instructions of the group
        leader."""
        return group_size_distribution(self.long_miss_indices, rob_size)

    def overlap_factor(self, rob_size: int) -> float:
        """The Eq. 8 sum  Σ f_LDM(i) / i — the average fraction of an
        isolated-miss penalty each long miss actually costs once overlap
        is accounted for.  1.0 when every miss is isolated."""
        f = self.long_miss_group_distribution(rob_size)
        if f.size == 0:
            return 1.0
        sizes = np.arange(1, f.size + 1)
        return float(np.sum(f / sizes))
