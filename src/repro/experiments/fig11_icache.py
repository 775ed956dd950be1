"""Figure 11 — instruction-cache miss penalty ≈ ΔI, independent of depth.

Simulate with a real I-cache (ideal D-cache and predictor) at 5 and 9
front-end stages, divide the extra cycles by the I-miss count.  The
paper's observations: the penalty is approximately the L2 access delay
(8 cycles) and does not change with front-end depth.  Benchmarks with a
negligible number of misses are skipped, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.experiments.common import (
    BASELINE,
    BENCHMARK_ORDER,
    DEFAULT_TRACE_LENGTH,
    Claim,
    cached_trace,
    format_table,
    WorkloadSpec,
    workload_for,
)
from repro.simulator.processor import DetailedSimulator

DEPTHS = (5, 9)

#: benchmarks with fewer misses than this are reported as negligible
MIN_MISSES = 50


@dataclass(frozen=True)
class ICachePenaltyRow:
    benchmark: str
    misses: int
    penalties: dict[int, float]


@dataclass(frozen=True)
class ICachePenaltyResult:
    rows: tuple[ICachePenaltyRow, ...]
    skipped: tuple[str, ...]
    miss_delay: int

    def format(self) -> str:
        table = format_table(
            ("bench", "misses") + tuple(f"depth {d}" for d in DEPTHS),
            [
                (r.benchmark, r.misses)
                + tuple(round(r.penalties[d], 1) for d in DEPTHS)
                for r in self.rows
            ],
        )
        if self.skipped:
            table += (
                "\nnegligible misses (not shown, as in the paper): "
                + ", ".join(self.skipped)
            )
        return table

    def checks(self) -> list[Claim]:
        if not self.rows:
            return [Claim("at least one benchmark has I-cache misses",
                          False, "none found")]
        shallow = [r.penalties[DEPTHS[0]] for r in self.rows]
        deltas = [
            abs(r.penalties[DEPTHS[1]] - r.penalties[DEPTHS[0]])
            for r in self.rows
        ]
        return [
            Claim(
                "penalty per I-miss ≈ the L2 access delay "
                f"(paper: ≈ {self.miss_delay} cycles)",
                all(0.5 * self.miss_delay <= p <= 1.5 * self.miss_delay
                    for p in shallow),
                f"range {min(shallow):.1f}–{max(shallow):.1f} cycles",
            ),
            Claim(
                "penalty is independent of front-end depth "
                "(paper observation 1 of §4.2)",
                max(deltas) < 0.4 * self.miss_delay,
                f"max |depth-9 − depth-5| = {max(deltas):.1f} cycles",
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    depths: tuple[int, ...] = DEPTHS,
    workload: WorkloadSpec | None = None,
) -> ICachePenaltyResult:
    rows = []
    skipped = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        penalties: dict[int, float] = {}
        misses = 0
        for depth in depths:
            cfg = config.with_depth(depth)
            real_ic = DetailedSimulator(cfg.only_real_icache()).run(trace)
            ideal = DetailedSimulator(cfg.all_ideal()).run(trace)
            misses = real_ic.icache_short_count + real_ic.icache_long_count
            if misses == 0:
                penalties[depth] = 0.0
            else:
                penalties[depth] = real_ic.penalty_per_event(ideal, misses)
        if misses < MIN_MISSES:
            skipped.append(name)
        else:
            rows.append(
                ICachePenaltyRow(
                    benchmark=name, misses=misses, penalties=penalties
                )
            )
    return ICachePenaltyResult(
        rows=tuple(rows),
        skipped=tuple(skipped),
        miss_delay=config.hierarchy.l2_latency,
    )
