"""Figure 9 — measured penalty per branch misprediction, 5 vs 9 stages.

The paper's recipe: simulate with ideal caches and a real gShare, then
with everything ideal, and divide the cycle difference by the number of
mispredictions.  Key observations encoded as checks: the penalty exceeds
the front-end depth (often substantially — up to ~2x), and deepening the
front end from 5 to 9 stages raises the penalty by roughly the added
depth.
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
    mean,
    WorkloadSpec,
    workload_for,
)
from repro.simulator.processor import DetailedSimulator

#: the two front-end depths of paper Figure 9
DEPTHS = (5, 9)


@dataclass(frozen=True)
class BranchPenaltyRow:
    benchmark: str
    mispredictions: int
    #: penalty per misprediction, keyed by front-end depth
    penalties: dict[int, float]


@dataclass(frozen=True)
class BranchPenaltyResult:
    rows: tuple[BranchPenaltyRow, ...]

    def format(self) -> str:
        return format_table(
            ("bench", "mispredicts") + tuple(f"depth {d}" for d in DEPTHS),
            [
                (r.benchmark, r.mispredictions)
                + tuple(round(r.penalties[d], 1) for d in DEPTHS)
                for r in self.rows
            ],
        )

    def checks(self) -> list[Claim]:
        shallow = [r.penalties[DEPTHS[0]] for r in self.rows]
        deep = [r.penalties[DEPTHS[1]] for r in self.rows]
        extra = DEPTHS[1] - DEPTHS[0]
        depth_deltas = [d - s for s, d in zip(shallow, deep)]
        return [
            Claim(
                "penalty exceeds the front-end depth for every benchmark "
                "(paper: typically 6.4–10 cycles for 5 stages)",
                all(p > DEPTHS[0] for p in shallow),
                f"min {min(shallow):.1f}, max {max(shallow):.1f} cycles",
            ),
            Claim(
                "penalty can approach twice the front-end depth "
                "(paper: up to 14.7 for vpr)",
                max(shallow) > 1.5 * DEPTHS[0],
                f"max {max(shallow):.1f} cycles vs depth {DEPTHS[0]}",
            ),
            Claim(
                "deepening the pipeline by 4 stages adds ≈ 4 cycles of "
                "penalty",
                2.0 <= mean(depth_deltas) <= 6.0,
                f"mean delta {mean(depth_deltas):.1f} cycles "
                f"(added depth {extra})",
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    depths: tuple[int, ...] = DEPTHS,
    workload: WorkloadSpec | None = None,
) -> BranchPenaltyResult:
    rows = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        penalties: dict[int, float] = {}
        mispredictions = 0
        for depth in depths:
            cfg = config.with_depth(depth)
            real_bp = DetailedSimulator(cfg.only_real_predictor()).run(trace)
            ideal = DetailedSimulator(cfg.all_ideal()).run(trace)
            mispredictions = real_bp.misprediction_count
            if mispredictions == 0:
                penalties[depth] = 0.0
            else:
                penalties[depth] = real_bp.penalty_per_event(
                    ideal, mispredictions
                )
        rows.append(
            BranchPenaltyRow(
                benchmark=name,
                mispredictions=mispredictions,
                penalties=penalties,
            )
        )
    return BranchPenaltyResult(rows=tuple(rows))
