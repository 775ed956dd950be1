"""Figure 2 — miss-event penalties are approximately independent.

The paper's opening experiment (§1.1): simulate five configurations —
(1) everything ideal, (2) everything real, (3) only the predictor real,
(4) only the I-cache real, (5) only the D-cache real — and compare the
"real" IPC with the IPC obtained by adding the three independently
measured penalties to the ideal time.  A third bar compensates for branch
and I-cache events that overlap a long data-cache miss by dropping their
penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from repro.trace.trace import Trace


@dataclass(frozen=True)
class IndependenceRow:
    """Per-benchmark Figure-2 bars."""

    benchmark: str
    combined_ipc: float      #: bar 1 — the fully "realistic" simulation
    independent_ipc: float   #: bar 2 — penalties summed independently
    compensated_ipc: float   #: bar 3 — overlaps with d-misses compensated

    @property
    def independent_error(self) -> float:
        """Relative error of the independent approximation."""
        return abs(self.independent_ipc - self.combined_ipc) / self.combined_ipc

    @property
    def compensated_error(self) -> float:
        return abs(self.compensated_ipc - self.combined_ipc) / self.combined_ipc


@dataclass(frozen=True)
class IndependenceResult:
    rows: tuple[IndependenceRow, ...]

    def mean_independent_error(self) -> float:
        return mean([r.independent_error for r in self.rows])

    def mean_compensated_error(self) -> float:
        return mean([r.compensated_error for r in self.rows])

    def format(self) -> str:
        return format_table(
            ("bench", "combined", "independent", "compensated",
             "indep err", "comp err"),
            [
                (r.benchmark, r.combined_ipc, r.independent_ipc,
                 r.compensated_ipc, f"{r.independent_error:.1%}",
                 f"{r.compensated_error:.1%}")
                for r in self.rows
            ],
        )

    def checks(self) -> list[Claim]:
        mean_err = self.mean_independent_error()
        worst = max(r.independent_error for r in self.rows)
        return [
            Claim(
                "independent-penalty approximation is accurate on average "
                "(paper: 5% mean error)",
                mean_err < 0.10,
                f"mean error {mean_err:.1%}",
            ),
            Claim(
                "worst-case independent error stays moderate (paper: 16%)",
                worst < 0.25,
                f"worst error {worst:.1%}",
            ),
        ]


def _overlap_fractions(
    trace: Trace, config: MachineSpec, window: int
) -> tuple[float, float]:
    """Fractions of mispredictions / I-misses that fall within ``window``
    dynamic instructions after a long data-cache miss (the paper counts
    these during simulation 2 and drops their penalties)."""
    ann = DetailedSimulator(config).annotate(trace)
    long_idx = np.flatnonzero(ann.long_miss)
    if long_idx.size == 0:
        return 0.0, 0.0

    def frac(event_idx: np.ndarray) -> float:
        if event_idx.size == 0:
            return 0.0
        pos = np.searchsorted(long_idx, event_idx, side="right") - 1
        valid = pos >= 0
        dist = np.where(valid, event_idx - long_idx[np.clip(pos, 0, None)],
                        window + 1)
        return float((dist <= window).mean())

    br = frac(np.flatnonzero(ann.mispredicted))
    ic = frac(np.flatnonzero(ann.fetch_stall > 0))
    return br, ic


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> IndependenceResult:
    """Run the five-configuration experiment for each benchmark."""
    rows = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        n = len(trace)
        ideal = DetailedSimulator(config.all_ideal(), instrument=False).run(trace)
        real = DetailedSimulator(config.all_real(), instrument=False).run(trace)
        bp = DetailedSimulator(config.only_real_predictor(),
                               instrument=False).run(trace)
        ic = DetailedSimulator(config.only_real_icache(),
                               instrument=False).run(trace)
        dc = DetailedSimulator(config.only_real_dcache(),
                               instrument=False).run(trace)

        br_cycles = bp.cycles - ideal.cycles
        ic_cycles = ic.cycles - ideal.cycles
        dc_cycles = dc.cycles - ideal.cycles
        independent = ideal.cycles + br_cycles + ic_cycles + dc_cycles

        f_br, f_ic = _overlap_fractions(trace, config.all_real(),
                                        config.rob_size)
        compensated = (
            ideal.cycles
            + br_cycles * (1.0 - f_br)
            + ic_cycles * (1.0 - f_ic)
            + dc_cycles
        )
        rows.append(
            IndependenceRow(
                benchmark=name,
                combined_ipc=n / real.cycles,
                independent_ipc=n / independent,
                compensated_ipc=n / compensated,
            )
        )
    return IndependenceResult(rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    result = run()
    print(result.format())
    for claim in result.checks():
        print(claim)
