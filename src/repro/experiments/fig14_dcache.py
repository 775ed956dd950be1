"""Figure 14 — penalty per long data-cache miss: simulation vs Eq. 8.

Simulation side: real D-cache with everything else ideal, compared
against an otherwise-identical run in which every long miss is demoted to
a short miss (L2 latency) — the cycle difference divided by the long-miss
count isolates exactly the long-miss penalty, the way the paper's 128 KB
single-level experiment does (short misses would otherwise pollute the
quotient through their IW-characteristic effect).  Model side: the
isolated penalty ΔD scaled by the overlap factor Σ f_LDM(i)/i measured
from the trace (Eq. 8).  The paper notes this is the least accurate part
of the model ("reasonably close, although not as close as other parts").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.dcache_penalty import DCachePenaltyModel
from repro.core.model import FirstOrderModel
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

#: benchmarks with fewer long misses than this are skipped (per-miss
#: penalty estimates are unstable below it)
MIN_MISSES = 30


@dataclass(frozen=True)
class DCachePenaltyRow:
    benchmark: str
    long_misses: int
    simulated_penalty: float
    model_penalty: float
    overlap_factor: float

    @property
    def relative_error(self) -> float:
        if self.simulated_penalty == 0:
            return 0.0
        return (
            abs(self.model_penalty - self.simulated_penalty)
            / self.simulated_penalty
        )


@dataclass(frozen=True)
class DCachePenaltyResult:
    rows: tuple[DCachePenaltyRow, ...]
    skipped: tuple[str, ...]
    miss_delay: int

    def format(self) -> str:
        table = format_table(
            ("bench", "long misses", "sim penalty", "model penalty",
             "overlap", "err"),
            [
                (r.benchmark, r.long_misses, round(r.simulated_penalty, 1),
                 round(r.model_penalty, 1), round(r.overlap_factor, 2),
                 f"{r.relative_error:.0%}")
                for r in self.rows
            ],
        )
        if self.skipped:
            table += "\nnegligible long misses: " + ", ".join(self.skipped)
        return table

    def checks(self) -> list[Claim]:
        if not self.rows:
            return [Claim("at least one benchmark has long misses",
                          False, "none found")]
        errors = [r.relative_error for r in self.rows]
        return [
            Claim(
                "per-miss penalties are bounded by the isolated delay "
                f"(ΔD = {self.miss_delay})",
                all(r.simulated_penalty <= 1.2 * self.miss_delay
                    for r in self.rows),
                f"max sim penalty {max(r.simulated_penalty for r in self.rows):.0f}",
            ),
            Claim(
                "the Eq. 8 overlap model tracks simulation (paper: "
                "'reasonably close, although not as close as other parts')",
                mean(errors) < 0.5,
                f"mean relative error {mean(errors):.0%}",
            ),
            Claim(
                "overlapping misses reduce the per-miss penalty below ΔD",
                all(
                    r.simulated_penalty < self.miss_delay
                    for r in self.rows
                    if r.overlap_factor < 0.8
                ),
                "clustered benchmarks pay less than the isolated delay",
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> DCachePenaltyResult:
    rows = []
    skipped = []
    dcache_cfg = config.only_real_dcache()
    first_order = FirstOrderModel(dcache_cfg)
    model = DCachePenaltyModel(
        miss_delay=config.hierarchy.memory_latency, rob_size=config.rob_size
    )
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        sim = DetailedSimulator(dcache_cfg)
        annotations = sim.annotate(trace)
        real_dc = sim.run(trace, annotations)
        if real_dc.dcache_long_count < MIN_MISSES:
            skipped.append(name)
            continue
        # baseline: identical machine and short-miss behaviour, but every
        # long miss demoted to a short miss — isolates the long-miss cost
        import numpy as np

        from repro.frontend.events import EventAnnotations

        demoted = EventAnnotations(
            fetch_stall=annotations.fetch_stall,
            load_extra=np.where(
                annotations.long_miss,
                dcache_cfg.hierarchy.l2_latency,
                annotations.load_extra,
            ).astype(annotations.load_extra.dtype),
            long_miss=np.zeros_like(annotations.long_miss),
            mispredicted=annotations.mispredicted,
        )
        baseline = sim.run(trace, demoted)
        profile = first_order.profile(trace)
        rows.append(
            DCachePenaltyRow(
                benchmark=name,
                long_misses=real_dc.dcache_long_count,
                simulated_penalty=real_dc.penalty_per_event(
                    baseline, real_dc.dcache_long_count
                ),
                model_penalty=model.penalty_from_profile(profile),
                overlap_factor=profile.overlap_factor(config.rob_size),
            )
        )
    return DCachePenaltyResult(
        rows=tuple(rows),
        skipped=tuple(skipped),
        miss_delay=config.hierarchy.memory_latency,
    )
