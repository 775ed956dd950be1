"""Figure 15 — the headline: model CPI vs detailed-simulation CPI.

Follows the §5 recipe end to end for each benchmark and compares against
the detailed simulator.  The paper reports a 5.8% average error with
mcf/gzip/twolf worst at 12–13%; the checks assert our errors stay in the
same band.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.model import FirstOrderModel, ModelReport
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
from repro.runner import run_units
from repro.spec import RunSpec, SweepSpec

#: accuracy bands asserted by the checks (paper: 5.8% mean, 13% worst)
MEAN_ERROR_BAND = 0.10
WORST_ERROR_BAND = 0.20


@dataclass(frozen=True)
class OverallRow:
    benchmark: str
    report: ModelReport
    simulated_cpi: float

    @property
    def model_cpi(self) -> float:
        return self.report.cpi

    @property
    def relative_error(self) -> float:
        return abs(self.model_cpi - self.simulated_cpi) / self.simulated_cpi

    @property
    def signed_error(self) -> float:
        return (self.model_cpi - self.simulated_cpi) / self.simulated_cpi


@dataclass(frozen=True)
class OverallResult:
    rows: tuple[OverallRow, ...]

    def mean_error(self) -> float:
        return mean([r.relative_error for r in self.rows])

    def worst_error(self) -> float:
        return max(r.relative_error for r in self.rows)

    def format(self) -> str:
        table = format_table(
            ("bench", "model CPI", "sim CPI", "error"),
            [
                (r.benchmark, r.model_cpi, r.simulated_cpi,
                 f"{r.signed_error:+.1%}")
                for r in self.rows
            ],
        )
        return (
            table
            + f"\nmean |error| {self.mean_error():.1%}, worst "
            f"{self.worst_error():.1%} (paper: 5.8% / 13%)"
        )

    def checks(self) -> list[Claim]:
        return [
            Claim(
                "mean model-vs-simulation CPI error is in the paper's band "
                "(paper: 5.8%)",
                self.mean_error() < MEAN_ERROR_BAND,
                f"mean |error| {self.mean_error():.1%}",
            ),
            Claim(
                "worst-case error stays first-order (paper: 13%)",
                self.worst_error() < WORST_ERROR_BAND,
                f"worst |error| {self.worst_error():.1%}",
            ),
            Claim(
                "model ranks the benchmarks' CPI like the simulator "
                "(who wins)",
                _rank_agreement(self.rows) >= 0.8,
                f"rank correlation {_rank_agreement(self.rows):.2f}",
            ),
        ]


def _rank_agreement(rows: tuple[OverallRow, ...]) -> float:
    """Spearman rank correlation between model and simulated CPIs."""
    n = len(rows)
    if n < 2:
        return 1.0
    model_rank = {r.benchmark: i for i, r in enumerate(
        sorted(rows, key=lambda r: r.model_cpi))}
    sim_rank = {r.benchmark: i for i, r in enumerate(
        sorted(rows, key=lambda r: r.simulated_cpi))}
    d2 = sum((model_rank[r.benchmark] - sim_rank[r.benchmark]) ** 2
             for r in rows)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> OverallResult:
    if not benchmarks:
        return OverallResult(rows=())
    model = FirstOrderModel(config)
    sweep = SweepSpec(
        base=RunSpec(
            workload=workload_for(workload, benchmarks[0], trace_length),
            machine=config.all_real(),
        ),
        benchmarks=benchmarks,
    )
    sims, _ = run_units(sweep.expand())
    rows = []
    for name, sim in zip(benchmarks, sims):
        trace = cached_trace(workload_for(workload, name, trace_length))
        report = model.evaluate_trace(trace)
        rows.append(
            OverallRow(
                benchmark=name, report=report,
                simulated_cpi=sim.result.cpi,
            )
        )
    return OverallResult(rows=tuple(rows))
