"""Related-work comparison: model vs statistical simulation (paper §1.2).

"Statistical simulation methods collect many of the same program
statistics as used by our model, and use them to generate a synthetic
trace that drives a simple superscalar simulator.  In effect, our model
performs statistical simulation, without the simulation, and overall
accuracy is similar."

This experiment runs all three estimators per benchmark — detailed
simulation (ground truth), statistical simulation, and the first-order
model — and checks that both approximations stay first-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
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
from repro.statsim.generator import statistical_simulate


@dataclass(frozen=True)
class ComparisonRow:
    benchmark: str
    detailed_cpi: float
    statsim_cpi: float
    model_cpi: float

    @property
    def statsim_error(self) -> float:
        return abs(self.statsim_cpi - self.detailed_cpi) / self.detailed_cpi

    @property
    def model_error(self) -> float:
        return abs(self.model_cpi - self.detailed_cpi) / self.detailed_cpi


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]

    def mean_statsim_error(self) -> float:
        return mean([r.statsim_error for r in self.rows])

    def mean_model_error(self) -> float:
        return mean([r.model_error for r in self.rows])

    def format(self) -> str:
        table = format_table(
            ("bench", "detailed CPI", "statsim CPI", "model CPI",
             "statsim err", "model err"),
            [
                (r.benchmark, r.detailed_cpi, r.statsim_cpi, r.model_cpi,
                 f"{r.statsim_error:.1%}", f"{r.model_error:.1%}")
                for r in self.rows
            ],
        )
        return (
            table
            + f"\nmean errors: statistical simulation "
            f"{self.mean_statsim_error():.1%}, first-order model "
            f"{self.mean_model_error():.1%}"
        )

    def checks(self) -> list[Claim]:
        return [
            Claim(
                "statistical simulation is first-order accurate",
                self.mean_statsim_error() < 0.15,
                f"mean error {self.mean_statsim_error():.1%}",
            ),
            Claim(
                "the model's accuracy is of the same order as "
                "statistical simulation (paper: 'overall accuracy is "
                "similar')",
                self.mean_model_error() < self.mean_statsim_error() + 0.10,
                f"model {self.mean_model_error():.1%} vs statsim "
                f"{self.mean_statsim_error():.1%}",
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    seed: int = 3,
    workload: WorkloadSpec | None = None,
) -> ComparisonResult:
    model = FirstOrderModel(config)
    rows = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        detailed = DetailedSimulator(config.all_real(),
                                     instrument=False).run(trace)
        statsim = statistical_simulate(trace, config, seed=seed)
        report = model.evaluate_trace(trace)
        rows.append(
            ComparisonRow(
                benchmark=name,
                detailed_cpi=detailed.cpi,
                statsim_cpi=statsim.cpi,
                model_cpi=report.cpi,
            )
        )
    return ComparisonResult(rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    result = run()
    print(result.format())
    for claim in result.checks():
        print(claim)
