"""Robustness: model accuracy across branch-predictor quality.

The branch term is the model's largest identified error source
(paper §7).  This experiment swaps the predictor through the whole
quality spectrum — static, bimodal, gShare, local-history, tournament,
ideal — and checks that (a) better predictors lower CPI in both the
model and the simulator, and (b) the model keeps tracking the simulator
at every quality level, not just the gShare baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.model import FirstOrderModel
from repro.experiments.common import (
    BASELINE,
    DEFAULT_TRACE_LENGTH,
    Claim,
    cached_trace,
    format_table,
    mean,
    WorkloadSpec,
    workload_for,
)
from repro.simulator.processor import DetailedSimulator

BENCHMARKS = ("gzip", "twolf", "parser")

#: predictor quality spectrum, roughly worst to best: (row label,
#: :data:`repro.config.PREDICTORS` name at its registry defaults)
PREDICTORS: tuple[tuple[str, str], ...] = (
    ("static-taken", "static"),
    ("bimodal", "bimodal"),
    ("gshare-8k", "gshare"),
    ("local", "local"),
    ("tournament", "tournament"),
)


@dataclass(frozen=True)
class PredictorRow:
    benchmark: str
    predictor: str
    misprediction_rate: float
    model_cpi: float
    sim_cpi: float

    @property
    def error(self) -> float:
        return abs(self.model_cpi - self.sim_cpi) / self.sim_cpi


@dataclass(frozen=True)
class PredictorSweepResult:
    rows: tuple[PredictorRow, ...]

    def mean_error(self) -> float:
        return mean([r.error for r in self.rows])

    def format(self) -> str:
        return format_table(
            ("bench", "predictor", "misp rate", "model", "sim", "err"),
            [
                (r.benchmark, r.predictor,
                 f"{r.misprediction_rate:.1%}", r.model_cpi, r.sim_cpi,
                 f"{r.error:.0%}")
                for r in self.rows
            ],
        ) + f"\nmean |error| {self.mean_error():.1%}"

    def checks(self) -> list[Claim]:
        # per benchmark: worse misprediction rate -> higher CPI, in both
        monotone_sim = monotone_model = 0
        total = 0
        for bench in {r.benchmark for r in self.rows}:
            rows = sorted(
                (r for r in self.rows if r.benchmark == bench),
                key=lambda r: r.misprediction_rate,
            )
            for a, b in zip(rows, rows[1:]):
                if b.misprediction_rate - a.misprediction_rate < 0.005:
                    continue
                total += 1
                monotone_sim += b.sim_cpi >= a.sim_cpi - 0.01
                monotone_model += b.model_cpi >= a.model_cpi - 0.01
        return [
            Claim(
                "more mispredictions mean higher CPI in the simulator",
                total == 0 or monotone_sim / total >= 0.9,
                f"{monotone_sim}/{total} ordered pairs",
            ),
            Claim(
                "the model reproduces the predictor-quality ordering",
                total == 0 or monotone_model / total >= 0.9,
                f"{monotone_model}/{total} ordered pairs",
            ),
            Claim(
                "the model tracks the simulator at every quality level",
                self.mean_error() < 0.15,
                f"mean |error| {self.mean_error():.1%}",
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = BENCHMARKS,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> PredictorSweepResult:
    rows = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        for label, predictor in PREDICTORS:
            cfg = dataclasses.replace(config, predictor=predictor)
            report = FirstOrderModel(cfg).evaluate_trace(trace)
            sim_machine = DetailedSimulator(cfg)
            annotations = sim_machine.annotate(trace)
            sim = sim_machine.run(trace, annotations)
            branches = int(trace.branches.sum())
            rows.append(
                PredictorRow(
                    benchmark=name,
                    predictor=label,
                    misprediction_rate=(
                        int(annotations.mispredicted.sum()) / branches
                        if branches else 0.0
                    ),
                    model_cpi=report.cpi,
                    sim_cpi=sim.cpi,
                )
            )
    return PredictorSweepResult(rows=tuple(rows))
