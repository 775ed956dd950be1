"""Stability: model inputs and accuracy versus trace length.

The paper's traces are long enough that statistics are converged; ours
are short, so this experiment quantifies how quickly the pipeline
stabilises: the power-law fit, the misprediction rate and the headline
model-vs-simulation error as functions of trace length.  A downstream
user choosing a budget can read the knee directly off this table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.model import FirstOrderModel
from repro.core.steady_state import unit_iw_fit
from repro.experiments.common import (
    BASELINE,
    Claim,
    WorkloadSpec,
    format_table,
)
from repro.simulator.processor import DetailedSimulator
from repro.trace.synthetic import generate_trace

BENCHMARKS = ("gzip", "vpr")
LENGTHS = (4_000, 8_000, 16_000, 30_000, 60_000)


@dataclass(frozen=True)
class LengthRow:
    benchmark: str
    length: int
    beta: float
    misprediction_rate: float
    model_cpi: float
    sim_cpi: float

    @property
    def error(self) -> float:
        return abs(self.model_cpi - self.sim_cpi) / self.sim_cpi


@dataclass(frozen=True)
class LengthSweepResult:
    rows: tuple[LengthRow, ...]

    def series(self, benchmark: str) -> list[LengthRow]:
        return sorted(
            (r for r in self.rows if r.benchmark == benchmark),
            key=lambda r: r.length,
        )

    def format(self) -> str:
        return format_table(
            ("bench", "length", "beta", "misp rate", "model", "sim",
             "err"),
            [
                (r.benchmark, r.length, r.beta,
                 f"{r.misprediction_rate:.1%}", r.model_cpi, r.sim_cpi,
                 f"{r.error:.0%}")
                for r in self.rows
            ],
        )

    def checks(self) -> list[Claim]:
        claims = []
        # first-appearance order: a set's order varies with the hash seed
        for bench in dict.fromkeys(r.benchmark for r in self.rows):
            series = self.series(bench)
            betas = [r.beta for r in series]
            spread = max(betas) - min(betas)
            claims.append(
                Claim(
                    f"{bench}: the power-law exponent is stable across "
                    "trace lengths",
                    spread < 0.1,
                    f"beta spread {spread:.3f}",
                )
            )
            long_half = [r.error for r in series[len(series) // 2:]]
            claims.append(
                Claim(
                    f"{bench}: model error stays first-order at every "
                    "length >= the default",
                    max(long_half) < 0.25,
                    f"max error {max(long_half):.0%} in the upper half",
                )
            )
        return claims


def run(
    benchmarks: tuple[str, ...] = BENCHMARKS,
    lengths: tuple[int, ...] = LENGTHS,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> LengthSweepResult:
    model = FirstOrderModel(config)
    rows = []
    seed = workload.seed if workload is not None else None
    for name in benchmarks:
        for length in lengths:
            trace = generate_trace(name, length, seed=seed)
            report = model.evaluate_trace(trace)
            profile = model.profile(trace)
            fit = unit_iw_fit(trace)
            sim = DetailedSimulator(config.all_real()).run(trace)
            rows.append(
                LengthRow(
                    benchmark=name, length=length, beta=fit.beta,
                    misprediction_rate=profile.misprediction_rate,
                    model_cpi=report.cpi, sim_cpi=sim.cpi,
                )
            )
    return LengthSweepResult(rows=tuple(rows))
