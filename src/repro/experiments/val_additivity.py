"""Additivity validation — the measured CPI stack vs the model's.

The paper's whole construction rests on penalties adding independently
(Eq. 1); Figure 16 then *renders* the assumption as a stack.  This
experiment closes the loop: the detailed simulator's stall accountant
classifies every cycle into exactly one stall class, so the measured
components sum to the simulated CPI by construction, and folding them
onto the model's slices (:meth:`MeasuredCPIStack.as_model_stack`) makes
the model's decomposition directly comparable with what the machine
actually did cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.model import FirstOrderModel
from repro.core.stack import STACK_ORDER, CPIStack
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
from repro.telemetry.accountant import MeasuredCPIStack, render_side_by_side

#: benchmarks the agreement-band claims quote (a mid-ILP, a frontend-
#: bound and a window-bound benchmark); the run still covers all of them
BAND_BENCHMARKS = ("gzip", "vortex", "vpr")

#: |model - measured| CPI band for the total, in cycles per instruction
TOTAL_BAND = 0.35


@dataclass(frozen=True)
class AdditivityRow:
    """One benchmark's model stack next to its measured stack."""

    model: CPIStack
    measured: MeasuredCPIStack

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def residual(self) -> float:
        """Measured components' deviation from the simulated CPI."""
        return abs(self.measured.total - self.measured.cpi)

    @property
    def total_error(self) -> float:
        """Model total CPI minus measured total CPI."""
        return self.model.total - self.measured.total

    def component_error(self, key: str) -> float:
        return self.model.component(key) - self.measured.as_model_stack().component(key)


@dataclass(frozen=True)
class AdditivityResult:
    rows: tuple[AdditivityRow, ...]

    def row(self, benchmark: str) -> AdditivityRow:
        for r in self.rows:
            if r.name == benchmark:
                return r
        raise KeyError(benchmark)

    def format(self) -> str:
        return format_table(
            ("bench", "model CPI", "measured CPI", "error", "residual"),
            [
                (r.name, r.model.total, r.measured.total,
                 r.total_error, f"{r.residual:.1e}")
                for r in self.rows
            ],
        )

    def render(self) -> str:
        return "\n\n".join(
            render_side_by_side(r.model, r.measured) for r in self.rows
        )

    def checks(self) -> list[Claim]:
        worst_residual = max(r.residual for r in self.rows)
        worst_total = max(abs(r.total_error) for r in self.rows)
        claims = [
            Claim(
                "measured stall classes partition the simulated cycles "
                "(components sum to the simulated CPI)",
                worst_residual < 1e-9,
                f"worst residual {worst_residual:.2e}",
            ),
            Claim(
                "the model's additive CPI tracks the measured total "
                f"within {TOTAL_BAND} CPI on every benchmark",
                worst_total < TOTAL_BAND,
                f"worst |model - measured| {worst_total:.3f}",
            ),
        ]
        for name in BAND_BENCHMARKS:
            row = self.row(name)
            claims.append(
                Claim(
                    f"{name}: model total CPI within {TOTAL_BAND} of the "
                    "measured total",
                    abs(row.total_error) < TOTAL_BAND,
                    f"model {row.model.total:.3f}, "
                    f"measured {row.measured.total:.3f}",
                )
            )
        loss_keys = [k for k in STACK_ORDER if k != "ideal"]
        for name in ("mcf", "twolf"):
            folded = self.row(name).measured.as_model_stack()
            claims.append(
                Claim(
                    f"{name}: measurement confirms long data-cache misses "
                    "as the dominant loss (paper Figure 16)",
                    max(loss_keys, key=folded.component) == "l2_dcache",
                    f"measured L2-D CPI {folded.l2_dcache:.3f}",
                )
            )
        return claims


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> AdditivityResult:
    model = FirstOrderModel(config)
    rows = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        model_stack = model.evaluate_trace(trace).stack()
        sim = DetailedSimulator(config, telemetry=True)
        sim.run(trace)
        rows.append(
            AdditivityRow(
                model=model_stack,
                measured=sim.last_telemetry.report.stack,
            )
        )
    return AdditivityResult(rows=tuple(rows))
