"""Figure 16 — the CPI "stack model".

"Because delays independently add, we can build a stack model of
performance": per benchmark, the CPI decomposed into ideal, L1/L2
instruction-miss, L2 data-miss and branch-misprediction slices.  The
paper highlights that mcf and twolf are dominated by long data-cache
misses (≈70% and ≈60% of CPI) while gzip's loss is mostly branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.model import FirstOrderModel
from repro.core.stack import CPIStack, render_stacks
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
from repro.telemetry.session import telemetry_enabled


@dataclass(frozen=True)
class StackResult:
    stacks: tuple[CPIStack, ...]
    #: measured stacks from the instrumented detailed simulation, in the
    #: same benchmark order; empty when telemetry was not requested
    measured: tuple[MeasuredCPIStack, ...] = ()

    def stack(self, benchmark: str) -> CPIStack:
        for s in self.stacks:
            if s.name == benchmark:
                return s
        raise KeyError(benchmark)

    def measured_stack(self, benchmark: str) -> MeasuredCPIStack:
        for s in self.measured:
            if s.name == benchmark:
                return s
        raise KeyError(benchmark)

    def format(self) -> str:
        table = format_table(
            ("bench", "ideal", "L1 I$", "L2 I$", "L2 D$", "branch",
             "total"),
            [
                (s.name, s.ideal, s.l1_icache, s.l2_icache, s.l2_dcache,
                 s.branch, s.total)
                for s in self.stacks
            ],
        )
        if not self.measured:
            return table
        folded = [m.as_model_stack() for m in self.measured]
        measured_table = format_table(
            ("bench", "ideal", "L1 I$", "L2 I$", "L2 D$", "branch",
             "total"),
            [
                (f.name, f.ideal, f.l1_icache, f.l2_icache, f.l2_dcache,
                 f.branch, f.total)
                for f in folded
            ],
        )
        return (
            "model:\n" + table
            + "\n\nmeasured (detailed simulation):\n" + measured_table
        )

    def render(self) -> str:
        if self.measured:
            return "\n\n".join(
                render_side_by_side(self.stack(m.name), m)
                for m in self.measured
            )
        return render_stacks(self.stacks)

    def checks(self) -> list[Claim]:
        mcf = self.stack("mcf")
        twolf = self.stack("twolf")
        gzip = self.stack("gzip")
        non_ideal_gzip = {
            k: gzip.component(k)
            for k in ("l1_icache", "l2_icache", "l2_dcache", "branch")
        }
        claims = [
            Claim(
                "mcf is dominated by long data-cache misses "
                "(paper: ~70% of CPI)",
                mcf.fraction("l2_dcache") > 0.45,
                f"mcf L2-D share {mcf.fraction('l2_dcache'):.0%}",
            ),
            Claim(
                "twolf's largest loss is long data-cache misses "
                "(paper: ~60% of CPI)",
                twolf.fraction("l2_dcache")
                == max(
                    twolf.fraction(k)
                    for k in ("l1_icache", "l2_icache", "l2_dcache", "branch")
                ),
                f"twolf L2-D share {twolf.fraction('l2_dcache'):.0%}",
            ),
            Claim(
                "gzip's performance loss is mostly branch mispredictions",
                max(non_ideal_gzip, key=non_ideal_gzip.get) == "branch",
                f"gzip branch share {gzip.fraction('branch'):.0%}",
            ),
            Claim(
                "every stack is non-negative and sums to the model CPI",
                all(s.total > 0 for s in self.stacks),
                "all totals positive",
            ),
        ]
        if self.measured:
            worst = max(
                abs(m.total - m.cycles / m.instructions)
                for m in self.measured
            )
            claims.append(
                Claim(
                    "measured stack components sum to the simulated CPI",
                    worst < 1e-9,
                    f"worst residual {worst:.2e}",
                )
            )
        return claims


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    measured: bool | None = None,
    workload: WorkloadSpec | None = None,
) -> StackResult:
    """Model CPI stacks, optionally next to measured ones.

    ``measured=None`` defers to the ``REPRO_TELEMETRY`` environment knob;
    when it resolves true, each benchmark is also run through the
    detailed simulator with the stall accountant attached and the
    measured stack reported alongside the model's.
    """
    if measured is None:
        measured = telemetry_enabled()
    model = FirstOrderModel(config)
    stacks = []
    measured_stacks = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        stacks.append(model.evaluate_trace(trace).stack())
        if measured:
            sim = DetailedSimulator(config, telemetry=True)
            sim.run(trace)
            measured_stacks.append(sim.last_telemetry.report.stack)
    return StackResult(
        stacks=tuple(stacks), measured=tuple(measured_stacks)
    )


if __name__ == "__main__":  # pragma: no cover
    result = run()
    print(result.format())
    for claim in result.checks():
        print(claim)
