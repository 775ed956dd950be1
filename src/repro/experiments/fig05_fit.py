"""Figure 5 — linear (log-log) fit quality for the illustrative benchmarks.

The paper overlays the measured IW curves of gzip, vortex and vpr with
their fitted lines and annotates the line equations
(``log2(I) = beta*log2(W) + log2(alpha)``).  Here we report the measured
and fitted values per window size and the worst-case fit deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.steady_state import unit_iw_curve
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    Claim,
    cached_trace,
    format_table,
    WorkloadSpec,
    workload_for,
)
from repro.window.iw_simulator import DEFAULT_WINDOW_SIZES
from repro.window.powerlaw import PowerLawFit, fit_curve

#: the benchmarks of paper Figure 5
FIT_BENCHMARKS = ("gzip", "vortex", "vpr")


@dataclass(frozen=True)
class FitRow:
    benchmark: str
    window_size: int
    measured_ipc: float
    fitted_ipc: float

    @property
    def log2_error(self) -> float:
        return abs(
            math.log2(self.measured_ipc) - math.log2(self.fitted_ipc)
        )


@dataclass(frozen=True)
class FitResult:
    rows: tuple[FitRow, ...]
    fits: dict[str, PowerLawFit]

    def format(self) -> str:
        lines = []
        for name, fit in self.fits.items():
            slope, intercept = fit.log2_line()
            lines.append(
                f"{name}: log2(I) = {slope:.2f}*log2(W) + {intercept:.2f}"
            )
        lines.append("")
        lines.append(
            format_table(
                ("bench", "W", "measured I", "fitted I", "|log2 err|"),
                [
                    (r.benchmark, r.window_size, r.measured_ipc,
                     r.fitted_ipc, r.log2_error)
                    for r in self.rows
                ],
            )
        )
        return "\n".join(lines)

    def checks(self) -> list[Claim]:
        worst = max(r.log2_error for r in self.rows)
        return [
            Claim(
                "fitted lines track the measured curves (paper Figure 5)",
                worst < 0.35,
                f"worst |log2| deviation {worst:.2f} "
                "(≈ {:.0%} in linear terms)".format(2 ** worst - 1),
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = FIT_BENCHMARKS,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    workload: WorkloadSpec | None = None,
) -> FitResult:
    rows: list[FitRow] = []
    fits: dict[str, PowerLawFit] = {}
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        curve = unit_iw_curve(trace, window_sizes)
        fit = fit_curve(curve)
        fits[name] = fit
        for point in curve.points:
            rows.append(
                FitRow(
                    benchmark=name,
                    window_size=point.window_size,
                    measured_ipc=point.ipc,
                    fitted_ipc=fit.ipc(point.window_size),
                )
            )
    return FitResult(rows=tuple(rows), fits=fits)


if __name__ == "__main__":  # pragma: no cover
    result = run()
    print(result.format())
    for claim in result.checks():
        print(claim)
