"""Figure 4 — the IW power-law curves for all twelve benchmarks.

Idealized trace-driven simulation (unit latency, unbounded issue width,
window-size limited) for W in {2..128}; the paper plots log2(I) against
log2(W) and observes near-straight lines whose slopes cluster around 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.steady_state import unit_iw_curve
from repro.experiments.common import (
    BENCHMARK_ORDER,
    DEFAULT_TRACE_LENGTH,
    Claim,
    cached_trace,
    format_table,
    WorkloadSpec,
    workload_for,
)
from repro.window.iw_simulator import DEFAULT_WINDOW_SIZES, IWCurve
from repro.window.powerlaw import PowerLawFit, fit_curve


@dataclass(frozen=True)
class IWCurveRow:
    benchmark: str
    curve: IWCurve
    fit: PowerLawFit


@dataclass(frozen=True)
class IWCurvesResult:
    window_sizes: tuple[int, ...]
    rows: tuple[IWCurveRow, ...]

    def format(self) -> str:
        headers = ("bench",) + tuple(f"W={w}" for w in self.window_sizes) + (
            "alpha", "beta")
        table_rows = []
        for r in self.rows:
            table_rows.append(
                (r.benchmark,)
                + tuple(round(p.ipc, 2) for p in r.curve.points)
                + (round(r.fit.alpha, 2), round(r.fit.beta, 2))
            )
        return format_table(headers, table_rows)

    def checks(self) -> list[Claim]:
        betas = [r.fit.beta for r in self.rows]
        mean_beta = sum(betas) / len(betas)
        return [
            Claim(
                "every benchmark follows a power law (log-log lines, "
                "paper Figure 4)",
                all(r.fit.r_squared > 0.9 for r in self.rows),
                f"min R^2 {min(r.fit.r_squared for r in self.rows):.3f}",
            ),
            Claim(
                "slopes cluster near the square root (paper: ~0.5 on "
                "average, after Michaud et al.)",
                0.35 <= mean_beta <= 0.65,
                f"mean beta {mean_beta:.2f}",
            ),
            Claim(
                "issue rate grows monotonically with window size",
                all(
                    all(
                        a.ipc <= b.ipc + 1e-9
                        for a, b in zip(r.curve.points, r.curve.points[1:])
                    )
                    for r in self.rows
                ),
                "all curves monotone",
            ),
        ]


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    workload: WorkloadSpec | None = None,
) -> IWCurvesResult:
    rows = []
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        curve = unit_iw_curve(trace, window_sizes)
        rows.append(
            IWCurveRow(benchmark=name, curve=curve, fit=fit_curve(curve))
        )
    return IWCurvesResult(window_sizes=window_sizes, rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    result = run()
    print(result.format())
    for claim in result.checks():
        print(claim)
