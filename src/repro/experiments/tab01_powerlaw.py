"""Table 1 — power-law parameters of the IW characteristic.

For the three illustrative benchmarks the paper tabulates (gzip at the
middle of the Figure-4 curves, vortex and vpr at the extremes), fit
``I = alpha * W**beta`` to the unit-latency IW curve and report the mean
instruction latency (short data-cache misses folded in, as the paper's
"Avg. Lat." column does).

Paper values: gzip alpha 1.3 / beta 0.5 / L 1.5; vortex 1.2 / 0.7 / 1.6;
vpr 1.7 / 0.3 / 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec
from repro.core.model import FirstOrderModel
from repro.core.steady_state import unit_iw_fit
from repro.experiments.common import (
    BASELINE,
    DEFAULT_TRACE_LENGTH,
    Claim,
    cached_trace,
    format_table,
    WorkloadSpec,
    workload_for,
)

#: the benchmarks of paper Table 1, with the paper's fitted values
PAPER_VALUES = {
    "gzip": (1.3, 0.5, 1.5),
    "vortex": (1.2, 0.7, 1.6),
    "vpr": (1.7, 0.3, 2.2),
}


@dataclass(frozen=True)
class PowerLawRow:
    benchmark: str
    alpha: float
    beta: float
    mean_latency: float
    r_squared: float


@dataclass(frozen=True)
class PowerLawResult:
    rows: tuple[PowerLawRow, ...]

    def row(self, benchmark: str) -> PowerLawRow:
        for r in self.rows:
            if r.benchmark == benchmark:
                return r
        raise KeyError(benchmark)

    def format(self) -> str:
        return format_table(
            ("bench", "alpha", "beta", "avg lat", "R^2",
             "paper a/b/L"),
            [
                (r.benchmark, r.alpha, r.beta, r.mean_latency, r.r_squared,
                 "/".join(str(v) for v in PAPER_VALUES.get(r.benchmark, ())))
                for r in self.rows
            ],
        )

    def checks(self) -> list[Claim]:
        claims = []
        gzip, vortex, vpr = (self.row(b) for b in ("gzip", "vortex", "vpr"))
        claims.append(
            Claim(
                "beta ordering matches the paper: vpr < gzip < vortex",
                vpr.beta < gzip.beta < vortex.beta,
                f"beta = {vpr.beta:.2f} / {gzip.beta:.2f} / {vortex.beta:.2f}",
            )
        )
        claims.append(
            Claim(
                "gzip beta is near the square law (paper 0.5)",
                0.35 <= gzip.beta <= 0.6,
                f"gzip beta {gzip.beta:.2f}",
            )
        )
        claims.append(
            Claim(
                "vpr has the highest mean latency (paper 2.2 vs 1.5/1.6)",
                vpr.mean_latency > gzip.mean_latency
                and vpr.mean_latency > vortex.mean_latency,
                f"L = vpr {vpr.mean_latency:.2f}, gzip "
                f"{gzip.mean_latency:.2f}, vortex {vortex.mean_latency:.2f}",
            )
        )
        claims.append(
            Claim(
                "power law is a good fit (log-log R^2 high)",
                all(r.r_squared > 0.9 for r in self.rows),
                "min R^2 "
                f"{min(r.r_squared for r in self.rows):.3f}",
            )
        )
        return claims


def run(
    benchmarks: tuple[str, ...] = tuple(PAPER_VALUES),
    trace_length: int = DEFAULT_TRACE_LENGTH,
    config: MachineSpec = BASELINE,
    workload: WorkloadSpec | None = None,
) -> PowerLawResult:
    rows = []
    model = FirstOrderModel(config)
    for name in benchmarks:
        trace = cached_trace(workload_for(workload, name, trace_length))
        fit = unit_iw_fit(trace)
        profile = model.profile(trace)
        latency = profile.effective_mean_latency(
            config.latency_table, config.hierarchy.l2_latency
        )
        rows.append(
            PowerLawRow(
                benchmark=name, alpha=fit.alpha, beta=fit.beta,
                mean_latency=latency, r_squared=fit.r_squared,
            )
        )
    return PowerLawResult(rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover
    result = run()
    print(result.format())
    for claim in result.checks():
        print(claim)
