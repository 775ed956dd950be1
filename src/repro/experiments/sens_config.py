"""Robustness: model accuracy across machine configurations.

The paper validates the model at one baseline (Figure 15) and then
*uses* it across wide configuration ranges (§6).  This experiment closes
that loop: it sweeps front-end depth, issue width and window size and
checks that the model keeps tracking the detailed simulator away from
the baseline — both in absolute error and in the *direction* of every
configuration change (the property design-space exploration relies on).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.model import FirstOrderModel
from repro.experiments.common import (
    BASELINE,
    DEFAULT_TRACE_LENGTH,
    Claim,
    WorkloadSpec,
    cached_trace,
    format_table,
    mean,
    workload_for,
)
from repro.runner import run_units
from repro.spec import RunSpec, SweepSpec

#: a diverse trio: mid-ILP, low-ILP/high-latency, memory-bound
BENCHMARKS = ("gzip", "vpr", "mcf")

#: the swept grid (each axis varied around the baseline)
DEPTHS = (3, 5, 9, 15)
WIDTHS = (2, 4, 8)
WINDOWS = (16, 48, 96)


@dataclass(frozen=True)
class ConfigPoint:
    benchmark: str
    pipeline_depth: int
    width: int
    window_size: int
    model_cpi: float
    sim_cpi: float

    @property
    def error(self) -> float:
        return abs(self.model_cpi - self.sim_cpi) / self.sim_cpi


@dataclass(frozen=True)
class ConfigSweepResult:
    points: tuple[ConfigPoint, ...]

    def mean_error(self) -> float:
        return mean([p.error for p in self.points])

    def worst_error(self) -> float:
        return max(p.error for p in self.points)

    def format(self) -> str:
        table = format_table(
            ("bench", "depth", "width", "window", "model", "sim", "err"),
            [
                (p.benchmark, p.pipeline_depth, p.width, p.window_size,
                 p.model_cpi, p.sim_cpi, f"{p.error:.0%}")
                for p in self.points
            ],
        )
        return (
            table + f"\nmean |error| {self.mean_error():.1%}, worst "
            f"{self.worst_error():.1%} over {len(self.points)} points"
        )

    def _direction_agreement(self, axis: str) -> float:
        """Fraction of same-benchmark axis steps where model and
        simulator move the same way."""
        agree = total = 0
        by_key: dict[tuple, list[ConfigPoint]] = {}
        for p in self.points:
            key = {
                "pipeline_depth": (p.benchmark, p.width, p.window_size),
                "width": (p.benchmark, p.pipeline_depth, p.window_size),
                "window_size": (p.benchmark, p.pipeline_depth, p.width),
            }[axis]
            by_key.setdefault(key, []).append(p)
        for pts in by_key.values():
            pts = sorted(pts, key=lambda p: getattr(p, axis))
            for a, b in zip(pts, pts[1:]):
                dm = b.model_cpi - a.model_cpi
                ds = b.sim_cpi - a.sim_cpi
                if abs(ds) < 1e-3 or abs(dm) < 1e-3:
                    continue  # flat steps carry no direction signal
                total += 1
                agree += (dm > 0) == (ds > 0)
        return agree / total if total else 1.0

    def checks(self) -> list[Claim]:
        claims = [
            Claim(
                "the model stays first-order accurate away from the "
                "baseline",
                self.mean_error() < 0.15 and self.worst_error() < 0.35,
                f"mean {self.mean_error():.1%}, worst "
                f"{self.worst_error():.1%}",
            )
        ]
        for axis in ("pipeline_depth", "width", "window_size"):
            agreement = self._direction_agreement(axis)
            claims.append(
                Claim(
                    f"model and simulator agree on the direction of "
                    f"{axis} changes",
                    agreement >= 0.85,
                    f"{agreement:.0%} of steps agree",
                )
            )
        return claims


def run(
    benchmarks: tuple[str, ...] = BENCHMARKS,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    depths: tuple[int, ...] = DEPTHS,
    widths: tuple[int, ...] = WIDTHS,
    windows: tuple[int, ...] = WINDOWS,
    workload: WorkloadSpec | None = None,
) -> ConfigSweepResult:
    if not benchmarks:
        return ConfigSweepResult(points=())
    sweep = SweepSpec(
        base=RunSpec(
            workload=workload_for(workload, benchmarks[0], trace_length),
            machine=BASELINE,
        ),
        benchmarks=benchmarks,
        axes={
            "machine.pipeline_depth": depths,
            "machine.width": widths,
            "machine.window_size": windows,
        },
    )
    # rob_size rides the window axis (derived, so not a sweep axis)
    units = [
        dataclasses.replace(
            spec,
            machine=dataclasses.replace(
                spec.machine,
                rob_size=max(BASELINE.rob_size,
                             2 * spec.machine.window_size),
            ),
        )
        for spec in sweep.expand()
    ]
    # every grid point shares its benchmark's trace and annotations (the
    # functional pass is config-independent along these axes), so the
    # artifact cache collapses the sweep's front-end work to one pass
    # per benchmark
    sims, _ = run_units(units)
    points = []
    for unit_result in sims:
        benchmark = unit_result.spec.workload.benchmark
        cfg = unit_result.spec.machine
        trace = cached_trace(
            workload_for(workload, benchmark, trace_length))
        report = FirstOrderModel(cfg).evaluate_trace(trace)
        points.append(
            ConfigPoint(
                benchmark=benchmark, pipeline_depth=cfg.pipeline_depth,
                width=cfg.width, window_size=cfg.window_size,
                model_cpi=report.cpi, sim_cpi=unit_result.result.cpi,
            )
        )
    return ConfigSweepResult(points=tuple(points))
