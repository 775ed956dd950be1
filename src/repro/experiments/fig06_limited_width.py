"""Figure 6 — the IW characteristic once issue width is limited.

Per-cycle idealized simulation with maximum issue widths 2/4/8 and
unbounded: "The limited issue curves follow the ideal curves until the
window size equals the maximum issue width, and then they asymptotically
approach the issue width limit" — the Jouppi-style saturation the model
approximates with a hard clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    Claim,
    WorkloadSpec,
    cached_trace,
    format_table,
    workload_for,
)
from repro.window.iw_simulator import LimitedWidthIWSimulator

#: paper Figure 6 sweeps (None = unbounded)
ISSUE_WIDTHS: tuple[int | None, ...] = (2, 4, 8, None)
WINDOW_SIZES = (2, 4, 8, 16, 32, 64, 128)

#: gcc is the benchmark Figure 6 is drawn for
DEFAULT_BENCHMARK = "gcc"


@dataclass(frozen=True)
class LimitedWidthResult:
    benchmark: str
    window_sizes: tuple[int, ...]
    #: ipcs[width][i] = IPC at window_sizes[i]; key None = unbounded
    ipcs: dict[int | None, tuple[float, ...]]

    def format(self) -> str:
        headers = ("width",) + tuple(f"W={w}" for w in self.window_sizes)
        rows = []
        for width in ISSUE_WIDTHS:
            label = "unbounded" if width is None else str(width)
            rows.append((label,) + tuple(
                round(v, 2) for v in self.ipcs[width]))
        return format_table(headers, rows)

    def checks(self) -> list[Claim]:
        unbounded = self.ipcs[None]
        claims = []
        for width in (2, 4, 8):
            series = self.ipcs[width]
            # saturation: the largest window's IPC approaches the limit
            claims.append(
                Claim(
                    f"width-{width} curve saturates at the issue width",
                    series[-1] <= width + 1e-9
                    and series[-1] > 0.85 * min(width, unbounded[-1]),
                    f"IPC at W={self.window_sizes[-1]} is {series[-1]:.2f}",
                )
            )
            # small windows: follows the unbounded curve
            small = [
                abs(series[i] - unbounded[i]) / unbounded[i]
                for i, w in enumerate(self.window_sizes)
                if w <= width
            ]
            if small:
                claims.append(
                    Claim(
                        f"width-{width} curve follows the ideal curve "
                        "below saturation",
                        max(small) < 0.1,
                        f"max deviation {max(small):.1%} for W <= {width}",
                    )
                )
        return claims


def run(
    benchmark: str = DEFAULT_BENCHMARK,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    window_sizes: tuple[int, ...] = WINDOW_SIZES,
    workload: WorkloadSpec | None = None,
) -> LimitedWidthResult:
    trace = cached_trace(workload_for(workload, benchmark, trace_length))
    ipcs: dict[int | None, tuple[float, ...]] = {}
    for width in ISSUE_WIDTHS:
        series = []
        for w in window_sizes:
            sim = LimitedWidthIWSimulator(
                w, issue_width=width if width is not None else len(trace)
            )
            series.append(sim.run(trace).ipc)
        ipcs[width] = tuple(series)
    return LimitedWidthResult(
        benchmark=benchmark, window_sizes=window_sizes, ipcs=ipcs
    )
