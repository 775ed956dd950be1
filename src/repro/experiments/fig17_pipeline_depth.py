"""Figure 17 — the implications of increasing front-end pipeline depth.

Pure-model study (§6.1): one branch in five, 5% mispredicted.
(a) IPC versus front-end depth for issue widths 2/3/4/8 — deeper pipes
erode the advantage of wider issue.
(b) Absolute performance with the Sprangle & Carmean technology numbers
(8200 ps of front-end logic, 90 ps flip-flop overhead) — BIPS peaks at an
optimal depth (~55 stages at width 3 in the paper) that moves *shallower*
as issue width grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trends import (
    DepthSweepPoint,
    optimal_depth,
    pipeline_depth_sweep,
)
from repro.experiments.common import Claim, format_table

DEPTHS = tuple(range(5, 101, 5))
ISSUE_WIDTHS = (2, 3, 4, 8)

#: the paper reproduces Sprangle & Carmean's ≈55-stage optimum at width 3
PAPER_OPTIMUM_WIDTH3 = 55


@dataclass(frozen=True)
class DepthSweepResult:
    sweeps: dict[int, list[DepthSweepPoint]]

    def optimum(self, width: int) -> DepthSweepPoint:
        return optimal_depth(self.sweeps[width])

    def format(self) -> str:
        headers = ("depth",) + tuple(
            f"IPC w={w}" for w in ISSUE_WIDTHS
        ) + tuple(f"BIPS w={w}" for w in ISSUE_WIDTHS)
        rows = []
        for i, depth in enumerate(DEPTHS):
            rows.append(
                (depth,)
                + tuple(round(self.sweeps[w][i].ipc, 2)
                        for w in ISSUE_WIDTHS)
                + tuple(round(self.sweeps[w][i].bips, 2)
                        for w in ISSUE_WIDTHS)
            )
        table = format_table(headers, rows)
        optima = ", ".join(
            f"w={w}: {self.optimum(w).pipeline_depth} stages"
            for w in ISSUE_WIDTHS
        )
        return table + "\noptimal depths: " + optima

    def checks(self) -> list[Claim]:
        opt = {w: self.optimum(w).pipeline_depth for w in ISSUE_WIDTHS}
        ipc_shallow = {w: self.sweeps[w][0].ipc for w in ISSUE_WIDTHS}
        ipc_deep = {w: self.sweeps[w][-1].ipc for w in ISSUE_WIDTHS}
        shallow_gain = ipc_shallow[8] / ipc_shallow[2]
        deep_gain = ipc_deep[8] / ipc_deep[2]
        return [
            Claim(
                "IPC falls monotonically with front-end depth",
                all(
                    all(a.ipc >= b.ipc for a, b in
                        zip(self.sweeps[w], self.sweeps[w][1:]))
                    for w in ISSUE_WIDTHS
                ),
                "all IPC series monotone non-increasing",
            ),
            Claim(
                "deep pipes erode the advantage of wider issue "
                "(Figure 17a)",
                deep_gain < 0.7 * shallow_gain,
                f"width-8:width-2 IPC ratio {shallow_gain:.2f} at depth "
                f"{DEPTHS[0]} vs {deep_gain:.2f} at depth {DEPTHS[-1]}",
            ),
            Claim(
                "optimal depth at width 3 is near the paper's ~55 stages",
                0.6 * PAPER_OPTIMUM_WIDTH3 <= opt[3]
                <= 1.4 * PAPER_OPTIMUM_WIDTH3,
                f"optimum {opt[3]} stages",
            ),
            Claim(
                "wider issue prefers shallower pipelines (Figure 17b, "
                "also observed by Hartstein & Puzak)",
                opt[8] <= opt[3] <= opt[2],
                f"optima: w=2 {opt[2]}, w=3 {opt[3]}, w=8 {opt[8]}",
            ),
        ]


def run(
    depths: tuple[int, ...] = DEPTHS,
    issue_widths: tuple[int, ...] = ISSUE_WIDTHS,
) -> DepthSweepResult:
    return DepthSweepResult(
        sweeps=pipeline_depth_sweep(depths, issue_widths)
    )
