"""Figure 19 — per-cycle issue rate between two mispredicted branches.

Pure-model study (§6.2): with 100 instructions between mispredictions
(one in five instructions a branch, 5% mispredicted) and a five-stage
front end, plot the issue-rate ramp for widths 2/3/4/8.  The paper's
observation: with width 4 the IPC "barely reaches four" before the next
misprediction; with width 8 it "barely gets above six".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trends import (
    inter_mispredict_timeline,
    mispredictions_per_instruction,
)
from repro.experiments.common import Claim, format_table

ISSUE_WIDTHS = (2, 3, 4, 8)
PIPELINE_DEPTH = 5

#: 1/ (0.2 branches * 5% mispredicted) = 100 instructions
INSTRUCTIONS_BETWEEN = 1.0 / mispredictions_per_instruction()


@dataclass(frozen=True)
class RampResult:
    #: per-cycle issue rates per width
    timelines: dict[int, list[float]]

    def peak(self, width: int) -> float:
        return max(self.timelines[width])

    def format(self) -> str:
        max_len = max(len(t) for t in self.timelines.values())
        headers = ("cycle",) + tuple(f"width {w}" for w in ISSUE_WIDTHS)
        rows = []
        for c in range(0, max_len, 2):
            rows.append(
                (c,)
                + tuple(
                    round(self.timelines[w][c], 2)
                    if c < len(self.timelines[w]) else ""
                    for w in ISSUE_WIDTHS
                )
            )
        peaks = ", ".join(
            f"w={w}: {self.peak(w):.1f}" for w in ISSUE_WIDTHS
        )
        return format_table(headers, rows) + "\npeak issue rates: " + peaks

    def checks(self) -> list[Claim]:
        return [
            Claim(
                "width 4 barely reaches its full issue rate before the "
                "next misprediction (paper: 'barely reaches four')",
                3.2 <= self.peak(4) <= 4.0,
                f"peak {self.peak(4):.1f}",
            ),
            Claim(
                "width 8 never gets close to eight (paper: 'barely gets "
                "above six')",
                5.0 <= self.peak(8) <= 7.2,
                f"peak {self.peak(8):.1f}",
            ),
            Claim(
                "narrow machines saturate early in the interval",
                self.peak(2) >= 1.95,
                f"width-2 peak {self.peak(2):.2f}",
            ),
            Claim(
                "issue is dead during the pipeline refill",
                all(
                    all(r == 0.0 for r in t[:PIPELINE_DEPTH])
                    for t in self.timelines.values()
                ),
                f"first {PIPELINE_DEPTH} cycles are zero for every width",
            ),
        ]


def run(
    issue_widths: tuple[int, ...] = ISSUE_WIDTHS,
    instructions_between: float = INSTRUCTIONS_BETWEEN,
    pipeline_depth: int = PIPELINE_DEPTH,
) -> RampResult:
    return RampResult(
        timelines={
            w: inter_mispredict_timeline(
                w, instructions_between, pipeline_depth
            )
            for w in issue_widths
        }
    )
