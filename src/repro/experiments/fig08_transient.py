"""Figure 8 — the isolated branch-misprediction transient.

The paper's canonical transient: square-law characteristic (alpha=1,
beta=0.5), issue width 4, five front-end stages.  The paper reads off
drain ≈ 2.1 cycles, ramp-up ≈ 2.7 cycles and pipeline fill ≈ 4.9 cycles
for a total penalty of ≈ 9.7 cycles, and notes the branch issues around
cycle 6 with ~1.4 instructions left in the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.transient import BranchTransient, branch_transient
from repro.experiments.common import Claim
from repro.window.characteristic import IWCharacteristic

#: paper Figure 8 machine
PIPELINE_DEPTH = 5
ISSUE_WIDTH = 4
WINDOW_SIZE = 48

#: paper-reported components
PAPER_DRAIN = 2.1
PAPER_RAMP = 2.7
PAPER_PIPE = 4.9
PAPER_TOTAL = 9.7


@dataclass(frozen=True)
class TransientResult:
    transient: BranchTransient

    @property
    def drain_penalty(self) -> float:
        return self.transient.drain.penalty

    @property
    def ramp_penalty(self) -> float:
        return self.transient.ramp.penalty

    @property
    def total_penalty(self) -> float:
        return self.transient.total_penalty

    def format(self) -> str:
        lines = [
            f"drain penalty : {self.drain_penalty:5.2f} cycles (paper {PAPER_DRAIN})",
            f"pipeline fill : {self.transient.pipeline_depth:5.2f} cycles (paper {PAPER_PIPE})",
            f"ramp-up       : {self.ramp_penalty:5.2f} cycles (paper {PAPER_RAMP})",
            f"total         : {self.total_penalty:5.2f} cycles (paper {PAPER_TOTAL})",
            "",
            "per-cycle issue rates:",
            "  " + " ".join(
                f"{r:.2f}" for r in self.transient.issue_rate_timeline()[:24]
            ),
        ]
        return "\n".join(lines)

    def checks(self) -> list[Claim]:
        return [
            Claim(
                "drain penalty matches the paper's 2.1 cycles",
                abs(self.drain_penalty - PAPER_DRAIN) < 0.5,
                f"{self.drain_penalty:.2f} cycles",
            ),
            Claim(
                "ramp-up penalty matches the paper's 2.7 cycles",
                abs(self.ramp_penalty - PAPER_RAMP) < 0.7,
                f"{self.ramp_penalty:.2f} cycles",
            ),
            Claim(
                "total penalty ≈ 2x the front-end depth (paper: 9.7 vs 5)",
                1.6 * PIPELINE_DEPTH <= self.total_penalty
                <= 2.4 * PIPELINE_DEPTH,
                f"{self.total_penalty:.2f} cycles vs depth {PIPELINE_DEPTH}",
            ),
            Claim(
                "the mispredicted branch issues around cycle 6 with ~1.4 "
                "instructions in the window",
                5 <= self.transient.drain.cycles <= 7,
                f"drain lasted {self.transient.drain.cycles} cycles, "
                f"{self.transient.drain.final_window + self.transient.drain.rates[-1]:.1f} "
                "instructions at the last issue",
            ),
        ]


def run(
    pipeline_depth: int = PIPELINE_DEPTH,
    issue_width: int = ISSUE_WIDTH,
    window_size: int = WINDOW_SIZE,
) -> TransientResult:
    characteristic = IWCharacteristic.square_law(issue_width=issue_width)
    return TransientResult(
        transient=branch_transient(
            characteristic, pipeline_depth, issue_width, window_size
        )
    )
