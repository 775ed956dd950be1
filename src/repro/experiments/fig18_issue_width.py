"""Figure 18 — branch prediction must improve as the square of issue width.

Pure-model study (§6.2): for issue widths 4/8/16, the number of
instructions needed between mispredictions so that a target fraction of
time is spent issuing within 12.5% of the machine width.  The paper's
conclusion: doubling the width requires roughly *quadrupling* the
misprediction distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trends import required_mispredict_distance
from repro.experiments.common import Claim, format_table

ISSUE_WIDTHS = (4, 8, 16)
TARGET_FRACTIONS = (0.10, 0.20, 0.30, 0.40, 0.50)
PIPELINE_DEPTH = 5


@dataclass(frozen=True)
class IssueWidthResult:
    issue_widths: tuple[int, ...]
    target_fractions: tuple[float, ...]
    #: required distance, keyed by (width, fraction)
    distances: dict[tuple[int, float], float]

    def distance(self, width: int, fraction: float) -> float:
        return self.distances[(width, fraction)]

    def format(self) -> str:
        widths = self.issue_widths
        headers = ("% time near max",) + tuple(
            f"width {w}" for w in widths
        ) + tuple(
            f"ratio {b}/{a}" for a, b in zip(widths, widths[1:])
        )
        rows = []
        for frac in self.target_fractions:
            d = [self.distance(w, frac) for w in widths]
            rows.append(
                (f"{frac:.0%}",)
                + tuple(round(x) for x in d)
                + tuple(round(b / a, 1) for a, b in zip(d, d[1:]))
            )
        return format_table(headers, rows)

    def checks(self) -> list[Claim]:
        widths = self.issue_widths
        ratios = []
        for frac in self.target_fractions:
            for a, b in zip(widths, widths[1:]):
                scale = (b / a) ** 2  # square law: distance ~ width^2
                ratios.append(
                    (self.distance(b, frac) / self.distance(a, frac))
                    / scale
                )
        mean_ratio = sum(ratios) / len(ratios)
        return [
            Claim(
                "doubling the issue width requires ≈ 4x the distance "
                "between mispredictions (paper's square law)",
                0.6 <= mean_ratio <= 1.6,
                f"mean ratio vs the square law {mean_ratio:.2f}",
            ),
            Claim(
                "required distance grows with the target fraction",
                all(
                    self.distance(w, a) <= self.distance(w, b)
                    for w in widths
                    for a, b in zip(self.target_fractions,
                                    self.target_fractions[1:])
                ),
                "distances monotone in the target fraction",
            ),
            Claim(
                "wider machines need more instructions between "
                "mispredictions at every target",
                all(
                    self.distance(a, f) < self.distance(b, f)
                    for f in self.target_fractions
                    for a, b in zip(widths, widths[1:])
                ),
                "monotone in width",
            ),
        ]


def run(
    issue_widths: tuple[int, ...] = ISSUE_WIDTHS,
    target_fractions: tuple[float, ...] = TARGET_FRACTIONS,
    pipeline_depth: int = PIPELINE_DEPTH,
) -> IssueWidthResult:
    distances = {}
    for width in issue_widths:
        for frac in target_fractions:
            distances[(width, frac)] = required_mispredict_distance(
                width, frac, pipeline_depth
            )
    return IssueWidthResult(
        issue_widths=issue_widths,
        target_fractions=target_fractions,
        distances=distances,
    )
