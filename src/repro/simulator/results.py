"""Results and instrumentation of the detailed simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Instrumentation:
    """Optional per-run measurements used by the paper's side experiments.

    Attributes:
        issued_histogram: ``issued_histogram[j]`` counts cycles in which
            exactly ``j`` instructions issued (length ``width + 1``) —
            drives the §6.2 "fraction of time near the implemented issue
            width" analysis.
        window_left_at_mispredict: useful instructions left in the window
            at the moment each mispredicted branch issued (the paper
            validates its drain assumption with "only 1.3 useful
            instructions left … when a mispredicted branch issues").
        rob_ahead_at_long_miss: instructions ahead of each long-missing
            load in the ROB when it issued (paper §4.3 measured 9 on
            average, hence the penalty ≈ ΔD approximation).
        dispatch_stall_rob: cycles dispatch stalled with a ready
            instruction because the ROB was full.
        dispatch_stall_window: cycles dispatch stalled because the issue
            window was full (paper §4.3 finds the ROB, not the window, is
            the binding structure during long misses).
    """

    issued_histogram: np.ndarray
    window_left_at_mispredict: list[int] = field(default_factory=list)
    rob_ahead_at_long_miss: list[int] = field(default_factory=list)
    dispatch_stall_rob: int = 0
    dispatch_stall_window: int = 0

    @property
    def mean_window_left_at_mispredict(self) -> float:
        v = self.window_left_at_mispredict
        return float(np.mean(v)) if v else 0.0

    @property
    def mean_rob_ahead_at_long_miss(self) -> float:
        v = self.rob_ahead_at_long_miss
        return float(np.mean(v)) if v else 0.0

    def fraction_of_cycles_at_issue(self, threshold: int) -> float:
        """Fraction of cycles in which at least ``threshold`` instructions
        issued (§6.2's "within 12.5% of the implemented issue width").

        ``threshold <= 0`` is trivially satisfied by every cycle and a
        threshold beyond the issue width by none — in particular a
        negative threshold must not wrap around into Python's
        end-relative slicing.
        """
        total = int(self.issued_histogram.sum())
        if total == 0:
            return 0.0
        if threshold <= 0:
            return 1.0
        if threshold >= len(self.issued_histogram):
            return 0.0
        return float(self.issued_histogram[threshold:].sum()) / total

    def __iadd__(self, other: "Instrumentation") -> "Instrumentation":
        """Merge another run segment's counts into this one.

        Lets warmup/measure segments and parallel shards combine their
        instrumentation: histograms add bin-wise (the segments must come
        from machines of the same issue width), per-event samples
        concatenate, stall counters add.
        """
        if not isinstance(other, Instrumentation):
            return NotImplemented
        if len(other.issued_histogram) != len(self.issued_histogram):
            raise ValueError(
                "cannot merge instrumentation of different issue widths "
                f"({len(self.issued_histogram) - 1} vs "
                f"{len(other.issued_histogram) - 1})"
            )
        self.issued_histogram = self.issued_histogram + other.issued_histogram
        self.window_left_at_mispredict.extend(other.window_left_at_mispredict)
        self.rob_ahead_at_long_miss.extend(other.rob_ahead_at_long_miss)
        self.dispatch_stall_rob += other.dispatch_stall_rob
        self.dispatch_stall_window += other.dispatch_stall_window
        return self


@dataclass(frozen=True)
class SimResult:
    """Outcome of one detailed simulation.

    ``cycles`` counts from the first fetch to the retirement of the last
    instruction; ``ipc``/``cpi`` are over useful (trace) instructions —
    wrong-path work is never simulated, per the paper's oldest-first
    argument that mis-speculated instructions do not inhibit useful ones.
    """

    name: str
    instructions: int
    cycles: int
    misprediction_count: int
    icache_short_count: int
    icache_long_count: int
    dcache_long_count: int
    instrumentation: Instrumentation | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions

    def penalty_per_event(self, baseline: "SimResult", event_count: int) -> float:
        """Average extra cycles per event relative to ``baseline``.

        This is the paper's measurement recipe (e.g. Figure 9/11): run
        with one structure real and everything else ideal, run again all
        ideal, divide the cycle difference by the event count.
        """
        if event_count <= 0:
            raise ValueError("event count must be positive")
        if baseline.instructions != self.instructions:
            raise ValueError("baselines must simulate the same trace")
        return (self.cycles - baseline.cycles) / event_count
