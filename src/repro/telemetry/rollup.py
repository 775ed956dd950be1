"""Fixed-memory hierarchical rollup of the interval timeline.

The plain :class:`~repro.telemetry.timeline.TimelineRecorder` stores one
row per interval, so a ``--stream`` run of 10^7+ instructions grows its
timeline without bound.  :class:`RollupTimelineRecorder` caps storage at
``max_rows`` rows: whenever an incoming cycle would need a row past the
cap, every series is pair-merged in place (``new[i] = old[2i] +
old[2i+1]``) and the effective interval doubles.  Row count therefore
stays in ``O(log n)`` doublings of the base interval while each merge is
a sum of the exact integer accumulators the plain recorder keeps.

Because interval boundaries at level ``L`` are a subset of the level-0
boundaries and every accumulator is an exact integer until
``finalize``, the rollup's output is *bit-identical* to a plain
``TimelineRecorder`` driven with the same calls at the final effective
interval — and its per-class totals (retired, occupancy integrals, miss
events) equal the unbounded in-memory timeline's totals exactly, at any
chunk size.  The equivalence suite asserts both properties.
"""

from __future__ import annotations

from .timeline import EVENT_FIELDS, TimelineRecorder

__all__ = ["RollupTimelineRecorder"]


def _fold(series: list) -> None:
    """Pair-merge adjacent rows in place; integer sums stay integers.

    In place matters: callers hold direct references to these lists
    (``_bucket`` takes the series as an argument), so rebinding the
    attribute would strand them on the pre-merge rows.
    """
    series[:] = [sum(series[i:i + 2]) for i in range(0, len(series), 2)]


class RollupTimelineRecorder(TimelineRecorder):
    """A :class:`TimelineRecorder` whose storage never exceeds ``max_rows``.

    Drop-in for the plain recorder (same ``retire`` / ``count`` /
    ``occupancy`` / ``add_interval`` / ``finalize`` interface);
    ``interval`` reflects the *current* effective interval
    (``base_interval << level``).
    """

    def __init__(self, interval: int = 1000, max_rows: int = 512):
        if max_rows < 2:
            raise ValueError("max_rows must be >= 2")
        super().__init__(interval)
        self.max_rows = max_rows
        self.level = 0

    def rows(self) -> int:
        """Rows currently stored (the peak-memory figure)."""
        return max(
            len(self._retired),
            len(self._rob),
            len(self._window),
            *(len(self._events[f]) for f in EVENT_FIELDS),
        )

    def _coalesce(self) -> None:
        _fold(self._retired)
        _fold(self._rob)
        _fold(self._window)
        for field in EVENT_FIELDS:
            _fold(self._events[field])
        self.interval <<= 1
        self.level += 1

    def _bucket(self, series: list, cycle: int) -> int:
        while cycle // self.interval >= self.max_rows:
            self._coalesce()
        idx = cycle // self.interval
        while len(series) <= idx:
            series.append(0)
        return idx
