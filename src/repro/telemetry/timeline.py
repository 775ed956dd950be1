"""Interval timeline: IPC, occupancy and miss-event rates over time.

The detailed simulator reports one aggregate IPC per run; interval
models (and any attempt to localize where a simplified model loses
accuracy) need the same quantities *per execution phase*.  The
:class:`TimelineRecorder` buckets the run into fixed-length cycle
intervals and accumulates, per interval:

* instructions retired (→ interval IPC),
* cycle-weighted ROB and issue-window occupancy (→ mean occupancy),
* miss events — mispredicted branches issued, I-cache stalls paid,
  long D-cache misses issued.

Both engines feed the recorder: the reference loop with one call per
cycle, the fast engine with one :meth:`TimelineRecorder.add_interval`
call per base interval, summed from its timing columns — the
resulting timelines are identical (the equivalence suite asserts it).
:meth:`IntervalTimeline.render` draws one ASCII sparkline per series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.ascii_plot import sparkline

#: timeline event-counter fields, in render order
EVENT_FIELDS = ("mispredicts", "icache_misses", "long_misses")


@dataclass(frozen=True)
class IntervalTimeline:
    """Finalized per-interval series for one simulation run."""

    interval: int
    cycles: int
    instructions: int
    retired: tuple[int, ...]
    rob_occupancy: tuple[float, ...]
    window_occupancy: tuple[float, ...]
    mispredicts: tuple[int, ...]
    icache_misses: tuple[int, ...]
    long_misses: tuple[int, ...]

    @property
    def intervals(self) -> int:
        return len(self.retired)

    @property
    def ipc(self) -> tuple[float, ...]:
        """Per-interval IPC (the last interval may be partial)."""
        out = []
        for i, count in enumerate(self.retired):
            span = min(self.interval, self.cycles - i * self.interval)
            out.append(count / span if span > 0 else 0.0)
        return tuple(out)

    def render(self, width: int = 64) -> str:
        """One labelled sparkline per series."""
        rows = [
            ("IPC", self.ipc),
            ("ROB occupancy", self.rob_occupancy),
            ("window occupancy", self.window_occupancy),
            ("mispredicts", self.mispredicts),
            ("I-miss stalls", self.icache_misses),
            ("long D-misses", self.long_misses),
        ]
        lines = [
            f"timeline: {self.intervals} intervals of {self.interval} "
            f"cycles ({self.cycles} cycles, {self.instructions} "
            "instructions)"
        ]
        for label, values in rows:
            values = list(values)
            peak = max(values) if values else 0.0
            lines.append(
                f"  {label:17s} [{sparkline(values, width=width)}] "
                f"peak {peak:.2f}"
            )
        return "\n".join(lines)


class TimelineRecorder:
    """Accumulates interval statistics as a simulation runs.

    All methods take the current cycle.  The reference loop calls
    :meth:`retire`, :meth:`count` and :meth:`occupancy` once per cycle;
    the fast engine flushes one :meth:`add_interval` per base interval.
    An :meth:`occupancy` span may cross interval boundaries and is split
    internally.
    """

    def __init__(self, interval: int = 1000):
        if interval < 1:
            raise ValueError("interval length must be >= 1")
        self.interval = interval
        #: the interval :meth:`add_interval` sums are cut at; a rollup
        #: coarsens ``interval`` but never this
        self.base_interval = interval
        self._retired: list[int] = []
        self._rob: list[float] = []
        self._window: list[float] = []
        self._events: dict[str, list[int]] = {f: [] for f in EVENT_FIELDS}

    def _bucket(self, series: list, cycle: int) -> int:
        idx = cycle // self.interval
        while len(series) <= idx:
            series.append(0)
        return idx

    def retire(self, cycle: int, count: int) -> None:
        if count:
            self._retired[self._bucket(self._retired, cycle)] += count

    def count(self, field: str, cycle: int, n: int = 1) -> None:
        series = self._events[field]
        series[self._bucket(series, cycle)] += n

    def occupancy(
        self, cycle: int, span: int, rob: int, window: int
    ) -> None:
        """Integrate constant occupancy over ``[cycle, cycle + span)``.

        A rollup's ``_bucket`` may coarsen the interval mid-span; a step
        cut at the finer boundary nests inside the coarser bucket, so
        the integer sums stay exact.
        """
        interval = self.interval
        while span > 0:
            step = min(span, interval - cycle % interval)
            idx = self._bucket(self._rob, cycle)
            self._bucket(self._window, cycle)
            self._rob[idx] += rob * step
            self._window[idx] += window * step
            cycle += step
            span -= step

    def add_interval(
        self, cycle: int, retired: int, rob: int, window: int,
        mispredicts: int = 0, icache_misses: int = 0, long_misses: int = 0,
    ) -> None:
        """Add one base interval's sums at once, where ``cycle`` is any
        cycle of that interval: instructions retired, the ROB and window
        occupancy integrals over its cycles, and its miss events.

        The fast engine sums these from its timing columns and flushes
        them here once per interval; every sum is an exact integer, so the
        timeline equals the one per-cycle :meth:`retire`,
        :meth:`occupancy` and :meth:`count` calls build.
        """
        idx = self._bucket(self._rob, cycle)
        self._bucket(self._window, cycle)
        self._rob[idx] += rob
        self._window[idx] += window
        self.retire(cycle, retired)
        for field, n in zip(EVENT_FIELDS,
                            (mispredicts, icache_misses, long_misses)):
            if n:
                self.count(field, cycle, n)

    def finalize(self, cycles: int, instructions: int) -> IntervalTimeline:
        """Normalize the accumulators into an :class:`IntervalTimeline`."""
        n_intervals = max(1, -(-cycles // self.interval))

        def padded(series: list, fill=0) -> list:
            return series + [fill] * (n_intervals - len(series))

        rob_mean = []
        window_mean = []
        rob = padded(self._rob, 0.0)
        window = padded(self._window, 0.0)
        for i in range(n_intervals):
            span = min(self.interval, cycles - i * self.interval)
            rob_mean.append(rob[i] / span if span > 0 else 0.0)
            window_mean.append(window[i] / span if span > 0 else 0.0)
        return IntervalTimeline(
            interval=self.interval,
            cycles=cycles,
            instructions=instructions,
            retired=tuple(padded(self._retired)),
            rob_occupancy=tuple(rob_mean),
            window_occupancy=tuple(window_mean),
            mispredicts=tuple(padded(self._events["mispredicts"])),
            icache_misses=tuple(padded(self._events["icache_misses"])),
            long_misses=tuple(padded(self._events["long_misses"])),
        )
