"""The per-run telemetry session the simulator engines report into.

A :class:`Telemetry` object bundles the three sinks — stall accountant,
interval timeline, event trace — behind the narrow interface both
detailed-simulator engines call.  Telemetry is strictly opt-in: with no
session attached the engines skip every call site (``if tele is not
None``), so disabled telemetry has zero cost and cannot perturb results;
with a session attached, the engines only *read* machine state, so the
simulated cycle count is unchanged either way (the equivalence suite
asserts both properties).

Enable it per call (``DetailedSimulator(..., telemetry=...)``), in the
``telemetry`` section of a :class:`repro.spec.RunSpec`, or globally via
the ``REPRO_TELEMETRY*`` environment variables (listed in
docs/CONFIGURATION.md).  A :class:`repro.spec.TelemetrySpec` describes
what a session collects.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.spec.specs import TelemetrySpec
from repro.telemetry.accountant import (
    CLS_BASE,
    STALL_CLASSES,
    MeasuredCPIStack,
)
from repro.telemetry.events import EventTrace
from repro.telemetry.rollup import RollupTimelineRecorder
from repro.telemetry.timeline import IntervalTimeline, TimelineRecorder

_log = logging.getLogger(__name__)

_CLASS_COUNT = len(STALL_CLASSES)


@dataclass(frozen=True)
class TelemetryReport:
    """Everything one simulation run measured."""

    stack: MeasuredCPIStack
    timeline: IntervalTimeline | None
    events: EventTrace | None


class Telemetry:
    """One simulation run's telemetry collection state.

    The engine-facing methods (:meth:`charge`, :meth:`retire`,
    :meth:`occupancy` and the event markers) are called mid-simulation
    by the reference loop; the fast engine calls them only when an event
    trace is attached, and otherwise adds to :attr:`counts` in place and
    flushes per-interval sums to the recorder.  :meth:`finish` seals the
    session into a :class:`TelemetryReport`.  A session is single-use:
    attach a fresh one per run.  It collects what ``spec`` describes;
    ``spec.enabled`` only decides whether a run attaches one.
    """

    def __init__(self, spec: TelemetrySpec = TelemetrySpec()):
        self.spec = spec
        self.counts = [0] * _CLASS_COUNT
        if not spec.timeline:
            self.recorder = None
        elif spec.max_timeline_rows is not None:
            self.recorder = RollupTimelineRecorder(
                spec.interval, max_rows=spec.max_timeline_rows)
        else:
            self.recorder = TimelineRecorder(spec.interval)
        self.events = (
            EventTrace(sample_rate=spec.sample_rate, seed=spec.seed,
                       limit=spec.event_limit)
            if spec.events else None
        )
        self.report: TelemetryReport | None = None
        #: open dispatch-stall run (class code, start cycle, end cycle)
        self._stall_run: tuple[int, int, int] | None = None

    # -- engine-facing hot-path interface -------------------------------

    def charge(self, cls: int, cycle: int, span: int = 1) -> None:
        """Attribute ``span`` cycles starting at ``cycle`` to ``cls``."""
        self.counts[cls] += span
        if self.events is None:
            return
        run = self._stall_run
        if cls == CLS_BASE:
            if run is not None:
                self._flush_stall_run()
            return
        if run is not None and run[0] == cls and run[2] == cycle:
            self._stall_run = (cls, run[1], cycle + span)
        else:
            if run is not None:
                self._flush_stall_run()
            self._stall_run = (cls, cycle, cycle + span)

    def retire(self, cycle: int, count: int) -> None:
        if self.recorder is not None:
            self.recorder.retire(cycle, count)

    def occupancy(self, cycle: int, span: int, rob: int, window: int) -> None:
        if self.recorder is not None:
            self.recorder.occupancy(cycle, span, rob, window)

    # -- event markers ---------------------------------------------------

    def mark_mispredict(self, cycle: int, index: int) -> None:
        """A mispredicted branch issued (its resolution is now timed)."""
        if self.recorder is not None:
            self.recorder.count("mispredicts", cycle)

    def mark_branch_redirect(
        self, cycle: int, index: int, fetch_stopped: int
    ) -> None:
        """Fetch redirected after a misprediction resolved: the flush."""
        if self.events is not None:
            self.events.emit(
                "branch_mispredict", "frontend", fetch_stopped,
                dur=cycle - fetch_stopped, index=index,
            )
            self.events.emit("pipeline_flush", "frontend", cycle,
                             index=index)

    def mark_icache_stall(
        self, cycle: int, index: int, stall: int, long: bool
    ) -> None:
        """Fetch paid an I-cache miss of ``stall`` cycles."""
        if self.recorder is not None:
            self.recorder.count("icache_misses", cycle)
        if self.events is not None:
            self.events.emit(
                "icache_miss_l2" if long else "icache_miss_l1",
                "frontend", cycle, dur=stall, index=index,
            )

    def mark_long_miss(self, cycle: int, index: int, latency: int) -> None:
        """A long data-cache-missing load issued."""
        if self.recorder is not None:
            self.recorder.count("long_misses", cycle)
        if self.events is not None:
            self.events.emit("dcache_long_miss", "memory", cycle,
                             dur=latency, index=index)

    # -- finalization ----------------------------------------------------

    def _flush_stall_run(self) -> None:
        run = self._stall_run
        if run is None:
            return
        cls, start, end = run
        self._stall_run = None
        self.events.emit(
            "dispatch_stall", "stall", start, dur=end - start,
            cause=STALL_CLASSES[cls],
        )

    def finish(self, name: str, instructions: int, cycles: int
               ) -> TelemetryReport:
        """Seal the session and (if configured) write trace files."""
        if self.events is not None:
            self._flush_stall_run()
        stack = MeasuredCPIStack.from_counts(name, self.counts, instructions)
        if stack.cycles != cycles:
            raise AssertionError(
                f"stall accountant lost cycles: charged {stack.cycles}, "
                f"simulated {cycles}"
            )
        timeline = (
            self.recorder.finalize(cycles, instructions)
            if self.recorder is not None else None
        )
        self.report = TelemetryReport(
            stack=stack, timeline=timeline, events=self.events
        )
        if self.events is not None:
            if self.spec.trace_path:
                path = self.events.write_jsonl(self.spec.trace_path)
                _log.info("wrote %d trace events to %s",
                          len(self.events), path)
            if self.spec.chrome_path:
                path = self.events.write_chrome(self.spec.chrome_path)
                _log.info("wrote Chrome trace to %s", path)
        _log.debug(
            "telemetry: %s — measured CPI %.4f over %d intervals",
            name, stack.total,
            timeline.intervals if timeline is not None else 0,
        )
        return self.report
