"""Detailed cycle-level simulator of the first-order superscalar machine.

This is the reference the analytical model is validated against —
the repository's stand-in for the paper's "detailed simulation".  It
implements the machine of paper §1 mechanistically:

* front-end pipeline of ``pipeline_depth`` (ΔP) stages, ``width`` (*i*)
  instructions per stage;
* in-order dispatch into an issue window of ``window_size`` entries and a
  *separate* reorder buffer of ``rob_size`` entries (not an RUU);
* out-of-order, oldest-first issue of at most ``width`` instructions per
  cycle; unbounded functional units of every type;
* in-order retirement of at most ``width`` instructions per cycle.

Miss-events are trace-driven: cache/predictor outcomes come from the
functional pass (:class:`repro.frontend.EventAnnotations`), while every
timing consequence — window drain, pipeline refill, issue ramp-up, ROB
blocking on long misses, and all overlaps between events — emerges from
the cycle-by-cycle simulation.  Nothing here consults the analytical
model; agreement between the two is an experimental result, not a
construction.

Event handling:

* **Branch misprediction** — fetch of useful instructions stops after a
  mispredicted branch is fetched (wrong-path instructions are not
  simulated; with oldest-first issue they would never inhibit useful
  ones).  When the branch resolves (completes execution), fetch restarts
  on the correct path and new instructions reach dispatch ΔP cycles
  later — Figure 7's drain / refill / ramp-up transient.
* **Instruction-cache miss** — fetch stalls for the annotated delay
  (ΔI for an L2 hit, ΔD for an L2 miss) while instructions buffered in
  the pipeline continue to drain toward the window — Figure 10.
* **Long data-cache miss** — the load completes only when memory returns;
  retirement stops at it, the ROB fills, dispatch stalls and issue
  eventually runs dry — Figure 12.  Overlap of long misses (Figure 13)
  falls out of the simulation for free.
* **Short data-cache miss** — serviced like a long-latency functional
  unit (extra load-to-use latency), per §4.3.
"""

from __future__ import annotations

import logging
from collections import deque

from repro.config import BASELINE, MachineSpec
from repro.fastpath import resolve_engine
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.frontend.events import EventAnnotations
from repro.simulator.results import Instrumentation, SimResult
from repro.telemetry.accountant import (
    CLS_BASE,
    CLS_BRANCH,
    CLS_DCACHE_LONG,
    CLS_ICACHE_L1,
    CLS_ICACHE_L2,
    CLS_ROB_FULL,
    CLS_WINDOW_FULL,
)
from repro.telemetry.session import Telemetry, TelemetryConfig
from repro.trace.trace import Trace

import numpy as np

_log = logging.getLogger(__name__)


def resolve_telemetry(t) -> Telemetry | None:
    """Resolve a telemetry opt-in value to a session (or ``None``).

    ``None`` defers to ``REPRO_TELEMETRY``; ``False`` disables;
    ``True``/a :class:`TelemetryConfig`/a :class:`repro.spec.TelemetrySpec`
    collects with (those) defaults; a :class:`Telemetry` session collects
    into it.  Shared by :class:`DetailedSimulator` and the streaming
    engine (:mod:`repro.simulator.streaming`).
    """
    if t is None:
        config = TelemetryConfig.from_env()
        return Telemetry(config) if config is not None else None
    if t is False:
        return None
    if t is True:
        return Telemetry()
    if isinstance(t, Telemetry):
        return t
    if hasattr(t, "to_config"):  # a repro.spec.TelemetrySpec
        config = t.to_config()
        return Telemetry(config) if config is not None else None
    return Telemetry(t)


class DetailedSimulator:
    """Cycle-level simulator of one :class:`~repro.config.MachineSpec`.

    Two interchangeable engines produce bit-identical results: the
    *reference* engine below is the direct transcription of the machine's
    per-cycle phases, while the *fast* engine
    (:func:`repro.simulator.streaming.run_fast_stream`, fed the whole
    trace as one chunk) is event-driven with quiescent-cycle skipping.
    Equivalence is enforced by the regression suite; the fast engine is
    the default.
    """

    def __init__(self, config: MachineSpec | None = None,
                 instrument: bool = True, engine=None,
                 telemetry=None):
        self.config = config or BASELINE
        self.instrument = instrument
        #: ``engine`` accepts a name, an :class:`repro.spec.EngineSpec`,
        #: or ``None`` (the ``REPRO_SIM_ENGINE``-then-``fast`` fallback)
        self.engine = resolve_engine(engine)
        #: telemetry opt-in: ``None`` defers to ``REPRO_TELEMETRY``,
        #: ``True``/a :class:`TelemetryConfig`/a
        #: :class:`repro.spec.TelemetrySpec` collects with (those)
        #: defaults, a :class:`Telemetry` session collects into it,
        #: ``False`` disables regardless of the environment
        self.telemetry = telemetry
        #: the session of the most recent :meth:`run` (``None`` when
        #: telemetry was off); its ``report`` holds the measurements
        self.last_telemetry: Telemetry | None = None

    @classmethod
    def from_spec(cls, spec) -> "DetailedSimulator":
        """The simulator a :class:`repro.spec.RunSpec` describes."""
        return cls(
            spec.machine,
            instrument=spec.engine.instrument,
            engine=spec.engine,
            telemetry=spec.telemetry,
        )

    def _telemetry_session(self) -> Telemetry | None:
        """A fresh (or the caller's) session for one run, or ``None``."""
        return resolve_telemetry(self.telemetry)

    def annotate(self, trace: Trace, warmup_passes: int = 1) -> EventAnnotations:
        """Run the functional pass that resolves this configuration's
        miss-events for ``trace``."""
        collector = MissEventCollector(
            CollectorConfig.of(self.config, warmup_passes),
            engine=self.engine,
        )
        profile = collector.collect(trace, annotate=True)
        assert profile.annotations is not None
        return profile.annotations

    def run(
        self,
        trace: Trace,
        annotations: EventAnnotations | None = None,
    ) -> SimResult:
        """Simulate ``trace`` and return timing results.

        ``annotations`` may be passed to reuse a previous functional pass
        (they must come from a collector with the same hierarchy and
        predictor configuration).
        """
        n = len(trace)
        if n == 0:
            raise ValueError("cannot simulate an empty trace")
        if annotations is None:
            annotations = self.annotate(trace)
        if len(annotations) != n:
            raise ValueError("annotations do not match the trace length")

        tele = self._telemetry_session()
        result = self._run_engine(trace, annotations, tele)
        if tele is not None:
            tele.finish(trace.name, result.instructions, result.cycles)
            _log.debug(
                "simulated %s: %d instructions, %d cycles (telemetry on)",
                trace.name, result.instructions, result.cycles,
            )
        self.last_telemetry = tele
        return result

    def _run_engine(
        self,
        trace: Trace,
        annotations: EventAnnotations,
        tele: Telemetry | None,
    ) -> SimResult:
        n = len(trace)
        if self.engine == "fast":
            from repro.simulator.streaming import run_fast_stream

            return run_fast_stream([(0, trace, annotations)], n, self.config,
                                   name=trace.name,
                                   instrument=self.instrument, telemetry=tele)

        cfg = self.config
        width = cfg.width
        depth = cfg.pipeline_depth
        win_size = cfg.window_size
        rob_size = cfg.rob_size
        pipe_capacity = depth * width

        deps = trace.dependences()
        dep1 = deps.dep1.tolist()
        dep2 = deps.dep2.tolist()
        static_lat = trace.latencies(cfg.latency_table)
        latency = (static_lat + annotations.load_extra).tolist()
        fetch_stall = annotations.fetch_stall.tolist()
        mispredicted = annotations.mispredicted.tolist()
        long_miss = annotations.long_miss.tolist()

        inf = float("inf")
        complete = [inf] * n

        pipe: deque[tuple[int, int]] = deque()  # (dispatch_ready_cycle, idx)
        window: list[int] = []
        rob: deque[int] = deque()

        next_fetch = 0
        fetch_resume = 0          # no fetch before this cycle
        stall_paid_for = -1       # fetch index whose I-miss stall was charged
        waiting_branch = -1       # mispredicted branch blocking fetch
        branch_resolve = -1       # cycle at which that branch resolves

        retired = 0
        cycle = 0

        mem_lat = cfg.hierarchy.memory_latency
        front_cause = CLS_BASE    #: sticky class of the last fetch break
        branch_wait_start = 0     #: cycle the pending mispredict stopped fetch

        instr = None
        if self.instrument:
            instr = Instrumentation(
                issued_histogram=np.zeros(width + 1, dtype=np.int64)
            )

        while retired < n:
            # ---- retire (in order, completed, up to width) ---------------
            m = 0
            while rob and m < width:
                head = rob[0]
                if complete[head] <= cycle:
                    rob.popleft()
                    retired += 1
                    m += 1
                else:
                    break
            if tele is not None and m:
                tele.retire(cycle, m)

            # ---- issue (oldest-first, ready, up to width) -----------------
            issued_now = 0
            mispredict_issued = False
            if window:
                remaining: list[int] = []
                for k in window:
                    if issued_now >= width:
                        remaining.append(k)
                        continue
                    d = dep1[k]
                    if d >= 0 and complete[d] > cycle:
                        remaining.append(k)
                        continue
                    d = dep2[k]
                    if d >= 0 and complete[d] > cycle:
                        remaining.append(k)
                        continue
                    complete[k] = cycle + latency[k]
                    issued_now += 1
                    if k == waiting_branch:
                        branch_resolve = cycle + latency[k]
                    if instr is not None or tele is not None:
                        if mispredicted[k]:
                            mispredict_issued = True
                            if tele is not None:
                                tele.mark_mispredict(cycle, k)
                        if long_miss[k]:
                            if instr is not None:
                                # dispatch and retire are both in order,
                                # so the ROB holds a contiguous index
                                # range and the entries ahead of k are
                                # k - rob[0]
                                instr.rob_ahead_at_long_miss.append(
                                    k - rob[0]
                                )
                            if tele is not None:
                                tele.mark_long_miss(cycle, k, latency[k])
                window = remaining
            if instr is not None:
                instr.issued_histogram[issued_now] += 1
                if mispredict_issued:
                    # fetch stopped at the branch, so everything still in
                    # the window is older and useful — the quantity the
                    # paper measures to justify its drain assumption
                    instr.window_left_at_mispredict.append(len(window))

            # ---- dispatch (in order, up to width, both structures) --------
            m = 0
            stalled_window = stalled_rob = False
            while (
                pipe
                and m < width
                and pipe[0][0] <= cycle
            ):
                if len(window) >= win_size:
                    stalled_window = True
                    if instr is not None:
                        instr.dispatch_stall_window += 1
                    break
                if len(rob) >= rob_size:
                    stalled_rob = True
                    if instr is not None:
                        instr.dispatch_stall_rob += 1
                    break
                _, k = pipe.popleft()
                window.append(k)
                rob.append(k)
                m += 1
            # the window stays oldest-first by construction: dispatch
            # appends strictly increasing indices and the issue scan
            # preserves relative order, so no re-sort is needed

            if tele is not None:
                # stall attribution (see repro.telemetry.accountant for
                # the priority order); one class per cycle, so the class
                # counts partition the simulated cycles
                if m > 0:
                    front_cause = CLS_BASE
                    cls = CLS_BASE
                elif stalled_window:
                    cls = CLS_WINDOW_FULL
                elif stalled_rob:
                    head = rob[0]
                    cls = (
                        CLS_DCACHE_LONG
                        if long_miss[head] and complete[head] > cycle
                        else CLS_ROB_FULL
                    )
                elif waiting_branch >= 0:
                    cls = CLS_BRANCH
                elif rob and long_miss[rob[0]] and complete[rob[0]] > cycle:
                    cls = CLS_DCACHE_LONG
                else:
                    cls = front_cause
                tele.charge(cls, cycle)

            # ---- fetch (up to width, subject to stalls) --------------------
            if (
                waiting_branch >= 0
                and branch_resolve >= 0
                and cycle >= branch_resolve
            ):
                # misprediction resolved: redirect, refill starts next cycle
                if tele is not None:
                    tele.mark_branch_redirect(
                        cycle, waiting_branch, branch_wait_start
                    )
                waiting_branch = -1
                branch_resolve = -1
                fetch_resume = cycle + 1
            if waiting_branch < 0 and cycle >= fetch_resume:
                m = 0
                while (
                    m < width
                    and next_fetch < n
                    and len(pipe) < pipe_capacity
                ):
                    f = next_fetch
                    stall = fetch_stall[f]
                    if stall and stall_paid_for != f:
                        # the line misses: fetch resumes after the fill
                        stall_paid_for = f
                        fetch_resume = cycle + stall
                        if tele is not None:
                            long = stall >= mem_lat
                            front_cause = (
                                CLS_ICACHE_L2 if long else CLS_ICACHE_L1
                            )
                            tele.mark_icache_stall(cycle, f, stall, long)
                        break
                    pipe.append((cycle + depth, f))
                    next_fetch += 1
                    m += 1
                    if mispredicted[f]:
                        # stop fetching useful instructions until resolved
                        waiting_branch = f
                        branch_resolve = (
                            complete[f] if complete[f] != inf else -1
                        )
                        if tele is not None:
                            front_cause = CLS_BRANCH
                            branch_wait_start = cycle
                        break

            if tele is not None:
                tele.occupancy(cycle, 1, len(rob), len(window))
            cycle += 1

        ann = annotations
        return SimResult(
            name=trace.name,
            instructions=n,
            cycles=cycle,
            misprediction_count=int(ann.mispredicted.sum()),
            icache_short_count=int(
                ((ann.fetch_stall > 0)
                 & (ann.fetch_stall < cfg.hierarchy.memory_latency)).sum()
            ),
            icache_long_count=int(
                (ann.fetch_stall >= cfg.hierarchy.memory_latency).sum()
            ),
            dcache_long_count=int(ann.long_miss.sum()),
            instrumentation=instr,
        )


def simulate(
    trace: Trace,
    config: MachineSpec | None = None,
    annotations: EventAnnotations | None = None,
    instrument: bool = True,
    engine=None,
    telemetry=None,
) -> SimResult:
    """Convenience wrapper around :class:`DetailedSimulator`.

    Pass ``telemetry=`` a :class:`~repro.telemetry.Telemetry` session (or
    ``True``/a :class:`~repro.telemetry.TelemetryConfig`) to measure the
    run; read the session's ``report`` afterwards.
    """
    return DetailedSimulator(
        config, instrument, engine=engine, telemetry=telemetry
    ).run(trace, annotations)
