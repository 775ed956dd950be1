"""The event-driven detailed engine, fed chunk by chunk.

:func:`run_fast_stream` is the optimized twin of the reference loop in
:mod:`repro.simulator.processor`.  It simulates exactly the same machine
— same phase order within a cycle (retire, issue, dispatch, fetch), same
structural limits, same miss-event handling — and is asserted cycle-exact
against the reference by ``tests/simulator/test_engine_equivalence.py``
at several chunk sizes.  It is the only fast engine: the in-memory path
(:meth:`repro.simulator.processor.DetailedSimulator.run`) feeds it the
whole trace as a single chunk, and the streaming path
(:func:`simulate_stream`) feeds it the chunks of a stream.  What changes
from the reference is purely the algorithm:

* **Index-range structures.**  Dispatch and retirement are both in
  program order, so the ROB always holds the contiguous trace-index range
  ``[retired, dispatched)`` and the front-end pipeline holds
  ``[dispatched, fetched)``.  Both collapse into integer pointers: ROB
  occupancy, pipeline occupancy and the "instructions ahead of a long
  miss" instrumentation are all O(1) arithmetic instead of container
  scans.  The pipeline itself is a deque of *fetch-group* records
  ``(dispatch_ready_cycle, end_index)`` — one entry per fetch cycle, not
  per instruction — and a whole group whose dispatch cannot stall is
  dispatched with a single structural check.
* **Event-driven wake-up.**  The reference re-scans the whole issue
  window every cycle to find ready instructions.  Here each instruction
  is woken exactly once.  Instructions whose producers have all completed
  by dispatch go onto a plain next-cycle list (the common case; it merges
  into the ready list without sorting, because newly dispatched indices
  exceed everything already waiting).  Instructions blocked on an
  in-flight producer register themselves on that producer's *waiter
  list*; when the producer issues it walks its waiters, and the waiter
  whose last outstanding producer this was is scheduled in a calendar
  (dict of wake cycle → bucket, with a heap of pending wake cycles for
  the "when is the next wake?" query).  Due instructions merge into a
  sorted ready list that preserves the machine's oldest-first issue
  priority.  Work is proportional to instructions and *blocked*
  dependence edges, not cycles × window size.
* **Batched fetch.**  The trace positions where fetch can deviate from
  the conveyor belt (I-miss stalls, mispredicted branches) are
  precomputed with numpy per chunk; between two such events a whole
  fetch group is latched as one record with no per-instruction checks.
* **Event skipping.**  When a cycle performs no retire, issue, dispatch
  or fetch and changes no front-end state, the machine is quiescent and
  will stay quiescent until the next scheduled event (a completion, a
  pipeline-latch expiry, an I-miss refill, a branch resolution).  The
  engine jumps straight to that cycle, charging the skipped cycles to the
  instrumentation counters in bulk — long-miss drains cost O(1) instead
  of O(ΔD) Python iterations.
* **Bounded tables.**  The per-instruction tables (dependences,
  latencies, miss events, completion times, waiter lists) cover at most
  :data:`_TABLE_SPAN` instructions, not the trace, because the machine's
  live range is architecturally bounded: the ROB holds
  ``[retired, next_dispatch)`` (≤ ``rob_size``) and the pipeline
  ``[dispatched, fetched)`` (≤ ``pipeline_depth × width``).  Tables are
  indexed by trace index minus a base, so the hot loop does no
  wrap-around arithmetic.  They are filled from the feed as fetch nears
  the loaded frontier; when that frontier reaches their end, the live
  range moves to the front and every index the machine holds is
  rebased, at O(live range) cost.

Dependences are renamed chunk-at-a-time by
:class:`repro.trace.trace.StreamingRenamer` (producer map carried across
chunks, indices global), and annotations arrive chunk-wise from
:class:`repro.frontend.streaming.StreamingCollector` — so the whole
streaming pipeline, functional pass included, holds O(chunk) state.
Results are bit-identical for every chunk size; the test suite enforces
it.

:func:`simulate_stream` is the end-to-end streaming entry point (the
counterpart of :meth:`repro.simulator.processor.DetailedSimulator.run`):
functional warm-up and recording passes over the stream, then the
engine over the annotated chunks.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush

import numpy as np

from repro.config import BASELINE, MachineSpec
from repro.obs import spans as _spans
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
from repro.trace.trace import StreamingRenamer

#: sentinel completion time for not-yet-issued instructions; any real
#: cycle count is far below this
_INF = 1 << 62

#: flags of the ``event`` table; the bits above them hold the I-cache
#: fetch-stall cycles (``event >> _STALL_SHIFT``)
_MISPREDICTED = 1
_LONG_MISS = 2
_STALL_SHIFT = 2

#: longest table in instructions; a shorter trace gets tables of its
#: own length, so it loads once and never compacts
_TABLE_SPAN = 1 << 15


def _checked_feed(annotated_chunks, length: int):
    """The feed's triples, raising :class:`ValueError` unless the chunks
    arrive in order and cover exactly ``length`` instructions."""
    fed = 0
    for base, chunk, ann in annotated_chunks:
        if base != fed:
            raise ValueError(f"chunk at {base} follows {fed} instructions")
        fed += len(chunk)
        if fed > length:
            raise ValueError(f"feed holds more than {length} instructions")
        yield base, chunk, ann
    if fed < length:
        raise ValueError(f"feed ended after {fed} of {length} instructions")


def run_fast_stream(
    annotated_chunks,
    length: int,
    config: MachineSpec,
    name: str = "trace",
    instrument: bool = True,
    telemetry=None,
) -> SimResult:
    """Simulate ``length`` instructions fed as ``(base, chunk,
    annotations)`` triples (the :meth:`StreamingCollector.iter_annotated`
    protocol), holding one staged chunk and tables of at most
    :data:`_TABLE_SPAN` instructions.

    The chunks must arrive in order (each ``base`` is the number of
    instructions fed before it) and cover exactly ``length``
    instructions; a feed that ends early, runs past ``length`` or skips
    raises :class:`ValueError`.  A successful run exhausts the feed.

    ``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
    session.  With one attached, every cycle — including the ones the
    quiescent-skip path jumps over, charged as constant-state spans — is
    classified into a stall class and fed to the interval timeline, with
    the identical priority order as the reference loop; with ``None``
    every collection site is skipped and the engine is unchanged.
    """
    length = int(length)
    cfg = config
    width = cfg.width
    depth = cfg.pipeline_depth
    win_size = cfg.window_size
    rob_size = cfg.rob_size
    pipe_capacity = depth * width

    feed = _checked_feed(annotated_chunks, length)
    renamer = StreamingRenamer()
    lat_vec = cfg.latency_table.as_vector()
    mem_lat = cfg.hierarchy.memory_latency

    #: the live span ``(fetch frontier + width) - retired`` stays below
    #: ``rob_size + pipe_capacity + width``; twice that leaves room to
    #: load after every compaction
    cap = max(min(_TABLE_SPAN, length),
              2 * (rob_size + pipe_capacity + width))

    dep1 = [0] * cap
    dep2 = [0] * cap
    latency = [0] * cap
    event = [0] * cap      #: miss events, see _MISPREDICTED
    complete = [_INF] * cap
    pending = [0] * cap    #: unissued-producer count, valid once dispatched
    ready_max = [0] * cap  #: max completion time over issued producers
    #: per-producer list of dispatched consumers blocked on it
    waiters: list[list[int] | None] = [None] * cap

    #: tables loaded straight from the staged chunk (dependences are
    #: rebased separately)
    plain = (latency, event)
    #: tables whose live entries move on compaction
    moved = plain + (complete, pending, ready_max, waiters)

    #: every index below is local: trace index minus ``base``.  ``n`` is
    #: the local end of the trace.
    base = 0
    n = length
    #: staged (not yet loaded) arrays of the current chunk
    stage: tuple[np.ndarray, ...] = ()
    st_pos = 0
    st_len = 0
    loaded_end = 0         #: tables hold trace range [retired, loaded_end)
    ev_q: deque[int] = deque()  #: staged fetch-event indices (global)
    ev_next = 0

    #: whole-run miss-event totals, accumulated as chunks are staged
    misp_total = ic_short = ic_long = dc_long = 0

    cal: dict[int, list[int]] = {}  #: wake cycle -> instructions waking then
    cal_get = cal.get
    wt: list[int] = []              #: heap of pending wake cycles (distinct)
    ready: list[int] = []           #: issue-ready indices, kept sorted
    nxt: list[int] = []             #: dispatched this cycle, ready the next
    wake1: list[int] = []           #: freed by an issue, ready next cycle

    #: fetch groups (dispatch_ready_cycle, end_index); together the
    #: groups cover the pipeline range [next_dispatch, next_fetch)
    pipe: deque[tuple[int, int]] = deque()

    next_fetch = 0
    next_dispatch = 0      #: ROB is trace range [retired, next_dispatch)
    retired = 0
    window_count = 0       #: dispatched but not yet issued
    fetch_resume = 0
    stall_paid_for = -1
    waiting_branch = -1
    branch_resolve = -1
    cycle = 0

    hist = [0] * (width + 1)
    window_left: list[int] = []
    rob_ahead: list[int] = []
    stall_window = 0
    stall_rob = 0

    tele = telemetry
    notable_any = instrument or tele is not None
    front_cause = CLS_BASE    #: sticky class of the last fetch break
    branch_wait_start = 0     #: cycle the pending mispredict stopped fetch
    dispatched_t = False
    stalled_window_t = stalled_rob_t = False

    while retired < n:
        progress = False
        if tele is not None:
            dispatched_t = False
            stalled_window_t = stalled_rob_t = False

        # ---- retire (in order, completed, up to width) ---------------
        if retired < next_dispatch and complete[retired] <= cycle:
            r0 = retired
            lim = retired + width
            if lim > next_dispatch:
                lim = next_dispatch
            retired += 1
            while retired < lim and complete[retired] <= cycle:
                retired += 1
            progress = True
            if tele is not None:
                tele.retire(cycle, retired - r0)

        # ---- issue (oldest-first, ready, up to width) -----------------
        if nxt:
            if ready:
                # every index in nxt was dispatched after everything
                # already waiting, so appending keeps the list sorted
                ready += nxt
                nxt = []
            else:
                ready, nxt = nxt, ready
        if wake1:
            if ready:
                for c in wake1:
                    insort(ready, c)
                wake1 = []
            else:
                wake1.sort()
                ready, wake1 = wake1, ready
        if wt and wt[0] <= cycle:
            bucket = cal.pop(heappop(wt))
            while wt and wt[0] <= cycle:
                bucket += cal.pop(heappop(wt))
            if ready:
                ready += bucket
                ready.sort()
            else:
                bucket.sort()
                ready = bucket
        mispredict_issued = False
        if ready:
            cycle_1 = cycle + 1
            issued_now = len(ready)
            if issued_now > width:
                issued_now = width
            for i in range(issued_now):
                k = ready[i]
                done = cycle + latency[k]
                complete[k] = done
                if k == waiting_branch:
                    branch_resolve = done
                ev = event[k]
                if ev and notable_any:
                    if ev & _MISPREDICTED:
                        mispredict_issued = True
                        if tele is not None:
                            tele.mark_mispredict(cycle, base + k)
                    if ev & _LONG_MISS:
                        if instrument:
                            # the ROB holds the contiguous range
                            # [retired, next_dispatch), so the entries
                            # ahead of k are exactly k - retired
                            rob_ahead.append(k - retired)
                        if tele is not None:
                            tele.mark_long_miss(cycle, base + k, latency[k])
                w = waiters[k]
                if w is not None:
                    waiters[k] = None
                    for c in w:
                        if done > ready_max[c]:
                            ready_max[c] = done
                        p = pending[c]
                        if p == 1:
                            pending[c] = 0
                            t = ready_max[c]
                            if t == cycle_1:
                                # the common latency-1 wake skips the
                                # calendar machinery entirely
                                wake1.append(c)
                            else:
                                bkt = cal_get(t)
                                if bkt is None:
                                    cal[t] = [c]
                                    heappush(wt, t)
                                else:
                                    bkt.append(c)
                        else:
                            pending[c] = p - 1
            del ready[:issued_now]
            window_count -= issued_now
            progress = True
        else:
            issued_now = 0
        if instrument:
            hist[issued_now] += 1
            if mispredict_issued:
                window_left.append(window_count)

        # ---- dispatch (in order, up to width, both structures) --------
        if pipe and pipe[0][0] <= cycle:
            d0 = next_dispatch
            stop = pipe[0][1]
            cnt = stop - d0
            if (
                cnt <= width
                and window_count + cnt <= win_size
                and stop - retired <= rob_size
                and (cnt == width or len(pipe) < 2 or pipe[1][0] > cycle)
            ):
                # whole-group fast path: the group fits the dispatch
                # width and both structures, and no younger group could
                # dispatch this cycle
                pipe.popleft()
            else:
                # dispatch runs through the ready groups up to the width,
                # and stalls at the first slot the window or ROB lacks
                lim = d0 + width
                for t, gend in pipe:
                    if t > cycle or stop >= lim:
                        break
                    stop = gend
                if stop > lim:
                    stop = lim
                room = d0 + win_size - window_count
                rob_room = retired + rob_size
                if room < stop or rob_room < stop:
                    if room <= rob_room:
                        stop = room
                        stalled_window_t = True
                        if instrument:
                            stall_window += 1
                    else:
                        stop = rob_room
                        stalled_rob_t = True
                        if instrument:
                            stall_rob += 1
                while pipe and pipe[0][1] <= stop:
                    pipe.popleft()
            if stop > d0:
                next_dispatch = stop
                window_count += stop - d0
                dispatched_t = True
                progress = True
                cycle_1 = cycle + 1
                for k in range(d0, stop):
                    pend = 0
                    r = 0
                    d = dep1[k]
                    # deps already retired have completed by now and
                    # cannot bound the issue time — skip them outright
                    if d >= retired:
                        cd = complete[d]
                        if cd == _INF:
                            pend = 1
                            w = waiters[d]
                            if w is None:
                                waiters[d] = [k]
                            else:
                                w.append(k)
                        elif cd > r:
                            r = cd
                    d = dep2[k]
                    if d >= retired:
                        cd = complete[d]
                        if cd == _INF:
                            pend += 1
                            w = waiters[d]
                            if w is None:
                                waiters[d] = [k]
                            else:
                                w.append(k)
                        elif cd > r:
                            r = cd
                    if pend:
                        pending[k] = pend
                        ready_max[k] = r
                    elif r <= cycle_1:
                        # a producer completing by cycle+1 cannot delay the
                        # consumer: its earliest issue is the cycle after
                        # dispatch anyway
                        nxt.append(k)
                    else:
                        bkt = cal_get(r)
                        if bkt is None:
                            cal[r] = [k]
                            heappush(wt, r)
                        else:
                            bkt.append(k)

        if tele is not None:
            # stall attribution — same priority order as the reference
            # loop (see repro.telemetry.accountant)
            if dispatched_t:
                front_cause = CLS_BASE
                cls = CLS_BASE
            elif stalled_window_t:
                cls = CLS_WINDOW_FULL
            elif stalled_rob_t:
                cls = (
                    CLS_DCACHE_LONG
                    if event[retired] & _LONG_MISS
                    and complete[retired] > cycle
                    else CLS_ROB_FULL
                )
            elif waiting_branch >= 0:
                cls = CLS_BRANCH
            elif (
                retired < next_dispatch
                and event[retired] & _LONG_MISS
                and complete[retired] > cycle
            ):
                cls = CLS_DCACHE_LONG
            else:
                cls = front_cause
            tele.charge(cls, cycle)

        # ---- fetch (up to width, subject to stalls) --------------------
        if waiting_branch >= 0:
            if branch_resolve >= 0 and cycle >= branch_resolve:
                # misprediction resolved: redirect, refill next cycle
                if tele is not None:
                    tele.mark_branch_redirect(
                        cycle, base + waiting_branch, branch_wait_start
                    )
                waiting_branch = -1
                branch_resolve = -1
                fetch_resume = cycle + 1
                progress = True
        elif cycle >= fetch_resume and next_fetch < n:
            if loaded_end < n and next_fetch + width > loaded_end:
                # ---- load tables up to the fetch horizon --------------
                while loaded_end < n and next_fetch + width > loaded_end:
                    if st_pos == st_len:
                        base_c, chunk, ann = next(feed)
                        deps = renamer.rename_chunk(chunk)
                        stage = (
                            deps.dep1,
                            deps.dep2,
                            lat_vec[chunk.opclass.astype(np.int64)]
                            + ann.load_extra,
                            (ann.fetch_stall.astype(np.int64)
                             << _STALL_SHIFT)
                            + ann.mispredicted * _MISPREDICTED
                            + ann.long_miss * _LONG_MISS,
                        )
                        ev_q.extend(
                            (np.flatnonzero(
                                (ann.fetch_stall > 0) | ann.mispredicted
                            ) + base_c).tolist()
                        )
                        fs = ann.fetch_stall
                        misp_total += int(ann.mispredicted.sum())
                        ic_short += int(((fs > 0) & (fs < mem_lat)).sum())
                        ic_long += int((fs >= mem_lat).sum())
                        dc_long += int(ann.long_miss.sum())
                        st_pos = 0
                        st_len = len(chunk)
                        continue
                    if loaded_end == cap:
                        # compact: move the live range [retired,
                        # loaded_end) to the front and rebase every
                        # index the machine holds.  Fetch is not
                        # waiting on a branch here, so waiting_branch
                        # holds no index.
                        shift = retired
                        live = loaded_end - shift
                        for tbl in moved:
                            tbl[:live] = tbl[shift:loaded_end]
                        for tbl in (dep1, dep2):
                            tbl[:live] = [d - shift
                                          for d in tbl[shift:loaded_end]]
                        for w in waiters[:live]:
                            if w is not None:
                                w[:] = [c - shift for c in w]
                        for bkt in cal.values():
                            bkt[:] = [c - shift for c in bkt]
                        ready = [c - shift for c in ready]
                        nxt = [c - shift for c in nxt]
                        wake1 = [c - shift for c in wake1]
                        pipe = deque((t, e - shift) for t, e in pipe)
                        base += shift
                        n -= shift
                        retired = 0
                        next_dispatch -= shift
                        next_fetch -= shift
                        loaded_end = live
                        stall_paid_for -= shift
                    take = st_len - st_pos
                    if take > cap - loaded_end:
                        take = cap - loaded_end
                    src = slice(st_pos, st_pos + take)
                    dst = slice(loaded_end, loaded_end + take)
                    dep1[dst] = (stage[0][src] - base).tolist()
                    dep2[dst] = (stage[1][src] - base).tolist()
                    for tbl, col in zip(plain, stage[2:]):
                        tbl[dst] = col[src].tolist()
                    complete[dst] = [_INF] * take
                    waiters[dst] = [None] * take
                    st_pos += take
                    loaded_end += take
                ev_next = ev_q[0] - base if ev_q else n
            space = pipe_capacity - (next_fetch - next_dispatch)
            if space > 0:
                m = width if width < space else space
                end = next_fetch + m
                if end > n:
                    end = n
                if end <= ev_next:
                    # conveyor path: no stall or mispredict in the group
                    pipe.append((cycle + depth, end))
                    next_fetch = end
                    progress = True
                else:
                    f0 = next_fetch
                    while next_fetch < end:
                        f = next_fetch
                        stall = event[f] >> _STALL_SHIFT
                        if stall and stall_paid_for != f:
                            # the line misses: resume after the fill
                            stall_paid_for = f
                            fetch_resume = cycle + stall
                            progress = True
                            if tele is not None:
                                long = stall >= mem_lat
                                front_cause = (
                                    CLS_ICACHE_L2 if long else CLS_ICACHE_L1
                                )
                                tele.mark_icache_stall(
                                    cycle, base + f, stall, long
                                )
                            break
                        next_fetch += 1
                        if event[f] & _MISPREDICTED:
                            # stop fetching useful instructions
                            waiting_branch = f
                            branch_resolve = (
                                complete[f] if complete[f] != _INF else -1
                            )
                            if tele is not None:
                                front_cause = CLS_BRANCH
                                branch_wait_start = cycle
                            break
                    if next_fetch != f0:
                        pipe.append((cycle + depth, next_fetch))
                        progress = True
                    while ev_q and ev_q[0] < base + next_fetch:
                        ev_q.popleft()
                    ev_next = ev_q[0] - base if ev_q else n

        if tele is not None:
            tele.occupancy(cycle, 1, next_dispatch - retired, window_count)
        cycle += 1
        if progress or retired >= n:
            continue

        # ---- quiescent: jump to the next cycle anything can change ----
        t_next = _INF
        if retired < next_dispatch and complete[retired] < t_next:
            t_next = complete[retired]
        if wt and wt[0] < t_next:
            t_next = wt[0]
        if (
            pipe
            and window_count < win_size
            and next_dispatch - retired < rob_size
        ):
            t = pipe[0][0]
            if t < t_next:
                t_next = t
        if waiting_branch >= 0:
            if 0 <= branch_resolve < t_next:
                t_next = branch_resolve
        elif next_fetch < n and next_fetch - next_dispatch < pipe_capacity:
            if fetch_resume < t_next:
                t_next = fetch_resume
        if t_next == _INF:
            raise RuntimeError(
                "simulator deadlock: no schedulable event with "
                f"{n - retired} instructions outstanding"
            )
        skip = t_next - cycle
        if skip > 0:
            if instrument:
                hist[0] += skip
                # the reference charges a dispatch-stall counter in every
                # skipped cycle whose pipeline head is dispatch-ready
                if pipe:
                    head = pipe[0][0]
                    blocked = t_next - (head if head > cycle else cycle)
                    if blocked > 0:
                        if window_count >= win_size:
                            stall_window += blocked
                        elif next_dispatch - retired >= rob_size:
                            stall_rob += blocked
            if tele is not None:
                # classify the skipped cycles in bulk.  The machine state
                # is frozen throughout, so the span splits into at most
                # two constant classes: cycles before the pipeline head's
                # latch expires are front-end starvation, cycles after it
                # are a structural dispatch stall (the skip logic only
                # lets the head become ready when a structure is full —
                # otherwise dispatch would progress and end the skip)
                if waiting_branch >= 0:
                    idle_cls = CLS_BRANCH
                elif (
                    retired < next_dispatch
                    and event[retired] & _LONG_MISS
                    and complete[retired] > cycle
                ):
                    idle_cls = CLS_DCACHE_LONG
                else:
                    idle_cls = front_cause
                if pipe:
                    head = pipe[0][0]
                    split = head if head > cycle else cycle
                    if split > t_next:
                        split = t_next
                    if split > cycle:
                        tele.charge(idle_cls, cycle, split - cycle)
                    if t_next > split:
                        if window_count >= win_size:
                            blocked_cls = CLS_WINDOW_FULL
                        elif next_dispatch - retired >= rob_size:
                            blocked_cls = (
                                CLS_DCACHE_LONG
                                if event[retired] & _LONG_MISS
                                and complete[retired] > cycle
                                else CLS_ROB_FULL
                            )
                        else:  # pragma: no cover — see span-split note
                            blocked_cls = idle_cls
                        tele.charge(blocked_cls, split, t_next - split)
                else:
                    tele.charge(idle_cls, cycle, skip)
                tele.occupancy(
                    cycle, skip, next_dispatch - retired, window_count
                )
            cycle = t_next

    for _ in feed:  # exhaust the feed; raises if it runs past length
        pass

    instr = None
    if instrument:
        instr = Instrumentation(
            issued_histogram=np.array(hist, dtype=np.int64),
            window_left_at_mispredict=window_left,
            rob_ahead_at_long_miss=rob_ahead,
            dispatch_stall_rob=stall_rob,
            dispatch_stall_window=stall_window,
        )

    return SimResult(
        name=name,
        instructions=length,
        cycles=cycle,
        misprediction_count=misp_total,
        icache_short_count=ic_short,
        icache_long_count=ic_long,
        dcache_long_count=dc_long,
        instrumentation=instr,
    )


def simulate_stream(
    stream,
    config: MachineSpec | None = None,
    instrument: bool = True,
    warmup_passes: int = 1,
    telemetry=None,
) -> SimResult:
    """Detailed simulation of a chunk stream, end to end, in O(chunk).

    Runs the streaming functional pass (warm-up + recording, carrying
    cache/predictor state across chunks) and feeds the annotated chunks
    straight into :func:`run_fast_stream` — no trace, annotation array,
    or dependence table is ever materialized whole.  Bit-identical to
    ``DetailedSimulator.run`` on the materialized trace.
    """
    from repro.frontend.collector import CollectorConfig
    from repro.frontend.streaming import StreamingCollector
    from repro.simulator.processor import resolve_telemetry

    cfg = config or BASELINE
    n = len(stream)
    if n == 0:
        raise ValueError("cannot simulate an empty stream")
    collector = StreamingCollector(CollectorConfig.of(cfg, warmup_passes))
    tele = resolve_telemetry(telemetry)
    feed = collector.iter_annotated(stream, annotate=True)
    with _spans.span("sim.stream.engine", workload=stream.name,
                     instructions=n):
        # the engine exhausts the feed, so the collector finalizes its
        # profile
        result = run_fast_stream(feed, n, cfg, name=stream.name,
                                 instrument=instrument, telemetry=tele)
    if tele is not None:
        with _spans.span("telemetry.finish", workload=stream.name):
            tele.finish(stream.name, result.instructions, result.cycles)
    return result
