"""The fast detailed engine: one program-order pass per instruction.

:func:`run_fast_stream` is the optimized twin of the reference loop in
:mod:`repro.simulator.processor`.  It simulates exactly the same machine
and is asserted cycle-exact against it — cycles, instrumentation and
every telemetry output — by ``tests/simulator/test_engine_equivalence.py``
and ``tests/simulator/test_engine_fuzz.py`` at several chunk sizes.  It
is the only fast engine: the in-memory path
(:meth:`repro.simulator.processor.DetailedSimulator.run`) feeds it the
whole trace as a single chunk, and the streaming path
(:func:`simulate_stream`) feeds it the chunks of a stream.

The reference steps cycles; this engine steps instructions.  Fetch,
dispatch and retirement are in program order and issue is oldest-first,
so no instruction's timing depends on a younger one, and one loop over
the trace computes each instruction ``k``'s fetch, dispatch, issue,
completion and retirement cycles ``F``, ``D``, ``I``, ``C``, ``R`` from
older instructions alone.  With ``W`` the width, ``S`` the window size,
``cap = pipeline_depth · W`` the front-end pipeline's capacity and ``b``
the latest mispredicted branch before ``k``:

* ``F_k = max(F_{k-1}, F_{k-W} + 1, D_{k-cap}, C_b + 1)`` plus ``k``'s
  I-cache stall — the cycle fetch reaches ``k``, delayed by the fill
  when ``k``'s line misses;
* ``D_k = max(F_k + depth, D_{k-1}, D_{k-W} + 1, R_{k-rob}, w_k)``,
  where ``w_k``, the ``S``-th largest issue cycle before ``k``, is the
  cycle the window first has room for ``k``; a heap pre-filled with
  ``-1`` sentinels holds the ``S`` largest;
* ``I_k`` is the first cycle at or after ``max(D_k + 1, C_p)`` over
  ``k``'s producers ``p`` in which fewer than ``W`` older instructions
  issue.  A producer ``rob_size`` or more back has retired before ``k``
  dispatches, so it never binds and the loop reads ``C_{k-rob}`` in its
  place;
* ``C_k = I_k + latency_k`` and ``R_k = max(C_k, R_{k-1}, R_{k-W} + 1)``.

The run takes ``R_{n-1} + 1`` cycles.  The loop has no calendar, no
ready list and no per-cycle step: a long miss costs the same as any
other instruction.

Instrumentation and telemetry are derived afterwards, block by block,
with numpy over the timing columns (:class:`_Accounts`).  Each block
settles the cycles up to its last settled dispatch: a cycle either
dispatches (``base``) or lies in the gap before the next dispatch,
where the head of the pipeline is not yet ready (the front-end part,
classified by branch waits, the ROB head's long miss and the last
I-cache fill) or ready but blocked by the window, then the ROB.  Every
class, the interval timeline and the event trace come out of those
piecewise-constant segments, one per event rather than one per cycle.

**Bounded tables.**  The loop runs over blocks of at most
:data:`_TABLE_SPAN` instructions, each preceded by a fixed history of
the older instructions the loop and the derivation still read (two
ROBs, the pipeline and two issue groups), so streaming memory stays
O(chunk).  Dependences are
renamed chunk-at-a-time by :class:`repro.trace.trace.StreamingRenamer`
(a chunk that is the whole trace reads the trace's memoized
dependences), and annotations arrive chunk-wise from
:class:`repro.frontend.streaming.StreamingCollector`.  Results are
bit-identical for every chunk size; the test suite enforces it.

:func:`simulate_stream` is the end-to-end streaming entry point (the
counterpart of :meth:`repro.simulator.processor.DetailedSimulator.run`):
functional warm-up and recording passes over the stream, then the
engine over the annotated chunks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapreplace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

#: longest table in instructions, history included; a shorter trace
#: gets tables of its own length, so it runs as one block
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


def _blocks(feed, length: int, lat_vec: np.ndarray, size: int):
    """The feed's columns ``(dep1, dep2, latency, fetch_stall,
    mispredicted, long_miss)``, regrouped into blocks of ``size``
    instructions (the last one shorter)."""
    renamer = StreamingRenamer()
    pending: list[tuple] = []
    have = 0
    for _, chunk, ann in feed:
        # the whole trace in one chunk reads its memoized dependences
        deps = (chunk.dependences() if len(chunk) == length
                else renamer.rename_chunk(chunk))
        pending.append((deps.dep1, deps.dep2,
                        lat_vec[chunk.opclass.astype(np.int64)]
                        + ann.load_extra,
                        ann.fetch_stall.astype(np.int64),
                        ann.mispredicted, ann.long_miss))
        have += len(chunk)
        while have >= size:
            cols = (pending[0] if len(pending) == 1
                    else tuple(map(np.concatenate, zip(*pending))))
            yield tuple(c[:size] for c in cols)
            have -= size
            pending = [tuple(c[size:] for c in cols)] if have else []
    if pending:
        yield tuple(map(np.concatenate, zip(*pending)))


def _lagging(column: list, position: int):
    """An iterator over ``column`` from ``position``: it trails the
    loop that appends to ``column`` by a fixed distance."""
    it = iter(column)
    it.__setstate__(position)
    return it


def _gather(column: list, positions: np.ndarray) -> np.ndarray:
    """``column`` at ``positions``, as an array."""
    return np.fromiter(map(column.__getitem__, positions.tolist()),
                       np.int64, len(positions))


def run_fast_stream(
    annotated_chunks,
    length: int,
    config: MachineSpec,
    name: str = "trace",
    instrument: bool = False,
    telemetry=None,
) -> SimResult:
    """Simulate ``length`` instructions fed as ``(base, chunk,
    annotations)`` triples (the :meth:`StreamingCollector.iter_annotated`
    protocol), holding tables of at most :data:`_TABLE_SPAN`
    instructions.

    The chunks must arrive in order (each ``base`` is the number of
    instructions fed before it) and cover exactly ``length``
    instructions; a feed that ends early, runs past ``length`` or skips
    raises :class:`ValueError`.  A successful run exhausts the feed.

    ``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
    session.  With one attached, every cycle is classified into a stall
    class with the reference loop's priority order and fed to the
    interval timeline; with ``None`` nothing is derived and the loop is
    unchanged.  Without an event trace the class counts go straight into
    the session's ``counts`` and the timeline gets one
    :meth:`~repro.telemetry.timeline.TimelineRecorder.add_interval` call
    per base interval; with one, the session's charge and event-marker
    methods are called in the reference loop's order.
    """
    length = int(length)
    cfg = config
    width = cfg.width
    depth = cfg.pipeline_depth
    rob = cfg.rob_size
    cap = depth * width
    lat_vec = cfg.latency_table.as_vector()

    #: instructions kept in front of each block.  The loop looks back at
    #: most rob_size or cap instructions; :class:`_Accounts` leaves the
    #: block's last cap + width + 1 instructions unsettled and reads up
    #: to two ROBs behind the first of them
    hist = 2 * rob + cap + 2 * width + 2
    block = max(min(_TABLE_SPAN, length + hist), 2 * hist) - hist
    accounts = (_Accounts(cfg, hist, instrument, telemetry)
                if instrument or telemetry is not None else None)

    # timing columns, each led by ``hist`` entries of history (sentinels
    # before the first instruction)
    F = [-1] * hist
    D = [-1] * hist
    C = [0] * hist
    R = [-1] * hist
    heap = [-1] * cfg.window_size  #: the S largest issue cycles so far
    issues: dict[int, int] = {}    #: cycle -> instructions issued then
    count = issues.get
    fetch_at = 0  #: earliest fetch for the next instruction
    d_last = r_last = -1
    start = 0
    misp_total = ic_short = ic_long = dc_long = 0
    mem_lat = cfg.hierarchy.memory_latency

    feed = _checked_feed(annotated_chunks, length)
    for dep1, dep2, lat, stall, misp, long in _blocks(feed, length,
                                                      lat_vec, block):
        nb = len(lat)
        misp_total += int(np.count_nonzero(misp))
        ic_short += int(np.count_nonzero((stall > 0) & (stall < mem_lat)))
        ic_long += int(np.count_nonzero(stall >= mem_lat))
        dc_long += int(np.count_nonzero(long))

        # producers as positions in C; one rob_size or more back reads
        # the instruction rob_size back, which completed before k
        # dispatched
        k = np.arange(start, start + nb)
        low = k - rob
        offset = hist - start
        p1 = (np.where(dep1 > low, dep1, low) + offset).tolist()
        p2 = (np.where(dep2 > low, dep2, low) + offset).tolist()
        #: fetch events: the stall cycles above a mispredicted flag
        ev = ((stall << 1) | misp).tolist()

        f_append, d_append, c_append, r_append = (
            F.append, D.append, C.append, R.append)
        for e, q1, q2, lt, fw, dw, dc, rw, rr in zip(
                ev, p1, p2, lat.tolist(), _lagging(F, hist - width),
                _lagging(D, hist - width), _lagging(D, hist - cap),
                _lagging(R, hist - width), _lagging(R, hist - rob)):
            f = fw + 1
            if f < fetch_at:
                f = fetch_at
            if f < dc:
                f = dc
            if e > 1:
                f += e >> 1
            f_append(f)
            d = f + depth
            if d < d_last:
                d = d_last
            if d <= dw:
                d = dw + 1
            if d < rr:
                d = rr
            x = heap[0]
            if d < x:
                d = x
            d_append(d)
            d_last = d
            i = d + 1
            x = C[q1]
            if i < x:
                i = x
            x = C[q2]
            if i < x:
                i = x
            m = count(i, 0)
            while m >= width:
                i += 1
                m = count(i, 0)
            issues[i] = m + 1
            heapreplace(heap, i)
            x = i + lt
            c_append(x)
            fetch_at = x + 1 if e & 1 else f
            r = rw + 1
            if r < r_last:
                r = r_last
            if r < x:
                r = x
            r_append(r)
            r_last = r

        start += nb
        if accounts is not None:
            accounts.block(F, D, C, R, (lat, stall, misp, long),
                           start - nb, final=start == length)
        if start < length:
            F, D, C, R = F[-hist:], D[-hist:], C[-hist:], R[-hist:]
            # every later instruction issues after d_last
            issues = {t: m for t, m in issues.items() if t > d_last}
            count = issues.get

    for _ in feed:  # exhaust the feed; raises if it runs past length
        pass
    cycles = r_last + 1
    return SimResult(
        name=name,
        instructions=length,
        cycles=cycles,
        misprediction_count=misp_total,
        icache_short_count=ic_short,
        icache_long_count=ic_long,
        dcache_long_count=dc_long,
        instrumentation=(accounts.instrumentation(cycles)
                         if instrument else None),
    )


class _Accounts:
    """Instrumentation and telemetry of one run, derived block by block
    from the timing columns.

    After the loop fills a block, the cycles up to its last settled
    dispatch are settled too: every later instruction dispatches, issues
    and retires after them, and the block's last ``lookahead``
    instructions are fetched after them.  :meth:`block` accounts those
    cycles, ``[c0, c1)``, as the gaps before the dispatches of the heads
    ``[h0, h1)``, reading any instruction in the block or its history.
    """

    def __init__(self, cfg: MachineSpec, hist: int, instrument: bool,
                 tele) -> None:
        self.cfg = cfg
        self.hist = hist
        self.lookahead = cfg.pipeline_depth * cfg.width + cfg.width + 1
        self.instrument = instrument
        self.tele = tele
        #: history of the input columns (latency, fetch stall,
        #: mispredicted, long miss); a sentinel's latency of 1 puts its
        #: issue cycle at -1 with its other cycles
        none = np.zeros(hist, dtype=bool)
        self.tail = (np.ones(hist, np.int64), np.zeros(hist, np.int64),
                     none, none)
        self.h0 = self.c0 = 0
        self.issued = np.zeros(cfg.width + 1, dtype=np.int64)
        self.window_left: list[int] = []
        self.rob_ahead: list[int] = []
        self.stall_window = self.stall_rob = 0
        self.rec = tele.recorder if tele is not None else None
        #: no event trace: counts and miss events skip the session's
        #: per-event methods
        self.inline = tele is not None and tele.events is None
        #: the timeline's open base interval: its first cycle and its
        #: sums so far (retired, ROB and window occupancy, mispredicts,
        #: I-cache stalls, long misses)
        self.tl_start = 0
        self.tl = [0] * 6

    def instrumentation(self, cycles: int) -> Instrumentation:
        issued = self.issued.copy()
        issued[0] = cycles - issued[1:].sum()
        return Instrumentation(
            issued_histogram=issued,
            window_left_at_mispredict=self.window_left,
            rob_ahead_at_long_miss=self.rob_ahead,
            dispatch_stall_rob=self.stall_rob,
            dispatch_stall_window=self.stall_window,
        )

    def block(self, F, D, C, R, cols, start: int, final: bool) -> None:
        """Account the cycles the block ending the columns settles."""
        cfg = self.cfg
        width = cfg.width
        rob = cfg.rob_size
        lat, stall, misp, long = (np.concatenate(pair)
                                  for pair in zip(self.tail, cols))
        self.tail = tuple(c[-self.hist:] for c in (lat, stall, misp, long))
        # R, monotone and read densely only by the timeline's sums,
        # stays a list
        D, C = (np.fromiter(c, np.int64, len(c)) for c in (D, C))
        I = C - lat
        n = len(D)
        g0 = start - self.hist  #: trace index of position 0
        ph0 = self.h0 - g0
        if final:
            ph1 = n
            c1 = R[-1] + 1
        else:
            ph1 = n - self.lookahead
            c1 = int(D[ph1 - 1]) + 1
        c0 = self.c0
        self.h0 = g0 + ph1
        self.c0 = c1

        # heads [h0, h1) that dispatch later than the previous head and
        # than the width allows: only these can wait on the front end or
        # be blocked, so only their fetch cycles are read
        Dk = D[ph0:ph1]
        Dp = D[ph0 - 1:ph1 - 1]
        dispatches = Dk > Dp  #: the head opens a new dispatch cycle
        dl = np.flatnonzero(dispatches
                            & (Dk > D[ph0 - width:ph1 - width] + 1))
        head = ph0 + dl
        Dk, Dp = Dk[dl], Dp[dl]
        ready = _gather(F, head) + cfg.pipeline_depth
        lo = np.maximum(np.maximum(Dp, ready), D[head - width] + 1)
        # dispatch is blocked from lo on; the window is full below the
        # S-th largest issue cycle among the rob_size instructions
        # before the head, which the loop's heap made D unless the ROB
        # bound too
        w_end = Dk.copy()
        amb = np.flatnonzero((Dk > lo) & (_gather(R, head - rob) >= Dk))
        if len(amb):
            rows = sliding_window_view(I, rob)[head[amb] - rob]
            size = cfg.window_size
            w_end[amb] = np.minimum(
                np.partition(rows, rob - size, axis=1)[:, rob - size],
                Dk[amb])

        mb = np.flatnonzero(misp)
        lj = np.flatnonzero(long)
        mb_i = mb[(I[mb] >= c0) & (I[mb] < c1)]
        lj_i = lj[(I[lj] >= c0) & (I[lj] < c1)]
        lj_i = lj_i[np.lexsort((lj_i, I[lj_i]))]
        if self.instrument:
            w = np.maximum(w_end, lo)
            self.stall_window += int((w - lo).sum())
            self.stall_rob += int((Dk - w).sum())
            cyc = np.sort(I[(I >= c0) & (I < c1)])
            if len(cyc):
                runs = np.diff(np.flatnonzero(np.diff(cyc, prepend=-1,
                                                      append=-1)))
                self.issued += np.bincount(runs, minlength=width + 1)
            # nothing younger than a mispredicted branch is in the window
            # when it issues
            self.window_left += (
                sliding_window_view(I, rob)[mb_i - rob] > I[mb_i, None]
            ).sum(axis=1).tolist()
            self.rob_ahead += [k - bisect_right(R, t) for k, t in
                               zip(lj_i.tolist(), I[lj_i].tolist())]
        if self.tele is None:
            return

        # ---- stall classes, as segments (start, length, class) ----------
        a = Dp + 1
        front_end = np.minimum(np.maximum(ready, a), Dk)
        # head ready, dispatch blocked: window full, then ROB full, the
        # ROB head's outstanding long miss first
        st = np.flatnonzero(Dk > front_end)
        s_lo, s_hi = front_end[st], Dk[st]
        w = np.clip(w_end[st], s_lo, s_hi)
        rob_head = head[st] - rob
        x = np.where(long[rob_head], np.clip(C[rob_head], w, s_hi), w)
        # head not ready: front-end cycles
        fr = np.flatnonzero(front_end > a)
        fa, fe = a[fr], front_end[fr]
        if final:
            fa = np.append(fa, D[-1] + 1)
            fe = np.append(fe, c1)
        sf = np.flatnonzero(stall)
        fill = _gather(F, sf) - stall[sf]  #: the cycle fetch met the miss
        # the ROB head is an outstanding long miss from when it becomes
        # the head, dispatched, until it completes
        lh = lj[lj > 0]
        pts, ends, cls = self._front(
            fa, fe, (_gather(F, mb) + 1, C[mb] + 1),
            (np.maximum(_gather(R, lh - 1), D[lh]), C[lh]),
            fill, np.where(stall[sf] >= cfg.hierarchy.memory_latency,
                           CLS_ICACHE_L2, CLS_ICACHE_L1))
        sf_i = (fill >= c0) & (fill < c1)
        if self.inline:
            counts = self.tele.counts
            counts[CLS_BASE] += int(np.count_nonzero(dispatches))
            counts[CLS_WINDOW_FULL] += int((w - s_lo).sum())
            counts[CLS_DCACHE_LONG] += int((x - w).sum())
            counts[CLS_ROB_FULL] += int((s_hi - x).sum())
            for c, cycles in enumerate(np.bincount(
                    cls, weights=ends - pts, minlength=len(counts))):
                counts[c] += int(cycles)
        else:
            base = D[ph0:ph1][dispatches]
            seg_start = np.concatenate((base, s_lo, w, x, pts))
            seg_len = np.concatenate((np.ones(len(base), np.int64), w - s_lo,
                                      x - w, s_hi - x, ends - pts))
            seg_cls = np.concatenate((
                np.repeat([CLS_BASE, CLS_WINDOW_FULL, CLS_DCACHE_LONG,
                           CLS_ROB_FULL], [len(base)] + [len(st)] * 3),
                cls))
            mb_c = mb[(C[mb] >= c0) & (C[mb] < c1)]
            self._replay(seg_start, seg_len, seg_cls, g0, F, lat, stall,
                         (lj_i, I[lj_i]), (mb_i, I[mb_i]), (mb_c, C[mb_c]),
                         (sf[sf_i], fill[sf_i]))
        if self.rec is not None:
            self._timeline(c0, c1, final, D, R, I,
                           (I[mb_i], fill[sf_i], I[lj_i]))

    @staticmethod
    def _front(fa, fe, branch, long_head, fill, fill_cls):
        """Segments of the front-end ranges ``[fa, fe)``: a wait for a
        mispredicted branch (``branch``, sorted disjoint ``(lo, hi)``
        intervals), else the ROB head's outstanding long miss
        (``long_head``, likewise), else the class of the last I-cache
        ``fill`` since the dispatch before the range (:data:`CLS_BASE` if
        none)."""
        br_lo, br_hi = branch
        lh_lo, lh_hi = long_head
        # a repeated point starts an empty segment
        pts = np.sort(np.concatenate((fa, br_lo, br_hi, lh_lo, lh_hi,
                                      fill + 1)))
        r = np.searchsorted(fa, pts, side="right") - 1
        keep = r >= 0
        keep[keep] = pts[keep] < fe[r[keep]]
        pts, r = pts[keep], r[keep]
        ends = fe[r]
        same = r[1:] == r[:-1]
        ends[:-1][same] = pts[1:][same]

        def within(lo_, hi_):
            j = np.searchsorted(lo_, pts, side="right") - 1
            inside = j >= 0
            inside[inside] = pts[inside] < hi_[j[inside]]
            return inside

        j = np.searchsorted(fill, pts - 1, side="right") - 1
        cause = np.full(len(pts), CLS_BASE)
        hit = j >= 0
        hit[hit] = fill[j[hit]] >= fa[r[hit]] - 1
        cause[hit] = fill_cls[j[hit]]
        cause[within(lh_lo, lh_hi)] = CLS_DCACHE_LONG
        cause[within(br_lo, br_hi)] = CLS_BRANCH
        return pts, ends, cause

    def _replay(self, seg_start, seg_len, seg_cls, g0, F, lat, stall,
                long_issue, misp_issue, redirect, fill):
        """Call the session's charge and event-marker methods in the
        reference loop's order: by cycle, issue-phase marks oldest
        first, then the cycle's charge, then fetch-phase marks (a
        redirect and an I-cache fill never share a cycle).  Each mark is
        a pair of position and cycle arrays."""
        tele = self.tele
        mem_lat = self.cfg.hierarchy.memory_latency
        live = seg_len > 0
        charge = (np.flatnonzero(live), seg_start[live])
        marks = (long_issue, misp_issue, charge, redirect, fill)
        sizes = [len(pos) for pos, _ in marks]
        arg = np.concatenate([pos for pos, _ in marks])
        cycle = np.concatenate([at for _, at in marks])
        phase = np.repeat([0, 0, 1, 2, 2], sizes)
        kind = np.repeat(np.arange(5), sizes)
        order = np.lexsort((arg, phase, cycle))
        lat, stall, seg_len, seg_cls = (
            x.tolist() for x in (lat, stall, seg_len, seg_cls))
        for t, kd, k in zip(cycle[order].tolist(), kind[order].tolist(),
                            arg[order].tolist()):
            if kd == 2:
                tele.charge(seg_cls[k], t, seg_len[k])
            elif kd == 0:
                tele.mark_long_miss(t, g0 + k, lat[k])
            elif kd == 1:
                tele.mark_mispredict(t, g0 + k)
            elif kd == 3:
                tele.mark_branch_redirect(t, g0 + k, F[k])
            else:
                tele.mark_icache_stall(t, g0 + k, stall[k],
                                       stall[k] >= mem_lat)

    def _timeline(self, c0, c1, final, D, R, I, events) -> None:
        """Add ``[c0, c1)`` to the timeline, one
        :meth:`~repro.telemetry.timeline.TimelineRecorder.add_interval`
        per base interval it completes.

        Occupancy at the end of cycle ``t`` counts the instructions with
        ``D <= t`` less those with ``R <= t`` (ROB) or ``I <= t``
        (window), so its sum over the cycles below ``y`` is
        ``sum(max(0, y - X))`` over each column ``X``.  The sums run
        over the whole table: an instruction before ``c0`` adds the same
        to ``D``'s sum as to the others'.  ``I`` is not sorted, but every
        ``I < y`` belongs to one of the ``cd`` instructions dispatched
        before ``y``, and those of them with ``I >= y`` are in the ROB,
        so within the last ``rob_size`` of them.
        """
        rec = self.rec
        iv = rec.base_interval
        pts = np.concatenate(([c0], np.arange((c0 // iv + 1) * iv, c1, iv),
                              [c1]))

        def below(x, c):  # sum(max(0, y - x[j])) over j < c, per point y
            # x[:c] sums by segments between the points, in one pass
            cuts = np.concatenate(([0], c))
            part = np.add.reduceat(np.append(x, 0), cuts)[:-1]
            part[cuts[:-1] == cuts[1:]] = 0
            return c * pts - np.cumsum(part)

        cd = np.searchsorted(D, pts)
        cr = [bisect_left(R, y) for y in pts.tolist()]
        r_sum = np.cumsum([sum(R[i:j]) for i, j in zip([0] + cr, cr)])
        rows = sliding_window_view(I, self.cfg.rob_size)[
            cd - self.cfg.rob_size] - pts[:, None]
        late = np.where(rows > 0, rows, 0).sum(axis=1)
        d_sum = below(D, cd)
        sums = [np.diff(cr), np.diff(d_sum - cr * pts + r_sum),
                np.diff(d_sum - below(I, cd) - late)]
        if self.inline:
            sums += [np.diff(np.searchsorted(e, pts)) for e in events]
        tl = self.tl
        cut = pts[1:].tolist()
        for j, row in enumerate(zip(*(s.tolist() for s in sums))):
            for f, v in enumerate(row):
                tl[f] += v
            if cut[j] % iv == 0 or (final and j == len(cut) - 1):
                rec.add_interval(self.tl_start, *tl)
                self.tl_start = cut[j]
                tl[:] = [0] * 6


def simulate_stream(
    stream,
    config: MachineSpec | None = None,
    instrument: bool = False,
    warmup_passes: int = 1,
    telemetry=None,
    warm=None,
) -> SimResult:
    """Detailed simulation of a chunk stream, end to end, in O(chunk).

    Runs the streaming functional pass (warm-up + recording, carrying
    cache/predictor state across chunks) and feeds the annotated chunks
    straight into :func:`run_fast_stream` — no trace, annotation array,
    or dependence table is ever materialized whole.  Bit-identical to
    ``DetailedSimulator.run`` on the materialized trace.  ``warm``, a
    :class:`~repro.frontend.streaming.WarmState` of the same trace and
    memory side, replaces the warm-up passes (and is stepped in place).
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
    feed = collector.iter_annotated(stream, annotate=True, warm=warm)
    with _spans.span("sim.stream.engine", workload=stream.name,
                     instructions=n):
        result = run_fast_stream(feed, n, cfg, name=stream.name,
                                 instrument=instrument, telemetry=tele)
    if tele is not None:
        with _spans.span("telemetry.finish", workload=stream.name):
            tele.finish(stream.name, result.instructions, result.cycles)
    return result
