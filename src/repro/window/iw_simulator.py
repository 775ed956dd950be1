"""Idealized issue-window simulation (paper §3).

The IW characteristic is measured exactly as the paper prescribes:
"perform idealized (no miss-events) trace-driven simulations with an
unlimited number of unit-latency functional units and unbounded issue
width.  The only thing that is limited is the issue window size."

Two simulators live here:

* :func:`simulate_unbounded_issue` — unbounded issue width.  Uses an
  incremental formulation instead of a cycle loop: with in-order dispatch,
  unbounded width and greedy (as-soon-as-ready) issue, instruction *k*
  dispatches one cycle after the W-th-largest issue time among its
  predecessors (that is when the window again holds fewer than W
  unissued instructions), and issues at
  ``max(dispatch_time, ready_time)``.  A size-W min-heap of the largest
  issue times makes the whole trace O(N log W).

* :class:`LimitedWidthIWSimulator` — per-cycle simulation with a maximum
  issue width and oldest-first priority, used for Figure 6 (the curves
  that follow the ideal power law and then saturate at the width limit).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.isa.latency import LatencyTable
from repro.trace.trace import Trace


@dataclass(frozen=True)
class IWPoint:
    """One measured point of the IW characteristic."""

    window_size: int
    ipc: float
    cycles: int
    instructions: int


def simulate_unbounded_issue(
    trace: Trace,
    window_size: int,
    latency_table: LatencyTable | None = None,
) -> IWPoint:
    """Issue rate with window ``window_size``, unbounded issue width and
    unbounded functional units.

    ``latency_table`` defaults to all-unit latencies (the
    implementation-independent curves of paper Figure 4); passing real
    latencies yields the non-unit-latency curve directly, which is used
    to validate the Little's-law correction ``I_L = I_1 / L``.
    """
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    table = latency_table or LatencyTable.unit()
    lat = trace.latencies(table).tolist()
    deps = trace.dependences()
    dep1 = deps.dep1.tolist()
    dep2 = deps.dep2.tolist()

    # done[k]: cycle at which k's result is available; the extra last
    # slot stays 0, so an absent producer (index -1) reads "ready at 0"
    done = [0] * (n + 1)
    # min-heap of the `window_size` largest issue times, pre-filled with
    # -1: while a sentinel is on top the window has room (dispatch at 0);
    # issue is never before dispatch, one past the top, so t replaces it
    heap = [-1] * min(window_size, n)
    replace = heapq.heapreplace
    for k in range(n):
        t = heap[0] + 1
        ready = done[dep1[k]]
        if ready > t:
            t = ready
        ready = done[dep2[k]]
        if ready > t:
            t = ready
        done[k] = t + lat[k]
        replace(heap, t)

    cycles = max(heap) + 1
    return IWPoint(
        window_size=window_size, ipc=n / cycles, cycles=cycles, instructions=n
    )


class LimitedWidthIWSimulator:
    """Per-cycle idealized simulator with a maximum issue width.

    Oldest-first priority, unbounded functional units, no miss-events,
    in-order dispatch refilling the window each cycle.  This reproduces
    the Figure 6 behaviour: the curve follows the unbounded-width power
    law until the issue rate saturates at the width limit.
    """

    def __init__(
        self,
        window_size: int,
        issue_width: int | None = None,
        latency_table: LatencyTable | None = None,
    ):
        if window_size < 1:
            raise ValueError("window size must be >= 1")
        if issue_width is not None and issue_width < 1:
            raise ValueError("issue width must be >= 1")
        self.window_size = window_size
        self.issue_width = issue_width
        self.latency_table = latency_table or LatencyTable.unit()

    def run(self, trace: Trace) -> IWPoint:
        n = len(trace)
        if n == 0:
            raise ValueError("empty trace")
        lat = trace.latencies(self.latency_table).tolist()
        deps = trace.dependences()
        dep1 = deps.dep1.tolist()
        dep2 = deps.dep2.tolist()
        width = self.issue_width if self.issue_width is not None else n

        #: cycle at which each result is available; "not yet issued" must
        #: read as never-ready, hence the +inf sentinel
        inf = float("inf")
        complete = [inf] * n
        window: list[int] = []    # dispatched, un-issued, oldest first
        next_dispatch = 0
        issued_total = 0
        cycle = 0
        while issued_total < n:
            # dispatch up to the free space (unbounded dispatch width in
            # the idealized machine)
            space = self.window_size - len(window)
            while space > 0 and next_dispatch < n:
                window.append(next_dispatch)
                next_dispatch += 1
                space -= 1
            # oldest-first issue of ready instructions
            issued_now = 0
            remaining: list[int] = []
            for k in window:
                if issued_now >= width:
                    remaining.append(k)
                    continue
                d1, d2 = dep1[k], dep2[k]
                if (d1 < 0 or complete[d1] <= cycle) and (
                    d2 < 0 or complete[d2] <= cycle
                ):
                    complete[k] = cycle + lat[k]
                    issued_now += 1
                    issued_total += 1
                else:
                    remaining.append(k)
            window = remaining
            cycle += 1
        return IWPoint(
            window_size=self.window_size, ipc=n / cycle, cycles=cycle,
            instructions=n,
        )


#: default window sizes for measuring IW curves (powers of two, log-log fit)
DEFAULT_WINDOW_SIZES = (2, 4, 8, 16, 32, 64, 128)


def measure_iw_curve(
    trace: Trace,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    latency_table: LatencyTable | None = None,
    issue_width: int | None = None,
) -> "IWCurve":
    """Measure IW points for each window size.

    With ``issue_width=None`` the fast unbounded-width formulation is
    used; otherwise the per-cycle limited-width simulator.
    """
    points = []
    for w in window_sizes:
        if issue_width is None:
            points.append(simulate_unbounded_issue(trace, w, latency_table))
        else:
            sim = LimitedWidthIWSimulator(w, issue_width, latency_table)
            points.append(sim.run(trace))
    return IWCurve(name=trace.name, points=tuple(points))


@dataclass(frozen=True)
class IWCurve:
    """A measured IW characteristic: IPC as a function of window size."""

    name: str
    points: tuple[IWPoint, ...]

    @property
    def window_sizes(self) -> np.ndarray:
        return np.array([p.window_size for p in self.points], dtype=float)

    @property
    def ipcs(self) -> np.ndarray:
        return np.array([p.ipc for p in self.points], dtype=float)

    def ipc_at(self, window_size: int) -> float:
        for p in self.points:
            if p.window_size == window_size:
                return p.ipc
        raise KeyError(f"window size {window_size} was not measured")
