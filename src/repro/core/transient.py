"""Transient machinery: window drain and issue ramp-up on the IW curve.

The penalties of paper §4 are built from two primitives, both walks along
the IW characteristic (the paper generated them "using Excel", Figure 8):

* **Drain** — fetch has stopped; each cycle the window issues
  ``I(W)`` instructions and shrinks, so the issue rate slides down the
  curve until the window is empty.  The *drain penalty* is the extra time
  this takes compared with issuing the same instructions at the
  steady-state rate.

* **Ramp-up** — the window starts (nearly) empty and dispatch refills it
  at the machine width *i* while issue drains it at ``I(W)`` — the
  "leaky bucket".  Occupancy rises until the issue rate reaches steady
  state; the *ramp-up penalty* is the instruction deficit accumulated on
  the way, expressed in steady-state cycles.

A useful identity: each ramp cycle loses ``i - I(W_t)`` instructions and
gains exactly that many window occupants, so the total deficit equals the
occupancy change ``W_ss - W_start`` and the ramp penalty is approximately
``(W_ss - W_start) / i`` — handy for sanity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.window.characteristic import IWCharacteristic

#: window occupancy below which the window counts as drained (the last
#: fraction of an instruction is the mispredicted branch itself)
_DRAIN_FLOOR = 1.0

#: ramp-up is complete once the issue rate reaches this fraction of the
#: steady-state rate (exact convergence is asymptotic off-saturation)
_RAMP_FRACTION = 0.99

#: hard iteration cap; transients of any sane machine are far shorter
_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class DrainResult:
    """Outcome of a window drain.

    Attributes:
        cycles: cycles from fetch stop until the window is drained (the
            mispredicted branch issues on the last of these).
        instructions: useful instructions issued while draining.
        penalty: extra cycles versus issuing the same instructions at the
            steady-state rate — the paper's ``win_drain``.
        rates: per-cycle issue rates (the falling edge of Figure 7/8).
        final_window: occupancy left when the drain stopped.
    """

    cycles: int
    instructions: float
    penalty: float
    rates: tuple[float, ...]
    final_window: float


@dataclass(frozen=True)
class RampResult:
    """Outcome of an issue ramp-up.

    Attributes:
        cycles: cycles from first dispatch until the issue rate reaches
            steady state.
        penalty: instruction deficit in steady-state cycles — the paper's
            ``ramp_up``.
        rates: per-cycle issue rates (the rising edge of Figure 7/8).
        final_window: occupancy when the ramp was declared complete.
    """

    cycles: int
    penalty: float
    rates: tuple[float, ...]
    final_window: float


def _rate_terms(
    characteristic: IWCharacteristic,
) -> tuple[float, float, float, float]:
    """``(alpha, beta, latency, cap)`` for walking the curve without a
    call per cycle.

    Each walk cycle repeats :meth:`IWCharacteristic.issue_rate` float for
    float — ``alpha * w ** beta / latency``, then the clamp to ``cap`` —
    and spells each ``min(a, b)`` as "``a`` unless ``b < a``", so every
    rate is bit-identical to the method's.  An unbounded width caps at
    infinity, which never clamps.
    """
    c = characteristic
    cap = math.inf if c.issue_width is None else float(c.issue_width)
    return c.alpha, c.beta, c.latency, cap


def steady_state_occupancy(
    characteristic: IWCharacteristic, window_size: int
) -> float:
    """Window occupancy at the steady-state operating point.

    On the saturated part of the curve the machine only needs the
    occupancy at which the curve reaches the width limit; off saturation
    the whole window is needed.  (The physical occupancy cannot exceed
    the window size either way.)
    """
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    sat = characteristic.saturation_window()
    return min(float(window_size), sat)


def drain_transient(
    characteristic: IWCharacteristic,
    start_window: float,
) -> DrainResult:
    """Walk the window down the IW curve until it is empty.

    ``start_window`` is the occupancy when fetch stops (usually
    :func:`steady_state_occupancy`).
    """
    if start_window <= 0:
        raise ValueError("start window must be positive")
    steady_rate = characteristic.issue_rate(start_window)
    alpha, beta, latency, cap = _rate_terms(characteristic)
    w = float(start_window)
    rates: list[float] = []
    issued = 0.0
    cycles = 0
    while w >= _DRAIN_FLOOR and cycles < _MAX_CYCLES:
        rate = alpha * w ** beta / latency  # w >= 1: the curve is positive
        if cap < rate:
            rate = cap
        if w < rate:
            rate = w
        rates.append(rate)
        issued += rate
        w -= rate
        cycles += 1
    penalty = cycles - issued / steady_rate
    return DrainResult(
        cycles=cycles,
        instructions=issued,
        penalty=penalty,
        rates=tuple(rates),
        final_window=w,
    )


def ramp_transient(
    characteristic: IWCharacteristic,
    dispatch_width: int,
    window_size: int,
    start_window: float = 0.0,
) -> RampResult:
    """Fill the leaky bucket: dispatch at ``dispatch_width`` per cycle,
    issue at ``I(W)``, until the issue rate reaches steady state.

    The steady-state rate is evaluated at
    :func:`steady_state_occupancy`; the ramp is complete when the issue
    rate reaches ``_RAMP_FRACTION`` of it (or the window fills).  Raises
    :class:`ValueError` when neither happens within ``_MAX_CYCLES``
    cycles, as when the dispatch width is below the steady-state rate.
    """
    if dispatch_width < 1:
        raise ValueError("dispatch width must be >= 1")
    w_ss = steady_state_occupancy(characteristic, window_size)
    steady_rate = characteristic.issue_rate(w_ss)
    target = _RAMP_FRACTION * steady_rate

    alpha, beta, latency, cap = _rate_terms(characteristic)
    full = float(window_size)
    w = float(start_window)
    rates: list[float] = []
    deficit = 0.0
    cycles = 0
    while cycles < _MAX_CYCLES:
        # dispatch this cycle's group, then issue from the enlarged window
        w = w + dispatch_width
        if full < w:
            w = full
        rate = alpha * w ** beta / latency if w > 0 else 0.0
        if cap < rate:
            rate = cap
        if w < rate:
            rate = w
        rates.append(rate)
        deficit += steady_rate - rate
        w -= rate
        cycles += 1
        if rate >= target or w >= window_size:
            break
    else:
        raise ValueError(
            f"ramp-up never completes: after {_MAX_CYCLES} cycles the issue "
            f"rate is {rate:.4g}, below {_RAMP_FRACTION:.0%} of the "
            f"steady-state rate {steady_rate:.4g} (dispatch width "
            f"{dispatch_width})")
    penalty = deficit / steady_rate
    return RampResult(
        cycles=cycles,
        penalty=penalty,
        rates=tuple(rates),
        final_window=w,
    )


@dataclass(frozen=True)
class BranchTransient:
    """The full Figure-8 transient for an isolated branch misprediction:
    drain, pipeline refill (ΔP dead cycles), then ramp-up."""

    drain: DrainResult
    pipeline_depth: int
    ramp: RampResult

    @property
    def total_penalty(self) -> float:
        """Eq. 2: win_drain + ΔP + ramp_up."""
        return self.drain.penalty + self.pipeline_depth + self.ramp.penalty

    def issue_rate_timeline(self) -> tuple[float, ...]:
        """Per-cycle issue rates across the whole transient: falling
        drain edge, ΔP cycles of silence, rising ramp edge (Figure 8)."""
        return (
            self.drain.rates
            + (0.0,) * self.pipeline_depth
            + self.ramp.rates
        )


def branch_transient(
    characteristic: IWCharacteristic,
    pipeline_depth: int,
    dispatch_width: int,
    window_size: int,
) -> BranchTransient:
    """Compute the isolated-branch-misprediction transient of Figure 8."""
    if pipeline_depth < 1:
        raise ValueError("pipeline depth must be >= 1")
    w0 = steady_state_occupancy(characteristic, window_size)
    drain = drain_transient(characteristic, w0)
    ramp = ramp_transient(characteristic, dispatch_width, window_size)
    return BranchTransient(drain=drain, pipeline_depth=pipeline_depth,
                           ramp=ramp)
