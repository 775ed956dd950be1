"""Host-speed calibration: timing that a shared host's drift cancels out of.

On a shared host the speed of one core drifts by a quarter or more over
seconds, as other tenants load the hardware it shares.  Wall time and CPU
time drift together, so neither CPU time nor a minimum over samples
removes it, and a run of a few seconds cannot average it away.

:class:`HostClock` therefore runs a fixed pure-Python loop right before
and right after every timed call and scales the call's time by the
loop's: a call that took ``t`` seconds while one round of the loop took
``c`` seconds on average on its two sides reports
``t * REFERENCE_S / c``, its time on a host where a round takes
:data:`REFERENCE_S`.  The loop runs no code of the repository, so a
change to the program moves the scaled time as it moves the raw one;
only the host's drift cancels.  Each side of a call calibrates for
:data:`SHARE` of the call's previous duration, so the host speed is
sampled in proportion to the time it has to describe.
"""

from __future__ import annotations

import time

#: seconds one calibration round takes on the reference host (a 2-vCPU
#: Linux VM, Python 3.11, about the median of 3000 rounds); scaled times
#: read as times on that host
REFERENCE_S = 1.0e-3
#: calibration time on each side of a call, as a share of its duration
SHARE = 0.03
#: calibration time before the first call, whose duration is unknown
FIRST_S = 0.02


def _round() -> int:
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return total


class HostClock:
    """Times calls and scales them to the reference host's speed.

    The calibration after one call is the calibration before the next,
    so consecutive calls share it; :meth:`time` calibrates anew only
    before the first call.
    """

    def __init__(self):
        #: seconds per round of the latest calibration, if still fresh
        self._round_s: float | None = None

    def calibrate(self, seconds: float) -> float:
        """Run the loop for about ``seconds``; return seconds per round."""
        rounds = max(1, round(seconds / REFERENCE_S))
        t0 = time.perf_counter()
        for _ in range(rounds):
            _round()
        self._round_s = (time.perf_counter() - t0) / rounds
        return self._round_s

    def time(self, call, expected_s: float | None = None):
        """Run ``call()``; return ``(result, raw seconds, scaled seconds)``.

        ``expected_s`` is the call's previous duration, which sizes the
        calibration before it when there is no fresh one.  An exception
        from ``call`` propagates; the next call then calibrates anew.
        """
        before = self._round_s
        if before is None:
            before = self.calibrate(SHARE * expected_s if expected_s
                                    else FIRST_S)
        self._round_s = None
        t0 = time.perf_counter()
        result = call()
        raw = time.perf_counter() - t0
        after = self.calibrate(SHARE * raw)
        return result, raw, raw * REFERENCE_S / ((before + after) / 2)
