"""Steady-state performance (paper §3 / §5 step 1).

Builds the machine-specific IW characteristic for a workload: measure the
unit-latency IW curve by idealized trace simulation, fit the power law,
apply the Little's-law correction with the workload's effective mean
latency (short data-cache misses folded in), and clamp at the issue
width.  The steady-state CPI is then the reciprocal of the issue rate at
the machine's window size.  The unit-latency curve depends on the trace
alone, so it is measured and fitted once per trace (:func:`unit_iw_curve`,
:func:`unit_iw_fit`) and shared by every machine evaluated on it.
"""

from __future__ import annotations

from repro.config import MachineSpec
from repro.frontend.events import MissEventProfile
from repro.trace.trace import Trace
from repro.window.characteristic import IWCharacteristic
from repro.window.iw_simulator import DEFAULT_WINDOW_SIZES, IWCurve
from repro.window.iw_simulator import measure_iw_curve
from repro.window.powerlaw import PowerLawFit, fit_curve


def unit_iw_curve(
    trace: Trace, window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES
) -> IWCurve:
    """The unit-latency IW curve of ``trace``, memoized on the trace.

    A miss calls this module's ``measure_iw_curve``, so a wrapper
    installed on that name counts every real measurement."""
    window_sizes = tuple(window_sizes)
    return trace.memo(("iw_curve", window_sizes),
                      lambda: measure_iw_curve(trace, window_sizes))


def unit_iw_fit(
    trace: Trace, window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES
) -> PowerLawFit:
    """The power-law fit of :func:`unit_iw_curve`, memoized on the trace.

    A miss calls this module's ``fit_curve``, so a wrapper installed on
    that name counts every real fit."""
    window_sizes = tuple(window_sizes)
    return trace.memo(("iw_fit", window_sizes),
                      lambda: fit_curve(unit_iw_curve(trace, window_sizes)))


def build_characteristic(
    trace: Trace,
    config: MachineSpec,
    profile: MissEventProfile | None = None,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
) -> IWCharacteristic:
    """Measure and fit the IW characteristic of ``trace`` for ``config``.

    ``profile`` supplies the short-miss statistics for the effective mean
    latency; without it the static mix latency is used (no short-miss
    correction).
    """
    fit = unit_iw_fit(trace, window_sizes)
    if profile is not None:
        latency = profile.effective_mean_latency(
            config.latency_table, config.hierarchy.l2_latency
        )
    else:
        from repro.trace.analysis import analyze_trace

        latency = analyze_trace(trace, config.latency_table).mean_latency
    return IWCharacteristic.from_fit(
        fit, latency=latency, issue_width=config.width
    )


def steady_state_ipc(
    characteristic: IWCharacteristic, config: MachineSpec
) -> float:
    """Sustained no-miss-event IPC at the machine's window size."""
    return characteristic.steady_state_ipc(config.window_size)


def steady_state_cpi(
    characteristic: IWCharacteristic, config: MachineSpec
) -> float:
    """CPI_steadystate of Eq. 1."""
    return characteristic.steady_state_cpi(config.window_size)
