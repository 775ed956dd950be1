"""Observability for the reproduction: measurement, not assertion.

The paper's central claim — miss-event penalties independently add — is
rendered by the model as a CPI stack but was never *measured* from the
detailed simulation.  This package turns every run into an explorable
artifact:

* :mod:`repro.telemetry.accountant` — per-cycle stall attribution in
  both simulator engines, producing a measured
  :class:`~repro.telemetry.accountant.MeasuredCPIStack` whose components
  sum to the simulated CPI exactly;
* :mod:`repro.telemetry.timeline` — interval IPC/occupancy/miss-rate
  series with ASCII sparkline rendering (``repro timeline``);
* :mod:`repro.telemetry.rollup` — the fixed-memory hierarchical rollup
  recorder that keeps streamed timelines to ``O(log n)`` rows;
* :mod:`repro.telemetry.events` — structured JSONL and Chrome
  ``trace_event`` traces for ``chrome://tracing`` / Perfetto, with
  deterministic sampling;
* :mod:`repro.telemetry.metrics` — the process-wide
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges
  and histograms behind ``repro stats``;
* :mod:`repro.telemetry.manifest` — ``run_manifest.json`` provenance
  records next to experiment outputs;
* :mod:`repro.telemetry.session` — the per-run
  :class:`~repro.telemetry.session.Telemetry` object the engines report
  into, shaped by a :class:`repro.spec.TelemetrySpec`.

Telemetry is opt-in and zero-cost when off: without a session attached
the engines skip every collection site, and with one attached they only
read machine state — simulation results are bit-identical either way.
"""

from repro.telemetry.accountant import (
    CLS_BASE,
    CLS_BRANCH,
    CLS_DCACHE_LONG,
    CLS_ICACHE_L1,
    CLS_ICACHE_L2,
    CLS_ROB_FULL,
    CLS_WINDOW_FULL,
    STALL_CLASSES,
    MeasuredCPIStack,
    render_side_by_side,
)
from repro.telemetry.events import EventTrace, merge_traces, read_jsonl
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_describe,
    write_manifest,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_registry,
    reset_metrics,
)
from repro.telemetry.session import Telemetry, TelemetryReport
from repro.telemetry.rollup import RollupTimelineRecorder
from repro.telemetry.timeline import IntervalTimeline, TimelineRecorder

__all__ = [
    "CLS_BASE",
    "CLS_BRANCH",
    "CLS_DCACHE_LONG",
    "CLS_ICACHE_L1",
    "CLS_ICACHE_L2",
    "CLS_ROB_FULL",
    "CLS_WINDOW_FULL",
    "STALL_CLASSES",
    "MeasuredCPIStack",
    "render_side_by_side",
    "EventTrace",
    "merge_traces",
    "read_jsonl",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "git_describe",
    "write_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_registry",
    "reset_metrics",
    "Telemetry",
    "TelemetryReport",
    "IntervalTimeline",
    "RollupTimelineRecorder",
    "TimelineRecorder",
]
