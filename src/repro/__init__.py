"""repro — A First-Order Superscalar Processor Model.

Reproduction of Karkhanis & Smith (ISCA 2004): an analytical CPI model
for out-of-order superscalar processors built from the IW (issue-rate vs
window-size) characteristic and closed-form transient penalties for
branch mispredictions, instruction-cache misses and long data-cache
misses, validated against a detailed cycle-level reference simulator.

Quickstart::

    from repro import FirstOrderModel, generate_trace, simulate, BASELINE

    trace = generate_trace("gzip")
    report = FirstOrderModel(BASELINE).evaluate_trace(trace)
    reference = simulate(trace, BASELINE)
    print(report.cpi, reference.cpi)
"""

from repro.config import BASELINE, MachineSpec
from repro.core import (
    FirstOrderModel,
    ModelReport,
    BurstPolicy,
    CPIStack,
    build_characteristic,
)
from repro.frontend import (
    MissEventProfile,
    MissEventCollector,
    CollectorConfig,
    collect_events,
)
from repro.simulator import DetailedSimulator, SimResult, simulate
from repro.telemetry import (
    MeasuredCPIStack,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    TelemetryReport,
    metrics_registry,
    telemetry_enabled,
)
from repro.trace import (
    Trace,
    BenchmarkProfile,
    SPECINT2000,
    BENCHMARK_ORDER,
    get_profile,
    generate_trace,
    SyntheticTraceGenerator,
)
from repro.window import IWCharacteristic, measure_iw_curve, fit_curve

__version__ = "1.0.0"

__all__ = [
    "MachineSpec",
    "BASELINE",
    "FirstOrderModel",
    "ModelReport",
    "BurstPolicy",
    "CPIStack",
    "build_characteristic",
    "MissEventProfile",
    "MissEventCollector",
    "CollectorConfig",
    "collect_events",
    "DetailedSimulator",
    "SimResult",
    "simulate",
    "MeasuredCPIStack",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryReport",
    "metrics_registry",
    "telemetry_enabled",
    "Trace",
    "BenchmarkProfile",
    "SPECINT2000",
    "BENCHMARK_ORDER",
    "get_profile",
    "generate_trace",
    "SyntheticTraceGenerator",
    "IWCharacteristic",
    "measure_iw_curve",
    "fit_curve",
    "__version__",
]
