"""Experiment execution engine: artifact cache and parallel runner.

The experiments re-derive the same expensive intermediates over and over
— synthetic traces, functional-pass miss-event annotations, detailed
simulation results.  This package makes the sweep layer fast and
restartable:

* :mod:`repro.runner.artifacts` — a persistent, content-addressed
  on-disk cache for those intermediates, keyed by the full recipe
  (benchmark, length, seed, configuration) so a stale entry can never be
  returned for a changed configuration.
* :mod:`repro.runner.pool` — a work-unit runner that fans
  (benchmark × configuration) simulations out over a process pool, with
  a serial fallback, and reports cache effectiveness per run.
"""

from repro.runner.artifacts import (
    CacheStats,
    annotations_artifact,
    artifact_key,
    cache_enabled,
    cache_root,
    cache_stats,
    cached_artifact,
    probe_artifact,
    reset_cache_stats,
    store_artifact,
    trace_artifact,
)
from repro.runner.pool import (
    RunInterrupted,
    RunnerStats,
    UnitResult,
    WorkUnit,
    default_jobs,
    execute_spec,
    execute_unit,
    run_units,
    set_default_jobs,
)

__all__ = [
    "CacheStats",
    "RunInterrupted",
    "RunnerStats",
    "UnitResult",
    "WorkUnit",
    "annotations_artifact",
    "artifact_key",
    "cache_enabled",
    "cache_root",
    "cache_stats",
    "cached_artifact",
    "default_jobs",
    "execute_spec",
    "execute_unit",
    "probe_artifact",
    "reset_cache_stats",
    "run_units",
    "set_default_jobs",
    "store_artifact",
    "trace_artifact",
]
