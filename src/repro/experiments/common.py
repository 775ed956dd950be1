"""Shared infrastructure for the paper-reproduction experiments.

Every module in :mod:`repro.experiments` reproduces one figure or table
of the paper.  They share trace generation (cached — several experiments
reuse the same benchmark traces), the baseline machine, and small
formatting helpers.  Each experiment returns a typed result object with
``rows()`` for tabular display and ``checks()`` returning the paper's
qualitative claims evaluated against the measured data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.config import BASELINE
from repro.runner.artifacts import trace_artifact
from repro.spec.specs import WorkloadSpec
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.trace import Trace

#: default dynamic trace length for experiments; long enough for stable
#: statistics, short enough that the full suite runs in minutes
DEFAULT_TRACE_LENGTH = 30_000


@functools.lru_cache(maxsize=64)
def _cached_trace_resolved(benchmark: str, length: int, seed: int) -> Trace:
    """The in-memory layer, keyed by the *resolved* seed only.

    Normalizing before this cache fixes the old aliasing where
    ``seed=None`` and the explicitly-passed default seed occupied two
    ``lru_cache`` slots (and two disk probes) for the same trace.
    """
    return trace_artifact(benchmark, length, seed)


def cached_trace(workload: WorkloadSpec) -> Trace:
    """The trace a :class:`~repro.spec.WorkloadSpec` names, cached twice
    over.

    The in-memory ``lru_cache`` serves repeats within a process; beneath
    it, :func:`repro.runner.artifacts.trace_artifact` persists the trace
    on disk so repeated experiment invocations (and parallel runner
    workers) skip generation entirely.  A ``seed`` of ``None`` in the
    workload resolves to the benchmark profile's deterministic default
    before either cache is consulted.
    """
    if not isinstance(workload, WorkloadSpec):
        raise TypeError(
            "cached_trace takes a repro.spec.WorkloadSpec (the positional "
            "benchmark/length/seed form was removed)"
        )
    return _cached_trace_resolved(
        workload.benchmark, workload.length, workload.resolved_seed()
    )


def workload_for(
    workload: WorkloadSpec | None,
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> WorkloadSpec:
    """The per-benchmark workload an experiment should run.

    Experiments take an optional :class:`WorkloadSpec` *template* (its
    length and seed apply to every benchmark they iterate over) plus a
    legacy ``trace_length`` scalar; this resolves one benchmark's
    effective workload from whichever the caller supplied.
    """
    if workload is not None:
        return workload.with_benchmark(benchmark)
    return WorkloadSpec(benchmark=benchmark, length=trace_length)


@dataclass(frozen=True)
class Claim:
    """One of the paper's qualitative claims, evaluated on measured data."""

    description: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        return f"[{mark}] {self.description} — {self.detail}"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) if _numeric(cell) else cell.ljust(widths[i])
                      for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def _numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("%x"))
        return True
    except ValueError:
        return False


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("empty sequence")
    return sum(values) / len(values)


__all__ = [
    "BASELINE",
    "BENCHMARK_ORDER",
    "DEFAULT_TRACE_LENGTH",
    "WorkloadSpec",
    "cached_trace",
    "workload_for",
    "Claim",
    "format_table",
    "mean",
]
