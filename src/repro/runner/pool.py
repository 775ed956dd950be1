"""Parallel experiment runner: (benchmark × configuration) work units.

Experiment sweeps are embarrassingly parallel — every point is an
independent (trace, configuration) simulation.  This module expresses a
point as a picklable :class:`WorkUnit`, fans units out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, and reports per-run
:class:`RunnerStats` including artifact-cache effectiveness, so a warm
sweep is visibly doing no trace-generation or functional-pass work.

On a single-core host (or with ``jobs=1``) the runner degrades to a
plain in-process loop with identical results and statistics — process
fan-out is an optimization, never a requirement.  Results always come
back in unit order regardless of completion order.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.config import BASELINE
from repro.obs import spans as _spans
from repro.runner import artifacts
from repro.simulator.results import SimResult
from repro.spec import env as _specenv
from repro.spec.specs import (
    EngineSpec,
    MachineSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.telemetry.metrics import metrics_registry

_log = logging.getLogger(__name__)

#: default dynamic trace length, matching the experiment suite's
#: :data:`repro.experiments.common.DEFAULT_TRACE_LENGTH`
_DEFAULT_LENGTH = 30_000

_default_jobs: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the process count used when ``run_units(jobs=None)``.

    ``None`` restores the automatic choice (the CPU count).  The CLI's
    ``--jobs`` flag lands here so experiment modules stay oblivious.
    """
    global _default_jobs
    _default_jobs = jobs


def default_jobs() -> int:
    """Resolve the effective worker count (at least 1)."""
    if _default_jobs is not None:
        return max(1, _default_jobs)
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class WorkUnit:
    """One simulation point of a sweep.

    Attributes:
        benchmark: profile name (``repro.trace.profiles``).
        machine: the machine to simulate.
        length: dynamic trace length.
        seed: trace RNG seed (``None`` = the profile's default seed).
        instrument: collect per-cycle instrumentation.
        engine: simulation engine override (``None`` = session default).
        tag: free-form label carried through to the result, so sweep
            code can recover which axis point a unit was.
        stream: run the O(chunk)-memory streaming pipeline.
        chunk_size: chunk granularity for ``stream`` units.
        obs: serialized span context (:func:`repro.obs.current_context`)
            this unit's spans re-root under; never part of the spec or
            any cache key.
    """

    benchmark: str
    machine: MachineSpec = BASELINE
    length: int = _DEFAULT_LENGTH
    seed: int | None = None
    instrument: bool = False
    engine: str | None = None
    tag: str = ""
    stream: bool = False
    chunk_size: int | None = None
    obs: dict | None = None

    @classmethod
    def from_spec(cls, spec: RunSpec, tag: str = "") -> "WorkUnit":
        """The work unit a :class:`RunSpec` describes."""
        return cls(
            benchmark=spec.workload.benchmark,
            machine=spec.machine,
            length=spec.workload.length,
            seed=spec.workload.seed,
            instrument=spec.engine.instrument,
            engine=spec.engine.engine,
            tag=tag,
            stream=spec.engine.stream,
            chunk_size=spec.engine.chunk_size,
        )

    def to_spec(self) -> RunSpec:
        """This unit as a :class:`RunSpec`."""
        return RunSpec(
            workload=WorkloadSpec(self.benchmark, self.length, self.seed),
            machine=self.machine,
            engine=EngineSpec(
                engine=self.engine if self.engine is not None else "fast",
                instrument=self.instrument,
                stream=self.stream,
                chunk_size=self.chunk_size,
            ),
        )


@dataclass(frozen=True)
class UnitResult:
    """A unit's outcome: the simulation result plus wall time."""

    unit: WorkUnit
    result: SimResult
    seconds: float


@dataclass
class RunnerStats:
    """Aggregate statistics for one :func:`run_units` call."""

    units: int = 0
    jobs: int = 1
    seconds: float = 0.0
    cache: artifacts.CacheStats = field(default_factory=artifacts.CacheStats)

    @property
    def trace_computes(self) -> int:
        """Traces actually generated (cache misses + uncached runs)."""
        return self.cache.misses.get("trace", 0)

    @property
    def annotation_computes(self) -> int:
        """Functional passes actually executed."""
        return self.cache.misses.get("annotations", 0)

    def summary(self) -> str:
        c = self.cache
        return (
            f"{self.units} units in {self.seconds:.2f}s "
            f"({self.jobs} job{'s' if self.jobs != 1 else ''}); cache "
            f"hits {c.total_hits()}, misses {c.total_misses()}, "
            f"errors {c.errors}"
        )


class RunInterrupted(RuntimeError):
    """A :func:`run_units` call did not finish: the user interrupted it
    or a worker process died.

    The partial outcome is preserved — ``completed`` holds the
    :class:`UnitResult` of every unit that finished (in input order) and
    ``pending`` the units that did not, so a sweep can be resumed by
    re-running just ``pending`` (the artifact cache makes the finished
    part nearly free either way).
    """

    def __init__(self, message: str, completed: list["UnitResult"],
                 pending: list["WorkUnit"]):
        super().__init__(
            f"{message} ({len(completed)} of "
            f"{len(completed) + len(pending)} units completed)"
        )
        self.completed = completed
        self.pending = pending


def execute_unit(unit: WorkUnit, reuse_result: bool = False) -> SimResult:
    """Run one work unit through the artifact cache.

    The trace and its annotations are fetched from (or added to) the
    persistent cache; the detailed simulation itself is re-run unless
    ``reuse_result`` is set, in which case a previously stored
    :class:`SimResult` for the identical recipe is returned directly.

    Results are keyed by :meth:`RunSpec.content_key` — the same key the
    evaluation service and in-process :func:`execute_spec` use.  The engine is excluded
    from the key on purpose: fast and reference engines are
    bit-identical (enforced by the test suite).
    """
    from repro.simulator.processor import DetailedSimulator

    if unit.stream:
        return _execute_spec_streaming(unit.to_spec(),
                                       reuse_result=reuse_result)

    trace = artifacts.trace_artifact(unit.benchmark, unit.length, unit.seed)

    def simulate() -> SimResult:
        annotations = artifacts.annotations_artifact(
            trace, unit.machine, unit.benchmark, unit.length, unit.seed
        )
        sim = DetailedSimulator(
            unit.machine, instrument=unit.instrument, engine=unit.engine
        )
        with _spans.span("sim.detailed", benchmark=unit.benchmark,
                         length=unit.length):
            return sim.run(trace, annotations)

    return _result(unit.to_spec().result_recipe(), simulate, reuse_result)


def _result(recipe: dict, compute, reuse_result: bool) -> SimResult:
    """``compute()``'s result, stored under ``recipe``'s key; served from
    the store instead when ``reuse_result`` is set and it holds one."""
    if reuse_result:
        return artifacts.cached_artifact("result", recipe, compute)
    result = compute()
    if artifacts.cache_enabled():
        artifacts._store("result", artifacts.artifact_key("result", recipe),
                         result)
    return result


def execute_spec(spec: RunSpec, reuse_result: bool = False) -> SimResult:
    """Run one :class:`RunSpec` through the artifact cache.

    The result is stored under ``spec.content_key()`` — identical to
    what the parallel runner and the evaluation service compute for the
    same spec, which is what makes "one spec, one key" hold across all
    three consumers.  A spec with ``engine.stream`` set runs the
    O(chunk)-memory streaming pipeline instead of materializing the
    trace; results (and cache keys) are identical either way.
    """
    if spec.engine.stream:
        return _execute_spec_streaming(spec, reuse_result=reuse_result)
    return execute_unit(WorkUnit.from_spec(spec), reuse_result=reuse_result)


def _execute_spec_streaming(spec: RunSpec, reuse_result: bool = False
                            ) -> SimResult:
    """Streaming execution of one spec: trace chunks are generated (or
    mmapped from the chunk cache), functionally annotated, and simulated
    chunk-at-a-time — peak memory stays O(chunk) at any workload length.
    """
    from repro.simulator.streaming import simulate_stream
    from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

    workload = spec.workload

    def compute() -> SimResult:
        stream = artifacts.trace_chunk_stream(
            workload.benchmark, workload.length, workload.seed,
            chunk_size=spec.engine.chunk_size or DEFAULT_CHUNK_SIZE,
        )
        with _spans.span("sim.stream", benchmark=workload.benchmark,
                         length=workload.length,
                         chunk_size=spec.engine.chunk_size
                         or DEFAULT_CHUNK_SIZE):
            return simulate_stream(
                stream, spec.machine,
                instrument=spec.engine.instrument,
                telemetry=spec.telemetry,
            )

    return _result(spec.result_recipe(), compute, reuse_result)


def _worker(args: tuple[WorkUnit, bool]) -> tuple[SimResult, float,
                                                  artifacts.CacheStats,
                                                  list]:
    unit, reuse_result = args
    # chaos hook: REPRO_CHAOS_KILL_BENCH=<name> hard-kills the worker
    # that picks up that benchmark — how the crash-recovery tests (and
    # an operator staging a failure drill) exercise the abort path
    if _specenv.chaos_kill_bench() == unit.benchmark:
        os._exit(1)
    # a unit carrying span context from another pid runs in a fresh (or
    # fork-inherited) pool child: drop inherited spans, re-root under
    # the parent's context, and ship everything collected here back
    remote = _spans.is_remote(unit.obs)
    if remote:
        _spans.reset()
    before = artifacts.cache_stats().snapshot()
    start = time.perf_counter()
    with _spans.attach(unit.obs):
        with _spans.span("runner.unit", benchmark=unit.benchmark,
                         tag=unit.tag):
            result = execute_unit(unit, reuse_result)
    elapsed = time.perf_counter() - start
    after = artifacts.cache_stats().snapshot()
    delta = artifacts.CacheStats()
    delta.merge(after)
    for counter, base in (
        (delta.hits, before.hits),
        (delta.misses, before.misses),
        (delta.stores, before.stores),
    ):
        for kind, count in base.items():
            counter[kind] = counter.get(kind, 0) - count
            if not counter[kind]:
                del counter[kind]
    delta.errors -= before.errors
    delta.uncacheable -= before.uncacheable
    return result, elapsed, delta, _spans.drain() if remote else []


def _terminate_and_drain(
    pool: ProcessPoolExecutor,
    units: list[WorkUnit],
    futures,
    cause: BaseException,
) -> RunInterrupted:
    """Abort a parallel run: cancel, terminate, and account for it.

    Outstanding futures are cancelled, worker processes terminated (a
    Ctrl-C must not leave a long simulation running headless), and the
    outcome is summarized as a :class:`RunInterrupted` naming exactly
    which units completed.
    """
    for f in futures:
        f.cancel()
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    completed = []
    pending = []
    for unit, f in zip(units, futures):
        if f.done() and not f.cancelled() and f.exception() is None:
            result, elapsed, _, unit_spans = f.result()
            _spans.add_spans(unit_spans)
            completed.append(
                UnitResult(unit=unit, result=result, seconds=elapsed))
        else:
            pending.append(unit)
    message = ("worker process died"
               if isinstance(cause, BrokenProcessPool) else "interrupted")
    _log.warning("runner aborted (%s): %d/%d units completed",
                 message, len(completed), len(units))
    return RunInterrupted(message, completed, pending)


def run_units(
    units: "list[WorkUnit | RunSpec] | tuple[WorkUnit | RunSpec, ...]",
    jobs: int | None = None,
    reuse_results: bool = False,
) -> tuple[list[UnitResult], RunnerStats]:
    """Execute ``units`` and return their results in input order.

    ``units`` may mix :class:`WorkUnit` and :class:`RunSpec` items —
    specs (e.g. a :class:`~repro.spec.SweepSpec` expansion) are
    converted on entry.  ``jobs`` defaults to :func:`default_jobs`;
    with one job (or one unit) everything runs in-process.
    ``reuse_results`` additionally serves stored :class:`SimResult`
    artifacts for unchanged recipes, skipping the simulation itself.
    """
    units = [
        WorkUnit.from_spec(u) if isinstance(u, RunSpec) else u
        for u in units
    ]
    obs_ctx = _spans.current_context()
    if obs_ctx is not None:
        units = [
            replace(u, obs=obs_ctx) if u.obs is None else u
            for u in units
        ]
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(units) or 1))
    _log.debug("running %d unit(s) over %d job(s)", len(units), jobs)

    stats = RunnerStats(units=len(units), jobs=jobs)
    start = time.perf_counter()
    outcomes: list[tuple[SimResult, float, artifacts.CacheStats, list]]
    if jobs == 1:
        outcomes = []
        try:
            for u in units:
                outcomes.append(_worker((u, reuse_results)))
        except KeyboardInterrupt as exc:
            completed = [
                UnitResult(unit=u, result=o[0], seconds=o[1])
                for u, o in zip(units, outcomes)
            ]
            raise RunInterrupted(
                "interrupted", completed, list(units[len(outcomes):])
            ) from exc
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        futures = [pool.submit(_worker, (u, reuse_results)) for u in units]
        try:
            # FIRST_EXCEPTION: a dead worker (BrokenProcessPool) stops
            # the wait immediately instead of idling out the whole sweep
            wait(futures, return_when=FIRST_EXCEPTION)
            outcomes = [f.result() for f in futures]
        except (KeyboardInterrupt, BrokenProcessPool) as exc:
            raise _terminate_and_drain(pool, units, futures, exc) from exc
        pool.shutdown()
    stats.seconds = time.perf_counter() - start
    results = []
    for unit, (result, elapsed, delta, unit_spans) in zip(units, outcomes):
        stats.cache.merge(delta)
        _spans.add_spans(unit_spans)
        results.append(UnitResult(unit=unit, result=result, seconds=elapsed))
    _publish_metrics(results, stats)
    _log.info("runner: %s", stats.summary())
    return results, stats


def _publish_metrics(results: list[UnitResult], stats: RunnerStats) -> None:
    """Fold one run's statistics into the process metrics registry."""
    reg = metrics_registry()
    reg.counter("runner.runs").inc()
    reg.counter("runner.units").inc(stats.units)
    unit_seconds = reg.histogram("runner.unit_seconds")
    busy = 0.0
    for r in results:
        unit_seconds.observe(r.seconds)
        busy += r.seconds
    for kind, count in stats.cache.hits.items():
        reg.counter(f"cache.hits.{kind}").inc(count)
    for kind, count in stats.cache.misses.items():
        reg.counter(f"cache.misses.{kind}").inc(count)
    for kind, count in stats.cache.stores.items():
        reg.counter(f"cache.stores.{kind}").inc(count)
    if stats.cache.errors:
        reg.counter("cache.errors").inc(stats.cache.errors)
    if stats.cache.uncacheable:
        reg.counter("cache.uncacheable").inc(stats.cache.uncacheable)
    if stats.seconds > 0 and stats.jobs > 0:
        # busy worker-seconds over available worker-seconds; pickling
        # and pool startup are the visible complement
        reg.gauge("runner.pool_utilization").set(
            min(1.0, busy / (stats.seconds * stats.jobs))
        )
