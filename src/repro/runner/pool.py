"""Parallel experiment runner: one :class:`RunSpec` per work unit.

Experiment sweeps are embarrassingly parallel — every point is an
independent (trace, configuration) simulation.  A point is the
:class:`RunSpec` that describes it; :func:`run_units` fans specs out
over a :class:`~concurrent.futures.ProcessPoolExecutor` and reports per-run
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
from dataclasses import dataclass, field

from repro.obs import spans as _spans
from repro.runner import artifacts
from repro.simulator.results import SimResult
from repro.spec import env as _specenv
from repro.spec.specs import RunSpec
from repro.telemetry.metrics import metrics_registry

_log = logging.getLogger(__name__)

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
class UnitResult:
    """One spec's outcome: its position in the :func:`run_units` input,
    the spec itself, the simulation result and the wall time."""

    index: int
    spec: RunSpec
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
        """Traces generated through the artifact cache (its ``trace``
        misses); a generation while the cache is disabled counts nowhere."""
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
    :class:`UnitResult` of every spec that finished (in input order,
    each with its input ``index``) and ``pending`` the specs that did
    not, so a sweep can be resumed by re-running just ``pending`` (the
    artifact cache makes the finished part nearly free either way).
    """

    def __init__(self, message: str, completed: list[UnitResult],
                 pending: list[RunSpec]):
        super().__init__(
            f"{message} ({len(completed)} of "
            f"{len(completed) + len(pending)} units completed)"
        )
        self.completed = completed
        self.pending = pending


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

    The trace and its annotations are fetched from (or added to) the
    persistent cache; the detailed simulation itself is re-run unless
    ``reuse_result`` is set, in which case a previously stored
    :class:`SimResult` for the identical recipe is returned directly.
    The result is stored under ``spec.content_key()`` — the key the
    parallel runner and the evaluation service use for the same spec.

    A spec with ``engine.stream`` set runs the O(chunk)-memory streaming
    pipeline instead of materializing the trace; results (and cache
    keys) are identical either way.  The simulator is built from the
    spec on both paths, so ``spec.telemetry`` decides what is measured.
    """
    from repro.simulator.processor import DetailedSimulator

    if spec.engine.stream:
        return _result(spec.result_recipe(),
                       lambda: _simulate_streaming(spec), reuse_result)

    workload = spec.workload
    trace = artifacts.trace_artifact(workload.benchmark, workload.length,
                                     workload.seed)

    def simulate() -> SimResult:
        annotations = artifacts.annotations_artifact(
            trace, spec.machine, workload.benchmark, workload.length,
            workload.seed)
        with _spans.span("sim.detailed", benchmark=workload.benchmark,
                         length=workload.length):
            return DetailedSimulator.from_spec(spec).run(trace, annotations)

    return _result(spec.result_recipe(), simulate, reuse_result)


def _simulate_streaming(spec: RunSpec) -> SimResult:
    """Streaming simulation of one spec: trace chunks are generated (or
    mmapped from the chunk cache), functionally annotated, and simulated
    chunk-at-a-time — peak memory stays O(chunk) at any workload length.
    """
    from repro.simulator.streaming import simulate_stream
    from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

    workload = spec.workload
    chunk_size = spec.engine.chunk_size or DEFAULT_CHUNK_SIZE
    stream = artifacts.trace_chunk_stream(
        workload.benchmark, workload.length, workload.seed,
        chunk_size=chunk_size)
    with _spans.span("sim.stream", benchmark=workload.benchmark,
                     length=workload.length, chunk_size=chunk_size):
        return simulate_stream(stream, spec.machine,
                               instrument=spec.engine.instrument,
                               telemetry=spec.telemetry)


def _worker(args: tuple[int, RunSpec, bool, dict | None]
            ) -> tuple[SimResult, float, artifacts.CacheStats, list]:
    """Run one spec; ``obs`` is the submitting process's serialized span
    context (:func:`repro.obs.current_context`), never part of the spec
    or any cache key."""
    index, spec, reuse_result, obs = args
    benchmark = spec.workload.benchmark
    # chaos hook: REPRO_CHAOS_KILL_BENCH=<name> hard-kills the worker
    # that picks up that benchmark — how the crash-recovery tests (and
    # an operator staging a failure drill) exercise the abort path
    if _specenv.chaos_kill_bench() == benchmark:
        os._exit(1)
    # span context from another pid means a fresh (or fork-inherited)
    # pool child: drop inherited spans, re-root under the parent's
    # context, and ship everything collected here back
    remote = _spans.is_remote(obs)
    if remote:
        _spans.reset()
    before = artifacts.cache_stats().snapshot()
    start = time.perf_counter()
    with _spans.attach(obs):
        with _spans.span("runner.unit", benchmark=benchmark, index=index):
            result = execute_spec(spec, reuse_result)
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
    specs: list[RunSpec],
    futures,
    cause: BaseException,
) -> RunInterrupted:
    """Abort a parallel run: cancel, terminate, and account for it.

    Outstanding futures are cancelled, worker processes terminated (a
    Ctrl-C must not leave a long simulation running headless), and the
    outcome is summarized as a :class:`RunInterrupted` naming exactly
    which specs completed.
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
    for index, (spec, f) in enumerate(zip(specs, futures)):
        if f.done() and not f.cancelled() and f.exception() is None:
            result, elapsed, _, unit_spans = f.result()
            _spans.add_spans(unit_spans)
            completed.append(UnitResult(index, spec, result, elapsed))
        else:
            pending.append(spec)
    message = ("worker process died"
               if isinstance(cause, BrokenProcessPool) else "interrupted")
    _log.warning("runner aborted (%s): %d/%d units completed",
                 message, len(completed), len(specs))
    return RunInterrupted(message, completed, pending)


def run_units(
    specs: "list[RunSpec] | tuple[RunSpec, ...]",
    jobs: int | None = None,
    reuse_results: bool = False,
) -> tuple[list[UnitResult], RunnerStats]:
    """Execute ``specs`` and return their results in input order.

    Each :class:`UnitResult` carries its spec and input ``index``.
    ``jobs`` defaults to :func:`default_jobs`; with one job (or one
    spec) everything runs in-process.  ``reuse_results`` additionally
    serves stored :class:`SimResult` artifacts for unchanged recipes,
    skipping the simulation itself.
    """
    specs = list(specs)
    obs = _spans.current_context()
    args = [(i, spec, reuse_results, obs) for i, spec in enumerate(specs)]
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(specs) or 1))
    _log.debug("running %d unit(s) over %d job(s)", len(specs), jobs)

    stats = RunnerStats(units=len(specs), jobs=jobs)
    start = time.perf_counter()
    outcomes: list[tuple[SimResult, float, artifacts.CacheStats, list]]
    if jobs == 1:
        outcomes = []
        try:
            for a in args:
                outcomes.append(_worker(a))
        except KeyboardInterrupt as exc:
            completed = [
                UnitResult(i, spec, o[0], o[1])
                for i, (spec, o) in enumerate(zip(specs, outcomes))
            ]
            raise RunInterrupted(
                "interrupted", completed, specs[len(outcomes):]
            ) from exc
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        futures = [pool.submit(_worker, a) for a in args]
        try:
            # FIRST_EXCEPTION: a dead worker (BrokenProcessPool) stops
            # the wait immediately instead of idling out the whole sweep
            wait(futures, return_when=FIRST_EXCEPTION)
            outcomes = [f.result() for f in futures]
        except (KeyboardInterrupt, BrokenProcessPool) as exc:
            raise _terminate_and_drain(pool, specs, futures, exc) from exc
        pool.shutdown()
    stats.seconds = time.perf_counter() - start
    results = []
    for index, (spec, (result, elapsed, delta, unit_spans)) in enumerate(
            zip(specs, outcomes)):
        stats.cache.merge(delta)
        _spans.add_spans(unit_spans)
        results.append(UnitResult(index, spec, result, elapsed))
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
