"""The ``repro bench`` measurement harness behind ``BENCH_perf.json``.

Times every phase of the simulation pipeline — trace generation, the
functional miss-event pass, the detailed cycle simulation — for each
benchmark, with the reference and fast kernels side by side, and then
times the full 12-benchmark baseline sweep three ways:

* **cold, reference kernels, no cache** — the pipeline as the seed
  repository ran it (every invocation regenerates everything);
* **cold, fast kernels, no cache** — the pure kernel speedup;
* **warm, fast kernels, persistent cache** — a repeat invocation of the
  sweep, where traces and annotations come from the artifact cache and
  only the detailed simulation is recomputed.  The runner statistics
  must show zero trace generations and zero functional passes here;
  :func:`run_bench` asserts it.

All timings are best-of-N (``runs``) because wall-clock noise on shared
hosts easily exceeds the effects being measured.  The headline
``sweep.speedup`` compares a repeat invocation of the optimized stack
against the seed stack — the quantity a user re-running experiments
actually experiences; the cold kernel-only speedups are recorded right
next to it.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.config import BASELINE
from repro.runner import artifacts
from repro.runner.pool import WorkUnit, run_units
from repro.spec import env as _env

#: the experiment suite's default dynamic trace length
DEFAULT_TRACE_LENGTH = 30_000

#: schema of the emitted JSON document (2 added the ``telemetry``
#: overhead section; 3 added the ``service`` scenario; 4 added the
#: ``explore`` scenario; 5 added per-benchmark generation throughput —
#: ``gen_fast_s``/``gen_mi_s``, vectorized vs the scalar ``gen_s`` —
#: and the ``trace`` streaming-substrate scenario; 6 added the ``obs``
#: span-tracing overhead section and per-section ``section_seconds``;
#: 7 added the ``fleet`` routed-evaluation scenario — 1-node vs 3-node
#: rps/latency/warm-hit-ratio plus a SIGKILL failover replay; 8 added
#: the ``ingestion`` foreign-trace scenario — cold parse→chunk-store
#: throughput, warm source-index probe, warm mmap delivery; 9 added the
#: ``corun`` shared-L2 scenario — co-run evaluation vs 2× solo runs,
#: warm cache-served repeat, and per-workload interference deltas)
BENCH_SCHEMA = 9


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, runs)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


#: cold-timing scope: force the artifact cache off for the duration
_cache_disabled = _env.cache_disabled_scope


def _pipeline(benchmark: str, length: int, engine: str) -> None:
    """One seed-style end-to-end run: generate, annotate, simulate.

    The fast pipeline generates through the vectorized chunked core —
    the generator the optimized stack actually uses — while the
    reference pipeline keeps the seed's scalar generator.
    """
    from repro.simulator.processor import DetailedSimulator
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import generate_trace
    from repro.trace.vectorgen import ChunkedTraceGenerator

    if engine == "fast":
        trace = ChunkedTraceGenerator(get_profile(benchmark)).generate(length)
    else:
        trace = generate_trace(benchmark, length)
    sim = DetailedSimulator(BASELINE, engine=engine)
    sim.run(trace)


def bench_kernels(
    benchmarks, length: int, runs: int, progress=None
) -> dict:
    """Per-benchmark, per-phase best-of-N timings for both kernels."""
    from repro.frontend.collector import CollectorConfig, MissEventCollector
    from repro.simulator.processor import DetailedSimulator
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import generate_trace
    from repro.trace.vectorgen import ChunkedTraceGenerator

    collector_cfg = CollectorConfig.of(BASELINE)
    per_bench: dict[str, dict] = {}
    for name in benchmarks:
        if progress:
            progress(f"kernels: {name}")
        trace = generate_trace(name, length)
        annotations = (
            MissEventCollector(collector_cfg, engine="fast")
            .collect(trace, annotate=True).annotations
        )
        sims = {
            engine: DetailedSimulator(BASELINE, engine=engine)
            for engine in ("reference", "fast")
        }
        result = sims["fast"].run(trace, annotations)
        chunked = ChunkedTraceGenerator(get_profile(name))
        row = {
            "cycles": result.cycles,
            "gen_s": _best_of(runs, lambda: generate_trace(name, length)),
            "gen_fast_s": _best_of(runs, lambda: chunked.generate(length)),
        }
        row["gen_mi_s"] = length / 1e6 / row["gen_fast_s"]
        row["gen_speedup"] = row["gen_s"] / row["gen_fast_s"]
        for engine in ("reference", "fast"):
            coll = MissEventCollector(collector_cfg, engine=engine)
            row[f"functional_{engine}_s"] = _best_of(
                runs, lambda: coll.collect(trace, annotate=True)
            )
            row[f"sim_{engine}_s"] = _best_of(
                runs, lambda: sims[engine].run(trace, annotations)
            )
        row["functional_speedup"] = (
            row["functional_reference_s"] / row["functional_fast_s"]
        )
        row["sim_speedup"] = row["sim_reference_s"] / row["sim_fast_s"]
        per_bench[name] = row
    return per_bench


def bench_sweep(benchmarks, length: int, runs: int, jobs, progress=None) -> dict:
    """Time the full baseline sweep: seed-style cold vs optimized warm."""
    sweep: dict[str, object] = {}

    with _cache_disabled():
        if progress:
            progress("sweep: cold, reference kernels (seed pipeline)")
        sweep["cold_reference_s"] = _best_of(runs, lambda: [
            _pipeline(b, length, "reference") for b in benchmarks
        ])
        if progress:
            progress("sweep: cold, fast kernels")
        sweep["cold_fast_s"] = _best_of(runs, lambda: [
            _pipeline(b, length, "fast") for b in benchmarks
        ])

    units = [
        WorkUnit(benchmark=b, length=length,
                 instrument=True, engine="fast")
        for b in benchmarks
    ]
    if progress:
        progress("sweep: populating the artifact cache")
    run_units(units, jobs=jobs)  # first invocation: fills the cache

    if progress:
        progress("sweep: warm repeat invocation")
    best = float("inf")
    warm_stats = None
    for _ in range(max(1, runs)):
        results, stats = run_units(units, jobs=jobs)
        if stats.seconds < best:
            best = stats.seconds
            warm_stats = stats
    assert warm_stats is not None
    if artifacts.cache_enabled():
        assert warm_stats.trace_computes == 0, (
            f"warm sweep regenerated {warm_stats.trace_computes} traces"
        )
        assert warm_stats.annotation_computes == 0, (
            f"warm sweep re-ran {warm_stats.annotation_computes} "
            "functional passes"
        )
    sweep["warm_fast_s"] = best
    sweep["warm_trace_computes"] = warm_stats.trace_computes
    sweep["warm_annotation_computes"] = warm_stats.annotation_computes
    sweep["warm_cache_hits"] = warm_stats.cache.total_hits()
    sweep["jobs"] = warm_stats.jobs
    sweep["speedup"] = sweep["cold_reference_s"] / sweep["warm_fast_s"]
    sweep["kernel_speedup"] = (
        sweep["cold_reference_s"] / sweep["cold_fast_s"]
    )
    return sweep


def bench_telemetry(benchmarks, length: int, runs: int, progress=None) -> dict:
    """Cost of the stall accountant: fast-engine sim with telemetry
    off vs on, and the bit-identity the "zero-cost when disabled"
    claim rests on (equal cycle and event counts either way)."""
    from repro.frontend.collector import CollectorConfig, MissEventCollector
    from repro.simulator.processor import DetailedSimulator
    from repro.trace.synthetic import generate_trace

    collector_cfg = CollectorConfig.of(BASELINE)
    off_s = on_s = 0.0
    identical = True
    for name in benchmarks:
        if progress:
            progress(f"telemetry overhead: {name}")
        trace = generate_trace(name, length)
        annotations = (
            MissEventCollector(collector_cfg, engine="fast")
            .collect(trace, annotate=True).annotations
        )
        sim_off = DetailedSimulator(BASELINE, instrument=False,
                                    engine="fast", telemetry=False)
        sim_on = DetailedSimulator(BASELINE, instrument=False,
                                   engine="fast", telemetry=True)
        off = sim_off.run(trace, annotations)
        on = sim_on.run(trace, annotations)
        identical = identical and (
            off.cycles == on.cycles
            and off.misprediction_count == on.misprediction_count
            and off.icache_short_count == on.icache_short_count
            and off.icache_long_count == on.icache_long_count
            and off.dcache_long_count == on.dcache_long_count
        )
        off_s += _best_of(runs, lambda: sim_off.run(trace, annotations))
        on_s += _best_of(runs, lambda: sim_on.run(trace, annotations))
    return {
        "sim_off_s": off_s,
        "sim_on_s": on_s,
        "overhead": on_s / off_s - 1.0,
        "bit_identical": identical,
    }


def bench_obs(benchmarks, length: int, runs: int, progress=None) -> dict:
    """Cost of wall-clock span tracing (:mod:`repro.obs`, schema 6).

    Times the warm cached execute path — the per-call span density is
    highest there (probe, artifact load, no long simulation to hide
    behind) — with collection off vs on, and checks the bit-identity
    the "zero overhead when disabled" claim rests on: results are
    equal either way.
    """
    from repro.obs import spans as _spans
    from repro.runner.pool import execute_spec
    from repro.spec import RunSpec, WorkloadSpec

    was_enabled = _spans.enabled()
    off_s = on_s = 0.0
    identical = True
    spans_seen = 0
    for name in benchmarks:
        if progress:
            progress(f"obs overhead: {name}")
        spec = RunSpec(workload=WorkloadSpec(benchmark=name, length=length))
        execute_spec(spec, reuse_result=True)  # prime the cache
        _spans.enable(False)
        off = execute_spec(spec, reuse_result=True)
        off_s += _best_of(
            runs, lambda: execute_spec(spec, reuse_result=True))
        _spans.enable(True)
        _spans.reset()
        on = execute_spec(spec, reuse_result=True)
        spans_seen += len(_spans.drain())
        on_s += _best_of(
            runs, lambda: execute_spec(spec, reuse_result=True))
        _spans.reset()
        _spans.enable(False)
        identical = identical and (
            off.cycles == on.cycles
            and off.instructions == on.instructions
            and off.misprediction_count == on.misprediction_count
            and off.icache_short_count == on.icache_short_count
            and off.icache_long_count == on.icache_long_count
            and off.dcache_long_count == on.dcache_long_count
        )
    _spans.enable(was_enabled)
    return {
        "pipeline_off_s": off_s,
        "pipeline_on_s": on_s,
        "overhead": (on_s / off_s - 1.0) if off_s else 0.0,
        "spans_per_run": (spans_seen / len(benchmarks)
                          if benchmarks else 0.0),
        "bit_identical": identical,
    }


def bench_service(benchmarks, length: int, jobs, progress=None) -> dict:
    """Throughput and latency of the evaluation service, mixed workload.

    Eight client threads replay a mix every production front door sees:
    a few distinct questions (cold — the pool computes), the same
    questions again (warm — the persistent cache answers), and identical
    questions in flight at once (coalesced).  Reported numbers are
    requests/second, client-observed p50/p99 latency and the fraction of
    requests that never reached a worker.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import BackgroundServer, SchedulerConfig, ServiceClient
    from repro.telemetry.metrics import metrics_registry

    if progress:
        progress("service: mixed workload")
    chosen = list(benchmarks)[:4]
    # 3 passes over (benchmark × {model, simulate}): pass 0 computes,
    # passes 1-2 hit the response cache or coalesce in flight
    workload = [
        (op, benchmark)
        for _ in range(3)
        for benchmark in chosen
        for op in ("model", "simulate")
    ]
    registry = metrics_registry()
    before = {
        name: registry.counter(f"service.served.{name}").value
        for name in ("computed", "cache", "inflight")
    }
    latencies: list[float] = []
    lock = threading.Lock()
    config = SchedulerConfig(workers=jobs, queue_limit=len(workload))
    with BackgroundServer(config=config) as bg:
        def one(item):
            op, benchmark = item
            with ServiceClient(bg.host, bg.port) as client:
                start = time.perf_counter()
                # the wrappers build spec payloads — the only form the
                # server accepts
                getattr(client, op)(benchmark, length=length)
                elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as clients:
            list(clients.map(one, workload))
        wall = time.perf_counter() - start
    served = {
        name: registry.counter(f"service.served.{name}").value
             - before[name]
        for name in ("computed", "cache", "inflight")
    }
    ordered = sorted(latencies)

    def pct(q: float) -> float:
        return ordered[min(len(ordered) - 1,
                           round(q * (len(ordered) - 1)))]

    total = len(workload)
    return {
        "requests": total,
        "seconds": wall,
        "rps": total / wall,
        "p50_ms": pct(0.50) * 1e3,
        "p99_ms": pct(0.99) * 1e3,
        "served": served,
        "cache_hit_ratio": (served["cache"] + served["inflight"]) / total,
    }


def bench_explore(length: int, jobs, progress=None) -> dict:
    """Economics of surrogate-guided search (:mod:`repro.explore`).

    Runs one three-axis search (18 candidates) twice — cold, then warm —
    and records what design-space exploration actually buys: the
    surrogate-vs-detailed per-evaluation cost ratio, the fraction of the
    grid that needed a detailed simulation at all, and the end-to-end
    search wall-clock against the exhaustive detailed sweep it replaces.
    """
    from repro.explore import BudgetSpec, SearchSpec, run_search
    from repro.spec import RunSpec, WorkloadSpec

    if progress:
        progress("explore: surrogate-guided search vs exhaustive sweep")
    search = SearchSpec(
        base=RunSpec(workload=WorkloadSpec("gzip", length=length)),
        axes={
            "machine.window_size": (16, 32, 48),
            "machine.pipeline_depth": (3, 5, 9),
            "machine.width": (2, 4),
        },
        budget=BudgetSpec(),
    )
    candidates = search.candidates()

    start = time.perf_counter()
    cold = run_search(search, jobs=jobs)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_search(search, jobs=jobs)
    warm_s = time.perf_counter() - start

    # exhaustive detailed sweep over the same grid — what the search
    # replaces (cached: the promoted fraction is already in the cache,
    # so time the whole grid uncached-style via fresh unit execution)
    units = [WorkUnit.from_spec(c.spec, tag=str(c.index))
             for c in candidates]
    start = time.perf_counter()
    run_units(units, jobs=jobs)  # recomputes every detailed sim
    exhaustive_s = time.perf_counter() - start

    surrogate_mean_s = (cold.surrogate_seconds / cold.surrogate_evals
                        if cold.surrogate_evals else 0.0)
    # per-candidate detailed cost from the exhaustive sweep, which
    # recomputes every simulation regardless of the artifact cache
    detailed_mean_s = exhaustive_s / len(candidates)
    return {
        "candidates": cold.candidates,
        "surrogate_evals": cold.surrogate_evals,
        "detailed_runs": cold.executed,
        "promoted_fraction": cold.promoted_fraction,
        "frontier_points": len(cold.frontier),
        "surrogate_mean_s": surrogate_mean_s,
        "detailed_mean_s": detailed_mean_s,
        "cost_ratio": (detailed_mean_s / surrogate_mean_s
                       if surrogate_mean_s else 0.0),
        "search_cold_s": cold_s,
        "search_warm_s": warm_s,
        "exhaustive_s": exhaustive_s,
        "search_speedup": exhaustive_s / cold_s if cold_s else 0.0,
        "mean_abs_error": cold.mean_abs_error,
        "worst_abs_error": cold.worst_abs_error,
        "warm_executed": warm.executed,
    }


def bench_trace(benchmarks, length: int, runs: int, progress=None) -> dict:
    """The chunked streaming trace substrate, end to end (schema 5).

    One benchmark, one long trace, four numbers: scalar reference
    generation throughput (measured at a capped length — the scalar
    loop is the reason the cap exists), cold vectorized chunked
    generation, warm mmap delivery out of the content-addressed chunk
    cache, and a streaming detailed simulation whose peak memory stays
    O(chunk).  The scenario length scales with ``length`` so ``--quick``
    CI invocations stay cheap; at the default length it is the
    10^6-instruction scenario the committed BENCH_perf.json records.
    """
    import numpy as np

    from repro.simulator.streaming import simulate_stream
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import SyntheticTraceGenerator
    from repro.trace.trace import _COLUMNS
    from repro.trace.vectorgen import (
        DEFAULT_CHUNK_SIZE,
        ChunkedTraceGenerator,
    )

    benchmark = benchmarks[0]
    profile = get_profile(benchmark)
    stream_length = (1_000_000 if length >= DEFAULT_TRACE_LENGTH
                     else max(8 * length, 2 * DEFAULT_CHUNK_SIZE))
    ref_length = min(stream_length, 200_000)
    mi = stream_length / 1e6

    if progress:
        progress(f"trace: scalar reference generation "
                 f"({ref_length:,} instructions)")
    ref_s = _best_of(
        runs, lambda: SyntheticTraceGenerator(profile).generate(ref_length)
    )

    if progress:
        progress(f"trace: cold chunked generation "
                 f"({stream_length:,} instructions)")
    gen = ChunkedTraceGenerator(profile)

    def cold():
        for _ in gen.chunks(stream_length):
            pass

    cold_s = _best_of(runs, cold)

    if progress:
        progress("trace: warm delivery from the chunk cache")
    stream = artifacts.trace_chunk_stream(
        benchmark, stream_length, chunk_size=DEFAULT_CHUNK_SIZE
    )
    for _ in stream:  # prime: publishes every chunk (or no-op if disabled)
        pass

    def drain():
        # touch every payload byte so mmap delivery actually pages the
        # data in — otherwise lazily-mapped columns make this a no-op
        for chunk in stream:
            for col, _ in _COLUMNS:
                np.asarray(getattr(chunk, col)).view(np.uint8).sum()

    warm_s = _best_of(runs, drain)

    if progress:
        progress("trace: streaming detailed simulation, end to end")
    start = time.perf_counter()
    result = simulate_stream(stream, BASELINE, instrument=False)
    stream_sim_s = time.perf_counter() - start

    ref_mi_s = ref_length / 1e6 / ref_s
    cold_mi_s = mi / cold_s
    warm_mi_s = mi / warm_s
    return {
        "benchmark": benchmark,
        "stream_length": stream_length,
        "reference_length": ref_length,
        "chunk_size": DEFAULT_CHUNK_SIZE,
        "cache_enabled": artifacts.cache_enabled(),
        "gen_reference_s": ref_s,
        "gen_reference_mi_s": ref_mi_s,
        "gen_cold_s": cold_s,
        "gen_cold_mi_s": cold_mi_s,
        "gen_cold_speedup": cold_mi_s / ref_mi_s,
        "delivery_warm_s": warm_s,
        "delivery_warm_mi_s": warm_mi_s,
        "delivery_warm_speedup": warm_mi_s / ref_mi_s,
        "stream_sim_s": stream_sim_s,
        "stream_sim_mi_s": mi / stream_sim_s,
        "stream_cycles": result.cycles,
    }


def bench_ingestion(benchmarks, length: int, runs: int,
                    progress=None) -> dict:
    """Foreign-trace ingestion throughput (schema 8).

    Writes one synthetic trace out as the generic CSV format — the
    worst-case, text-parsing ingest path — and times three things
    against an isolated cache root so the cold number really is cold:
    the cold parse → normalize → chunk-store pipeline
    (:func:`repro.ingest.ingest_file`), the warm re-ingest of the
    unchanged file (a sha256 + source-index probe, no parsing), and
    warm mmap delivery of the ingested chunks — which must match the
    synthetic substrate's delivery rate, because past the chunk store
    the two are the same machinery.
    """
    import csv
    import tempfile

    import numpy as np

    from repro import ingest
    from repro.isa.opclass import OpClass
    from repro.trace.synthetic import generate_trace
    from repro.trace.trace import _COLUMNS

    benchmark = benchmarks[0]
    rows = min(4 * length, 120_000)
    if progress:
        progress(f"ingestion: writing a {rows:,}-row foreign CSV")
    trace = generate_trace(benchmark, rows)
    names = {int(c): c.name.lower() for c in OpClass}
    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as tmp:
        path = Path(tmp) / f"{benchmark}_foreign.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pc", "op", "dst", "src1", "src2", "addr",
                             "taken", "target"])
            for k in range(rows):
                writer.writerow([
                    int(trace.pc[k]), names[int(trace.opclass[k])],
                    int(trace.dst[k]), int(trace.src1[k]),
                    int(trace.src2[k]), int(trace.addr[k]),
                    int(trace.taken[k]), int(trace.target[k]),
                ])
        file_bytes = path.stat().st_size

        if progress:
            progress("ingestion: cold parse -> chunk store")
        cold_s = float("inf")
        for attempt in range(max(1, runs)):
            with _env.cache_dir_scope(Path(tmp) / f"cold{attempt}"):
                start = time.perf_counter()
                result = ingest.ingest_file(path)
                cold_s = min(cold_s, time.perf_counter() - start)

        with _env.cache_dir_scope(Path(tmp) / "warm"):
            ingest.ingest_file(path)  # prime the warm cache root
            if progress:
                progress("ingestion: warm source-index probe")
            warm = ingest.ingest_file(path)
            assert warm.reused, "second ingest missed the source index"
            warm_probe_s = _best_of(
                runs, lambda: ingest.ingest_file(path))

            if progress:
                progress("ingestion: warm mmap delivery")
            stream = ingest.ingest_chunk_stream(warm.key)

            def drain():
                # touch every payload byte so mmap delivery actually
                # pages the data in (same discipline as bench_trace)
                for chunk in stream:
                    for col, _ in _COLUMNS:
                        np.asarray(getattr(chunk, col)).view(
                            np.uint8).sum()

            delivery_s = _best_of(runs, drain)

    mi = rows / 1e6
    return {
        "benchmark": benchmark,
        "format": "csv",
        "rows": rows,
        "file_mb": file_bytes / 1e6,
        "chunks": result.chunks,
        "cold_ingest_s": cold_s,
        "cold_ingest_mi_s": mi / cold_s,
        "warm_probe_s": warm_probe_s,
        "warm_speedup": cold_s / warm_probe_s,
        "delivery_warm_s": delivery_s,
        "delivery_warm_mi_s": mi / delivery_s,
    }


#: trace length cap for the co-run scenario — its two solo baselines and
#: two detailed co-run simulations stay bounded regardless of the bench's
#: headline length
CORUN_BENCH_LENGTH = 10_000


def bench_corun(length: int, runs: int, progress=None) -> dict:
    """Shared-L2 co-run scenario (schema 9).

    Times a 2-workload co-run (:func:`repro.corun.run_corun`) against
    the sum of its two solo simulations, all against an isolated cache
    root: the cold co-run (solo baselines + contended functional pass +
    two detailed simulations + two model evaluations), the two solo
    pipelines alone (the work a user would do instead), and the warm
    repeat, which must be served whole from the artifact cache.  The
    per-workload interference deltas — CPI degradation and long-miss
    elevation — are recorded from the payload, so the bench document
    doubles as a contention regression reference.
    """
    import tempfile

    from repro.corun import run_corun
    from repro.runner.pool import execute_spec
    from repro.spec import CoRunSpec, WorkloadSpec

    corun_len = min(length, CORUN_BENCH_LENGTH)
    pair = ("gzip", "mcf")
    spec = CoRunSpec(workloads=tuple(
        WorkloadSpec(name, corun_len) for name in pair))

    def solo_pair():
        for i in range(len(pair)):
            execute_spec(spec.solo_spec(i), reuse_result=False)

    with tempfile.TemporaryDirectory(prefix="repro-bench-corun-") as tmp:
        if progress:
            progress(f"corun: 2x solo baseline ({'+'.join(pair)})")
        with _cache_disabled():
            solo_s = _best_of(runs, solo_pair)

        if progress:
            progress("corun: cold shared-L2 co-run")
        cold_s = float("inf")
        for attempt in range(max(1, runs)):
            with _env.cache_dir_scope(Path(tmp) / f"cold{attempt}"):
                start = time.perf_counter()
                payload = run_corun(spec)
                cold_s = min(cold_s, time.perf_counter() - start)

        if progress:
            progress("corun: warm cache-served repeat")
        with _env.cache_dir_scope(Path(tmp) / "warm"):
            run_corun(spec)  # prime
            warm_s = _best_of(runs, lambda: run_corun(spec))

    return {
        "benchmarks": list(pair),
        "trace_length": corun_len,
        "policy": payload["interleave"]["policy"],
        "content_key": payload["content_key"],
        "solo_pair_s": solo_s,
        "cold_corun_s": cold_s,
        "corun_overhead": cold_s / solo_s,
        "warm_corun_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "interference": [
            {
                "benchmark": row["benchmark"],
                "cpi_degradation": row["interference"]["cpi_degradation"],
                "long_miss_elevation":
                    row["interference"]["long_miss_elevation"],
            }
            for row in payload["workloads"]
        ],
    }


#: trace length for the fleet scenario — short on purpose, so request
#: latency is dominated by the workload's fixed chaos service time and
#: the scaling numbers measure the fleet, not the model kernel
FLEET_BENCH_LENGTH = 1_500


def bench_fleet_scenario(progress=None) -> dict:
    """Routed fleet scenario: 1-node vs 3-node rps, affinity, failover.

    Delegates to :func:`repro.fleet.bench.bench_fleet`, which spawns
    real node subprocesses behind an in-process router and SIGKILLs one
    of the three mid-replay.
    """
    from repro.fleet.bench import bench_fleet

    doc = bench_fleet(FLEET_BENCH_LENGTH, progress=progress)
    doc["workload"]["trace_length"] = FLEET_BENCH_LENGTH
    return doc


def run_bench(
    length: int = DEFAULT_TRACE_LENGTH,
    runs: int = 3,
    jobs: int | None = None,
    benchmarks=None,
    progress=None,
) -> dict:
    """Measure everything and return the ``BENCH_perf.json`` document."""
    from repro.trace.profiles import BENCHMARK_ORDER

    if benchmarks is None:
        benchmarks = list(BENCHMARK_ORDER)
    section_seconds: dict[str, float] = {}

    def timed(name: str, fn):
        start = time.perf_counter()
        out = fn()
        section_seconds[name] = time.perf_counter() - start
        return out

    per_bench = timed("kernels", lambda: bench_kernels(
        benchmarks, length, runs, progress))
    sweep = timed("sweep", lambda: bench_sweep(
        benchmarks, length, runs, jobs, progress))
    telemetry = timed("telemetry", lambda: bench_telemetry(
        benchmarks, length, runs, progress))
    obs = timed("obs", lambda: bench_obs(
        benchmarks, length, runs, progress))
    service = timed("service", lambda: bench_service(
        benchmarks, length, jobs, progress))
    explore = timed("explore", lambda: bench_explore(
        length, jobs, progress))
    trace = timed("trace", lambda: bench_trace(
        benchmarks, length, runs, progress))
    ingestion = timed("ingestion", lambda: bench_ingestion(
        benchmarks, length, runs, progress))
    corun = timed("corun", lambda: bench_corun(length, runs, progress))
    fleet = timed("fleet", lambda: bench_fleet_scenario(progress))

    def total(field: str) -> float:
        return sum(row[field] for row in per_bench.values())

    aggregate = {
        f: total(f)
        for f in ("gen_s", "gen_fast_s", "functional_reference_s",
                  "functional_fast_s", "sim_reference_s", "sim_fast_s")
    }
    aggregate["gen_speedup"] = aggregate["gen_s"] / aggregate["gen_fast_s"]
    aggregate["gen_mi_s"] = (
        len(per_bench) * length / 1e6 / aggregate["gen_fast_s"]
    )
    aggregate["functional_speedup"] = (
        aggregate["functional_reference_s"] / aggregate["functional_fast_s"]
    )
    aggregate["sim_speedup"] = (
        aggregate["sim_reference_s"] / aggregate["sim_fast_s"]
    )
    aggregate["kernel_speedup"] = (
        (aggregate["functional_reference_s"] + aggregate["sim_reference_s"])
        / (aggregate["functional_fast_s"] + aggregate["sim_fast_s"])
    )
    return {
        "schema": BENCH_SCHEMA,
        "trace_length": length,
        "runs": runs,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "benchmarks": per_bench,
        "aggregate": aggregate,
        "sweep": sweep,
        "telemetry": telemetry,
        "obs": obs,
        "service": service,
        "explore": explore,
        "trace": trace,
        "ingestion": ingestion,
        "corun": corun,
        "fleet": fleet,
        "section_seconds": section_seconds,
    }


def format_bench(doc: dict) -> str:
    """Human-readable summary of a bench document."""
    agg = doc["aggregate"]
    sweep = doc["sweep"]
    lines = [
        f"{'bench':10s} {'gen':>7s} {'gen fast':>9s} {'func ref':>9s} "
        f"{'func fast':>10s} {'sim ref':>8s} {'sim fast':>9s} "
        f"{'g-spd':>6s} {'f-spd':>6s} {'s-spd':>6s}",
    ]
    for name, row in doc["benchmarks"].items():
        gen_fast = row.get("gen_fast_s")  # absent before schema 5
        lines.append(
            f"{name:10s} {row['gen_s']:7.3f} "
            + (f"{gen_fast:9.3f} " if gen_fast is not None else f"{'-':>9s} ")
            + f"{row['functional_reference_s']:9.3f} "
            f"{row['functional_fast_s']:10.3f} "
            f"{row['sim_reference_s']:8.3f} {row['sim_fast_s']:9.3f} "
            + (f"{row['gen_speedup']:5.1f}x "
               if gen_fast is not None else f"{'-':>6s} ")
            + f"{row['functional_speedup']:5.1f}x "
            f"{row['sim_speedup']:5.1f}x"
        )
    lines += [
        "",
    ]
    if "gen_fast_s" in agg:  # schema 5+
        lines += [
            f"generation:      {agg['gen_s']:.3f}s -> "
            f"{agg['gen_fast_s']:.3f}s ({agg['gen_speedup']:.2f}x, "
            f"{agg['gen_mi_s']:.2f} MI/s)",
        ]
    lines += [
        f"functional pass: {agg['functional_reference_s']:.3f}s -> "
        f"{agg['functional_fast_s']:.3f}s "
        f"({agg['functional_speedup']:.2f}x)",
        f"detailed sim:    {agg['sim_reference_s']:.3f}s -> "
        f"{agg['sim_fast_s']:.3f}s ({agg['sim_speedup']:.2f}x)",
        f"kernels overall: {agg['kernel_speedup']:.2f}x",
        "",
        f"sweep, seed pipeline (cold, reference): "
        f"{sweep['cold_reference_s']:.3f}s",
        f"sweep, fast kernels (cold):             "
        f"{sweep['cold_fast_s']:.3f}s ({sweep['kernel_speedup']:.2f}x)",
        f"sweep, repeat invocation (warm cache):  "
        f"{sweep['warm_fast_s']:.3f}s ({sweep['speedup']:.2f}x, "
        f"{sweep['warm_trace_computes']} traces and "
        f"{sweep['warm_annotation_computes']} functional passes re-run)",
    ]
    tele = doc.get("telemetry")
    if tele:  # absent in schema-1 documents
        lines += [
            "",
            f"telemetry overhead (fast engine): "
            f"{tele['sim_off_s']:.3f}s off -> {tele['sim_on_s']:.3f}s on "
            f"({tele['overhead']:+.1%}); disabled-telemetry results "
            f"identical: {tele['bit_identical']}",
        ]
    obs = doc.get("obs")
    if obs:  # absent before schema 6
        lines += [
            "",
            f"span tracing overhead (warm cached path): "
            f"{obs['pipeline_off_s']:.3f}s off -> "
            f"{obs['pipeline_on_s']:.3f}s on ({obs['overhead']:+.1%}, "
            f"{obs['spans_per_run']:.0f} spans/run); disabled-tracing "
            f"results identical: {obs['bit_identical']}",
        ]
    service = doc.get("service")
    if service:  # absent before schema 3
        served = service["served"]
        lines += [
            "",
            f"service, mixed workload ({service['requests']} requests): "
            f"{service['rps']:.0f} req/s, p50 {service['p50_ms']:.1f}ms, "
            f"p99 {service['p99_ms']:.1f}ms; "
            f"{service['cache_hit_ratio']:.0%} served without a worker "
            f"({served['cache']} cache, {served['inflight']} coalesced, "
            f"{served['computed']} computed)",
        ]
    explore = doc.get("explore")
    if explore:  # absent before schema 4
        lines += [
            "",
            f"explore, {explore['candidates']}-candidate search: "
            f"{explore['detailed_runs']} detailed sims "
            f"({explore['promoted_fraction']:.0%} of the grid), "
            f"surrogate {explore['surrogate_mean_s'] * 1e3:.1f}ms vs "
            f"detailed {explore['detailed_mean_s'] * 1e3:.1f}ms per eval "
            f"({explore['cost_ratio']:.0f}x); search "
            f"{explore['search_cold_s']:.3f}s vs exhaustive "
            f"{explore['exhaustive_s']:.3f}s "
            f"({explore['search_speedup']:.2f}x), warm repeat "
            f"{explore['search_warm_s']:.3f}s",
        ]
    fleet = doc.get("fleet")
    if fleet:  # absent before schema 7
        one, three, chaos = fleet["one_node"], fleet["three_node"], \
            fleet["chaos"]
        lines += [
            "",
            f"fleet, routed heavy-tail batch ({one['requests']} requests, "
            f"{fleet['workload']['distinct_keys']} keys): "
            f"1 node {one['rps']:.0f} req/s -> 3 nodes "
            f"{three['rps']:.0f} req/s ({fleet['rps_scaling']:.2f}x), "
            f"warm shard hits {three['warm_hit_ratio']:.0%} "
            f"(single-node {one['warm_hit_ratio']:.0%}); SIGKILL replay: "
            f"{chaos['failed']} failed of {chaos['requests']}, "
            f"{chaos['failover']} failovers, "
            f"{chaos['survivors']} nodes left",
        ]
    trace = doc.get("trace")
    if trace:  # absent before schema 5
        lines += [
            "",
            f"trace substrate ({trace['benchmark']}, "
            f"{trace['stream_length']:,} instructions, chunk "
            f"{trace['chunk_size']}): scalar gen "
            f"{trace['gen_reference_mi_s']:.2f} MI/s -> chunked cold "
            f"{trace['gen_cold_mi_s']:.2f} MI/s "
            f"({trace['gen_cold_speedup']:.1f}x), warm mmap delivery "
            f"{trace['delivery_warm_mi_s']:.1f} MI/s "
            f"({trace['delivery_warm_speedup']:.0f}x); streaming "
            f"detailed sim end-to-end {trace['stream_sim_s']:.3f}s "
            f"({trace['stream_sim_mi_s']:.2f} MI/s, O(chunk) memory)",
        ]
    ingestion = doc.get("ingestion")
    if ingestion:  # absent before schema 8
        lines += [
            "",
            f"ingestion ({ingestion['benchmark']} as "
            f"{ingestion['format']}, {ingestion['rows']:,} rows, "
            f"{ingestion['file_mb']:.1f} MB): cold parse -> chunk store "
            f"{ingestion['cold_ingest_s']:.3f}s "
            f"({ingestion['cold_ingest_mi_s']:.2f} MI/s), warm re-ingest "
            f"probe {ingestion['warm_probe_s'] * 1e3:.1f}ms "
            f"({ingestion['warm_speedup']:.0f}x), warm mmap delivery "
            f"{ingestion['delivery_warm_mi_s']:.1f} MI/s",
        ]
    corun = doc.get("corun")
    if corun:  # absent before schema 9
        deltas = "; ".join(
            f"{row['benchmark']} +{row['cpi_degradation']:.3f} CPI, "
            f"+{row['long_miss_elevation']:.4f} long/ld"
            for row in corun["interference"])
        lines += [
            "",
            f"corun ({'+'.join(corun['benchmarks'])}, "
            f"{corun['trace_length']:,} instructions each, "
            f"policy {corun['policy']}): 2x solo "
            f"{corun['solo_pair_s']:.3f}s vs cold co-run "
            f"{corun['cold_corun_s']:.3f}s "
            f"({corun['corun_overhead']:.2f}x), warm repeat "
            f"{corun['warm_corun_s'] * 1e3:.1f}ms "
            f"({corun['warm_speedup']:.0f}x); interference: {deltas}",
        ]
    return "\n".join(lines)


def write_bench(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
