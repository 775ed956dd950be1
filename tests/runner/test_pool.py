"""The parallel experiment runner: correctness, ordering, cache reuse."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import BASELINE
from repro.runner import (
    RunInterrupted,
    default_jobs,
    execute_spec,
    reset_cache_stats,
    run_units,
    set_default_jobs,
)
from repro.simulator.processor import simulate
from repro.spec import EngineSpec, RunSpec, TelemetrySpec, WorkloadSpec
from repro.trace.synthetic import generate_trace

LENGTH = 2_000


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    reset_cache_stats()
    yield
    reset_cache_stats()
    set_default_jobs(None)


def _spec(benchmark, machine=BASELINE, length=LENGTH):
    return RunSpec(workload=WorkloadSpec(benchmark, length=length),
                   machine=machine)


def _units():
    cramped = dataclasses.replace(BASELINE, window_size=16, rob_size=32)
    return [_spec("gzip"), _spec("mcf"), _spec("gzip", machine=cramped)]


def test_results_match_direct_simulation_in_order():
    units = _units()
    results, stats = run_units(units, jobs=1)
    assert [r.index for r in results] == [0, 1, 2]
    assert [r.spec for r in results] == units
    for r in results:
        direct = simulate(
            generate_trace(r.spec.workload.benchmark, LENGTH),
            r.spec.machine, instrument=False,
        )
        assert r.result.cycles == direct.cycles
    assert stats.units == 3 and stats.jobs == 1


def test_parallel_matches_serial():
    serial, _ = run_units(_units(), jobs=1)
    parallel, stats = run_units(_units(), jobs=2)
    assert stats.jobs == 2
    assert [r.result.cycles for r in parallel] == [
        r.result.cycles for r in serial
    ]


def test_warm_run_does_no_frontend_work():
    units = _units()
    _, cold = run_units(units, jobs=1)
    # gzip appears twice (two configs, same hierarchy): one generation,
    # one functional pass, shared through the cache
    assert cold.trace_computes == 2
    assert cold.annotation_computes == 2
    results, warm = run_units(units, jobs=1)
    assert warm.trace_computes == 0
    assert warm.annotation_computes == 0
    assert warm.cache.total_hits() >= 6
    assert "units in" in warm.summary()


def test_reuse_results_skips_simulation():
    units = _units()
    first, _ = run_units(units, jobs=1)
    second, stats = run_units(units, jobs=1, reuse_results=True)
    assert stats.cache.hits.get("result") == 3
    assert [r.result.cycles for r in second] == [
        r.result.cycles for r in first
    ]


@pytest.mark.parametrize("stream", [False, True],
                         ids=["in-memory", "streaming"])
def test_spec_telemetry_writes_its_event_file(tmp_path, stream):
    """The spec, not the environment, decides what a run measures: a
    spec asking for an event trace writes it on either path, and the
    result equals the telemetry-off run."""
    trace_path = tmp_path / "events.jsonl"
    plain = RunSpec(workload=WorkloadSpec("gzip", length=LENGTH),
                    engine=EngineSpec(stream=stream, chunk_size=512))
    traced = dataclasses.replace(plain, telemetry=TelemetrySpec(
        enabled=True, trace_path=str(trace_path)))
    measured = execute_spec(traced)
    assert trace_path.stat().st_size > 0
    assert measured == execute_spec(plain)


def test_default_jobs_override():
    set_default_jobs(3)
    assert default_jobs() == 3
    set_default_jobs(None)
    assert default_jobs() >= 1


class TestShutdown:
    """Interrupts and worker death leave a drained pool and a ledger."""

    def test_worker_death_raises_run_interrupted(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL_BENCH", "mcf")
        with pytest.raises(RunInterrupted) as err:
            run_units(_units(), jobs=2)
        exc = err.value
        assert "worker process died" in str(exc)
        assert [s.workload.benchmark
                for s in exc.pending].count("mcf") == 1
        assert len(exc.completed) + len(exc.pending) == 3
        # the completed results are real, ordered unit outcomes
        for outcome in exc.completed:
            assert outcome.result.cycles > 0
            assert outcome.spec.workload.benchmark != "mcf"
            assert outcome.spec == _units()[outcome.index]

    def test_interrupt_in_serial_loop_preserves_partial_results(
            self, monkeypatch):
        import repro.runner.pool as pool_mod

        real_worker = pool_mod._worker
        calls = []

        def flaky(args):
            if len(calls) == 2:
                raise KeyboardInterrupt
            calls.append(args)
            return real_worker(args)

        monkeypatch.setattr(pool_mod, "_worker", flaky)
        with pytest.raises(RunInterrupted) as err:
            run_units(_units(), jobs=1)
        exc = err.value
        assert [r.index for r in exc.completed] == [0, 1]
        assert exc.pending == _units()[2:]
        assert isinstance(exc.__cause__, KeyboardInterrupt)

    def test_interrupted_sweep_can_resume_from_pending(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL_BENCH", "mcf")
        with pytest.raises(RunInterrupted) as err:
            run_units(_units(), jobs=2)
        monkeypatch.delenv("REPRO_CHAOS_KILL_BENCH")
        resumed, _ = run_units(err.value.pending, jobs=1)
        full, _ = run_units(_units(), jobs=1)
        by_key = {r.spec.content_key(): r.result.cycles for r in full}
        for outcome in list(err.value.completed) + list(resumed):
            assert (outcome.result.cycles
                    == by_key[outcome.spec.content_key()])


def test_run_units_publishes_metrics():
    from repro.telemetry.metrics import metrics_registry, reset_metrics

    reset_metrics()
    units = [_spec("gzip", length=1_500)]
    results, stats = run_units(units, jobs=1)
    reg = metrics_registry()
    assert reg.counter("runner.runs").value == 1
    assert reg.counter("runner.units").value == 1
    hist = reg.histogram("runner.unit_seconds")
    assert hist.count == 1
    assert hist.total == pytest.approx(results[0].seconds)
    assert 0.0 < reg.gauge("runner.pool_utilization").value <= 1.0
    # cache counters mirror the per-run stats by kind
    total_cache = sum(
        reg.counter(f"cache.{kind}.{k}").value
        for kind in ("hits", "misses")
        for k in getattr(stats.cache, kind)
    )
    assert total_cache == (stats.cache.total_hits()
                           + stats.cache.total_misses())
    reset_metrics()
