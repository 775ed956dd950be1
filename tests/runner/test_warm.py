"""Warm-up checkpoints: a streamed run restores the functional pass's
warmed cache and predictor state from the artifact cache (kind ``warm``)
instead of replaying the warm-up passes over the trace.

A restored run must be indistinguishable from a cold one and from an
uncached one, at every chunk size and for every memory side; the key
must cover exactly the memory side; a damaged checkpoint is a miss.
"""

from __future__ import annotations

import pytest

from repro.config import BASELINE, CacheSpec, HierarchySpec, MachineSpec
from repro.obs import spans as _spans
from repro.runner import artifacts
from repro.runner.artifacts import cache_root, cache_stats, reset_cache_stats
from repro.runner.pool import execute_spec, simulate_streaming
from repro.simulator.streaming import simulate_stream
from repro.spec import EngineSpec, RunSpec, WorkloadSpec
from repro.telemetry import Telemetry

LENGTH = 20_000


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    reset_cache_stats()
    yield
    reset_cache_stats()


def _spec(benchmark="mcf", machine=BASELINE, chunk_size=4_096,
          instrument=True):
    return RunSpec(workload=WorkloadSpec(benchmark, LENGTH), machine=machine,
                   engine=EngineSpec(instrument=instrument, stream=True,
                                     chunk_size=chunk_size))


def _stream(spec):
    w = spec.workload
    return artifacts.trace_chunk_stream(w.benchmark, w.length, w.seed,
                                        chunk_size=spec.engine.chunk_size)


def _warm_counts() -> tuple[int, int]:
    stats = cache_stats()
    return stats.hits.get("warm", 0), stats.misses.get("warm", 0)


def _cold(spec, warmup_passes=1, telemetry=False):
    """The run with no checkpoint: the warm-up passes replayed."""
    return simulate_stream(_stream(spec), spec.machine,
                           instrument=spec.engine.instrument,
                           warmup_passes=warmup_passes, telemetry=telemetry)


def _assert_restored_run_matches(spec, monkeypatch):
    cold = _cold(spec)
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    uncached = simulate_streaming(spec)
    monkeypatch.delenv("REPRO_CACHE_DISABLE")
    assert _warm_counts() == (0, 0)
    computed = simulate_streaming(spec)
    assert _warm_counts() == (0, 1)
    restored = simulate_streaming(spec)
    assert _warm_counts() == (1, 1)
    assert restored.instrumentation is not None
    assert restored == computed == uncached == cold


@pytest.mark.parametrize("chunk_size", [1_024, 4_096, 16_384])
def test_restored_run_matches_at_every_chunk_size(chunk_size, monkeypatch):
    _assert_restored_run_matches(_spec(chunk_size=chunk_size), monkeypatch)


@pytest.mark.parametrize("predictor",
                         ["gshare", "bimodal", "local", "tournament"])
def test_restored_run_matches_for_every_predictor(predictor, monkeypatch):
    machine = MachineSpec(predictor=predictor)
    _assert_restored_run_matches(_spec("gcc", machine), monkeypatch)


@pytest.mark.parametrize("machine", [
    MachineSpec(hierarchy=HierarchySpec(ideal_icache=True)),
    MachineSpec(hierarchy=HierarchySpec(ideal_dcache=True)),
    MachineSpec(ideal_predictor=True),
], ids=["ideal_icache", "ideal_dcache", "ideal_predictor"])
def test_restored_run_matches_with_ideal_structures(machine, monkeypatch):
    _assert_restored_run_matches(_spec("vortex", machine), monkeypatch)


@pytest.mark.parametrize("passes", [0, 1, 2])
def test_restored_state_matches_any_warmup_count(passes, monkeypatch):
    spec = _spec("twolf", chunk_size=3_000)

    def restored():
        warm = artifacts.warm_artifact(
            _stream(spec), spec.machine, "twolf", LENGTH,
            warmup_passes=passes)
        return simulate_stream(_stream(spec), spec.machine,
                               instrument=True, warmup_passes=passes,
                               warm=warm)

    cold = _cold(spec, warmup_passes=passes)
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    uncached = restored()
    monkeypatch.delenv("REPRO_CACHE_DISABLE")
    computed = restored()
    hit = restored()
    assert _warm_counts() == (1, 1)
    assert hit == computed == uncached == cold


def test_state_from_another_warmup_count_is_rejected():
    spec = _spec("twolf")
    warm = artifacts.warm_artifact(_stream(spec), spec.machine, "twolf",
                                   LENGTH, warmup_passes=2)
    with pytest.raises(ValueError, match="warm-up"):
        simulate_stream(_stream(spec), spec.machine, warmup_passes=1,
                        warm=warm)


def test_restored_run_matches_without_instrumentation():
    spec = _spec("mcf", instrument=False)
    cold = _cold(spec)
    simulate_streaming(spec)
    assert simulate_streaming(spec) == cold
    assert _warm_counts() == (1, 1)


def test_restored_run_reports_the_same_telemetry():
    spec = _spec("mcf", chunk_size=1_024)
    t_cold, t_computed, t_restored = Telemetry(), Telemetry(), Telemetry()
    cold = _cold(spec, telemetry=t_cold)
    computed = simulate_streaming(spec, telemetry=t_computed)
    restored = simulate_streaming(spec, telemetry=t_restored)
    assert _warm_counts() == (1, 1)
    assert restored == computed == cold
    assert t_restored.report == t_computed.report == t_cold.report


def test_core_variants_and_chunk_sizes_share_one_checkpoint():
    """The key is the workload plus the memory side: core-only variants
    and other chunk sizes hit it; another L2 or predictor misses."""
    execute_spec(_spec())
    assert _warm_counts() == (0, 1)
    hits = 0
    for machine in (MachineSpec(pipeline_depth=10), MachineSpec(width=2),
                    MachineSpec(window_size=96)):
        execute_spec(_spec(machine=machine))
        hits += 1
        assert _warm_counts() == (hits, 1)
    for chunk_size in (1_024, 16_384):
        execute_spec(_spec(chunk_size=chunk_size))
        hits += 1
        assert _warm_counts() == (hits, 1)
    misses = 1
    for machine in (
            MachineSpec(hierarchy=HierarchySpec(l2=CacheSpec(256 * 1024))),
            MachineSpec(predictor="bimodal")):
        execute_spec(_spec(machine=machine))
        misses += 1
        assert _warm_counts() == (hits, misses)
    assert len(list((cache_root() / "warm").glob("*/*.pkl"))) == 3


def test_garbage_checkpoint_is_a_miss():
    spec = _spec()
    expected = simulate_streaming(spec)
    (stored,) = (cache_root() / "warm").glob("*/*.pkl")
    stored.write_bytes(b"not a pickle")
    assert simulate_streaming(spec) == expected
    stats = cache_stats()
    assert stats.errors == 1
    assert _warm_counts() == (0, 2)
    assert stats.stores["warm"] == 2
    # the recomputed checkpoint was stored over the garbage
    assert simulate_streaming(spec) == expected
    assert _warm_counts() == (1, 2)


def test_every_fetch_is_a_fresh_copy():
    spec = _spec()
    fetch = lambda: artifacts.warm_artifact(  # noqa: E731
        _stream(spec), spec.machine, "mcf", LENGTH)
    computed, first, second = fetch(), fetch(), fetch()
    assert _warm_counts() == (2, 1)
    assert first is not second and first is not computed
    assert first.hierarchy.l2 is not second.hierarchy.l2
    assert first.predictor is not second.predictor
    assert first.hierarchy.l2._sets == computed.hierarchy.l2._sets


def test_restored_run_replays_no_warmup():
    """A hit emits no ``frontend.warmup`` span and reads the stored
    trace once, where a miss reads it once per pass."""
    spec = _spec(chunk_size=4_096)
    for _ in _stream(spec):  # store the chunks, as a warm cache has them
        pass
    chunks = -(-LENGTH // 4_096)
    _spans.enable(True)
    _spans.reset()
    try:
        simulate_streaming(spec)
        missed = [s["name"] for s in _spans.drain()]
        simulate_streaming(spec)
        restored = [s["name"] for s in _spans.drain()]
    finally:
        _spans.enable(False)
        _spans.reset()
    assert missed.count("frontend.warmup") == 1
    assert missed.count("chunk.read") == 2 * chunks
    assert "frontend.warmup" not in restored
    assert restored.count("chunk.read") == chunks
    assert restored.count("artifact.warm") == 1
