"""The persistent artifact cache: keys, hits, corruption, escape hatches."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import BASELINE, CacheSpec
from repro.spec import WorkloadSpec
from repro.runner.artifacts import (
    TraceLayer,
    UncacheableError,
    annotations_artifact,
    artifact_key,
    cache_root,
    cache_stats,
    cached_artifact,
    canonicalize,
    reset_cache_stats,
    trace_artifact,
)


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    """Every test gets its own empty cache directory and zeroed stats."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    reset_cache_stats()
    yield
    reset_cache_stats()


def test_hit_and_miss_counters():
    calls = []
    recipe = {"x": 1}
    first = cached_artifact("thing", recipe, lambda: calls.append(1) or 41)
    second = cached_artifact("thing", recipe, lambda: calls.append(1) or 42)
    assert first == second == 41  # second call served from disk
    assert len(calls) == 1
    stats = cache_stats()
    assert stats.misses == {"thing": 1}
    assert stats.hits == {"thing": 1}
    assert stats.stores == {"thing": 1}


def test_key_covers_every_recipe_field():
    base = {"benchmark": "gzip", "length": 1000, "seed": None}
    key = artifact_key("trace", base)
    for field, changed in (
        ("benchmark", "mcf"),
        ("length", 1001),
        ("seed", 7),
    ):
        assert artifact_key("trace", base | {field: changed}) != key
    # the kind and the schema version are part of the key too
    assert artifact_key("other", base) != key
    # an equal recipe keys identically
    assert artifact_key("trace", dict(base)) == key


def test_config_changes_change_annotation_keys():
    base = {"hierarchy": BASELINE.hierarchy.to_dict(),
            "predictor": BASELINE.predictor}
    small = dataclasses.replace(
        BASELINE.hierarchy, l2=CacheSpec(16 * 1024, 4, 128)
    )
    assert (
        artifact_key("annotations", base)
        != artifact_key("annotations", base | {"hierarchy": small.to_dict()})
    )


def test_closures_are_uncacheable_but_still_computed():
    size = 512

    def factory():  # closes over `size`: no stable key exists
        return size

    with pytest.raises(UncacheableError):
        canonicalize(factory)
    value = cached_artifact("thing", {"factory": factory}, lambda: 7)
    assert value == 7
    assert cache_stats().uncacheable == 1
    assert cache_stats().misses == {}  # never reached the disk layer


@pytest.mark.parametrize("value", [BASELINE, BASELINE.predictor_factory],
                         ids=["dataclass", "class"])
def test_recipes_must_be_plain_data(value):
    with pytest.raises(UncacheableError):
        canonicalize({"machine": value})


def test_corrupt_entry_is_recomputed_and_repaired(monkeypatch):
    recipe = {"x": "y"}
    assert cached_artifact("thing", recipe, lambda: [1, 2, 3]) == [1, 2, 3]
    (path,) = (cache_root() / "thing").rglob("*.pkl")
    path.write_bytes(path.read_bytes()[:7])  # truncate mid-stream
    assert cached_artifact("thing", recipe, lambda: [4, 5]) == [4, 5]
    stats = cache_stats()
    assert stats.errors == 1
    assert stats.misses == {"thing": 2}
    # the repaired entry serves the next call
    assert cached_artifact("thing", recipe, lambda: [6]) == [4, 5]


def test_disable_env_var_bypasses_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    calls = []
    for _ in range(2):
        cached_artifact("thing", {"x": 1}, lambda: calls.append(1))
    assert len(calls) == 2
    assert not (cache_root() / "thing").exists()


def test_cache_dir_env_var_moves_the_root(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(override))
    cached_artifact("thing", {"x": 1}, lambda: 1)
    assert any(override.rglob("*.pkl"))


def test_trace_artifact_round_trip():
    first = trace_artifact("gzip", 2_000)
    again = trace_artifact("gzip", 2_000)
    assert np.array_equal(first.pc, again.pc)
    assert np.array_equal(first.taken, again.taken)
    assert cache_stats().hits == {"trace": 1}
    # a different seed is a different artifact
    seeded = trace_artifact("gzip", 2_000, seed=99)
    assert not np.array_equal(first.pc, seeded.pc)


class TestTraceLayer:
    """The in-process layer in front of the trace store."""

    def test_repeats_share_one_trace_and_its_memo(self):
        first = trace_artifact("gzip", 2_000)
        first.memo("probe", lambda: object())
        again = trace_artifact("gzip", 2_000, seed=WorkloadSpec(
            "gzip").resolved_seed())
        assert again is first
        assert again.memo("probe", lambda: None) is not None

    def test_never_outlives_the_stored_artifact(self):
        first = trace_artifact("gzip", 2_000)
        for path in (cache_root() / "trace_chunks").rglob("*.pkl"):
            path.unlink()
        again = trace_artifact("gzip", 2_000)
        assert again is not first
        assert np.array_equal(again.pc, first.pc)
        assert cache_stats().misses["trace"] == 2
        assert trace_artifact("gzip", 2_000) is again

    def test_empties_when_the_cache_root_changes(self, tmp_path,
                                                 monkeypatch):
        first = trace_artifact("gzip", 2_000)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert trace_artifact("gzip", 2_000) is not first
        assert cache_stats().misses["trace"] == 2

    def test_serves_from_memory_while_the_cache_is_disabled(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        first = trace_artifact("gzip", 2_000)
        assert trace_artifact("gzip", 2_000) is first
        assert not (cache_root() / "trace").exists()

    def test_serves_from_memory_when_the_store_cannot_write(
            self, tmp_path, monkeypatch):
        """A read-only or full root stores nothing, so there is no
        artifact to validate against: the layer serves its entry."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        first = trace_artifact("gzip", 2_000)
        assert cache_stats().errors  # nothing was stored
        assert trace_artifact("gzip", 2_000) is first
        assert cache_stats().misses["trace"] == 1
        assert cache_stats().hits["trace"] == 1

    def test_bounded_by_instructions_held(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        layer = TraceLayer(budget=100)
        layer.put("a", [0] * 60)
        layer.put("b", [0] * 30)
        assert layer.get("a") is not None  # b is now least recent
        layer.put("c", [0] * 30)
        assert layer.get("b") is None
        assert layer.get("a") is not None and layer.get("c") is not None
        oversized = [0] * 101
        assert layer.put("d", oversized) is oversized
        assert layer.get("d") is None
        assert layer.get("a") is not None

    def test_forked_child_never_inherits_a_held_lock(self):
        import os

        from repro.runner import artifacts

        with artifacts._TRACES._lock:
            pid = os.fork()
            if pid == 0:
                os._exit(0 if artifacts._TRACES._lock.acquire(timeout=5)
                         else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_racing_threads_keep_the_budget(self, monkeypatch):
        import random
        import sys
        import threading

        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        layer = TraceLayer(budget=100)

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(2_000):
                key = f"k{rng.randrange(10)}"
                if layer.get(key) is None:
                    layer.put(key, [0] * rng.randrange(10, 41))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        held = sum(len(t) for t, _ in layer._traces.values())
        assert layer._held == held <= 100


def _assert_same_columns(a, b):
    from repro.trace.trace import _COLUMNS

    for col, _ in _COLUMNS:
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


class TestTraceStore:
    """The chunk store is a trace's only disk form."""

    def test_cold_miss_stores_one_manifest_and_its_payloads(self):
        from repro.runner.artifacts import (
            chunk_payload_path,
            trace_chunk_manifest,
        )

        trace_artifact("gzip", 2_000)
        root = cache_root()
        assert not (root / "trace").exists()
        assert len(list((root / "trace_chunks").rglob("*.pkl"))) == 1
        manifest = trace_chunk_manifest("gzip", 2_000)
        payloads = {chunk_payload_path(k) for k in manifest["keys"]}
        assert set((root / "chunks").rglob("*.rtc")) == payloads

    def test_emptied_layer_materializes_from_the_manifest(self,
                                                          monkeypatch):
        from repro.runner import artifacts
        from repro.trace.vectorgen import ChunkedTraceGenerator

        first = trace_artifact("gzip", 2_000)
        artifacts._TRACES.clear()
        reset_cache_stats()
        calls = []
        chunks = ChunkedTraceGenerator.chunks
        monkeypatch.setattr(
            ChunkedTraceGenerator, "chunks",
            lambda *a, **kw: calls.append(1) or chunks(*a, **kw))
        again = trace_artifact("gzip", 2_000)
        assert again is not first
        assert calls == []
        _assert_same_columns(again, first)
        assert cache_stats().hits["trace"] == 1
        assert "trace" not in cache_stats().misses

    def test_torn_payload_regenerates_the_right_bytes(self):
        from repro.runner import artifacts

        first = trace_artifact("gzip", 2_000)
        (key,) = artifacts.trace_chunk_manifest("gzip", 2_000)["keys"]
        path = artifacts.chunk_payload_path(key)
        path.write_bytes(path.read_bytes()[:100])  # a torn write
        artifacts._TRACES.clear()
        reset_cache_stats()
        again = trace_artifact("gzip", 2_000)
        _assert_same_columns(again, first)
        assert cache_stats().errors == 1
        assert path.stat().st_size > 100  # republished

    def test_a_pickled_trace_is_never_read(self):
        from repro.runner import artifacts

        key = artifact_key("trace", WorkloadSpec("gzip", 2_000).canonical())
        stale = cache_root() / "trace" / key[:2] / f"{key}.pkl"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"not a pickle")
        first = trace_artifact("gzip", 2_000)
        artifacts._TRACES.clear()
        again = trace_artifact("gzip", 2_000)
        _assert_same_columns(again, first)
        assert cache_stats().errors == 0
        assert stale.read_bytes() == b"not a pickle"


def _hammer_store(args):
    """Worker: repeatedly publish a self-consistent payload under KEY."""
    root, key, fill, rounds = args
    import os

    import numpy as np

    os.environ["REPRO_CACHE_DIR"] = root
    from repro.runner import artifacts

    for _ in range(rounds):
        artifacts.store_artifact(
            "race", key, np.full(20_000, fill, dtype=np.int64))
    return artifacts.cache_stats().errors


def _hammer_read(args):
    """Worker: read KEY continuously; every hit must be untorn."""
    root, key, rounds = args
    import os

    os.environ["REPRO_CACHE_DIR"] = root
    from repro.runner import artifacts

    torn = 0
    hits = 0
    for _ in range(rounds):
        found, value = artifacts.probe_artifact("race", key)
        if not found:
            continue
        hits += 1
        # a torn entry would deserialize to garbage (or not at all —
        # which _load counts as an error); a valid one is constant
        if value.shape != (20_000,) or (value != value[0]).any():
            torn += 1
    return torn, hits, artifacts.cache_stats().errors


class TestConcurrentAccess:
    """Racing writers and a concurrent reader never see a torn entry.

    The cache publishes with write-to-temp + ``os.replace``; these tests
    drive that invariant from separate *processes* so the race is real
    (distinct file descriptors, no GIL serialization of the I/O).
    """

    def test_two_writers_and_readers_race_one_key(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        root = str(tmp_path / "cache")
        key = artifact_key("race", {"who": "everyone"})
        rounds = 60
        with ProcessPoolExecutor(max_workers=4) as pool:
            # seed the entry so readers always have something to load;
            # the interesting part is replacing it mid-read
            pool.submit(_hammer_store, (root, key, 7, 1)).result(timeout=60)
            writers = [
                pool.submit(_hammer_store, (root, key, fill, rounds))
                for fill in (1, 2)
            ]
            readers = [
                pool.submit(_hammer_read, (root, key, rounds * 3))
                for _ in range(2)
            ]
            write_errors = [f.result(timeout=120) for f in writers]
            read_outcomes = [f.result(timeout=120) for f in readers]
        assert write_errors == [0, 0]
        total_hits = 0
        for torn, hits, errors in read_outcomes:
            assert torn == 0, "reader observed a torn entry"
            assert errors == 0, "reader hit an unreadable entry"
            total_hits += hits
        assert total_hits > 0, "the race never actually overlapped"

    def test_racing_threads_compute_consistent_values(self):
        import threading

        import numpy as np

        results = []
        lock = threading.Lock()
        recipe = {"shared": True}

        def compute_mine(fill):
            def compute():
                return np.full(5_000, fill, dtype=np.int64)
            value = cached_artifact("race-thread", recipe, compute)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=compute_mine, args=(fill,))
                   for fill in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 8
        for value in results:
            assert value.shape == (5_000,)
            assert (value == value[0]).all(), "torn payload"
        assert cache_stats().errors == 0
        # afterwards the published entry is whole and serves reads
        found_value = cached_artifact(
            "race-thread", recipe, lambda: pytest.fail("must be a hit"))
        assert (found_value == found_value[0]).all()


def test_annotations_artifact_round_trip(gzip_trace):
    kwargs = dict(machine=BASELINE, benchmark="gzip",
                  length=len(gzip_trace), seed=None)
    first = annotations_artifact(gzip_trace, **kwargs)
    again = annotations_artifact(gzip_trace, **kwargs)
    assert np.array_equal(first.fetch_stall, again.fetch_stall)
    assert np.array_equal(first.mispredicted, again.mispredicted)
    assert cache_stats().hits == {"annotations": 1}
