"""Tests for the set-associative LRU cache, including property-based
checks of the LRU discipline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheSpec
from repro.memory.cache import Cache


def tiny_cache(assoc=2, sets=2, line=64):
    return Cache(CacheSpec(size_bytes=assoc * sets * line,
                           associativity=assoc, line_bytes=line))


class TestBasics:
    def test_first_access_misses(self):
        c = tiny_cache()
        assert c.access(0) is False

    def test_second_access_hits(self):
        c = tiny_cache()
        c.access(0)
        assert c.access(0) is True

    def test_same_line_hits(self):
        c = tiny_cache(line=64)
        c.access(0)
        assert c.access(63) is True

    def test_adjacent_line_misses(self):
        c = tiny_cache(line=64)
        c.access(0)
        assert c.access(64) is False

    def test_stats_track_accesses(self):
        c = tiny_cache()
        c.access(0)
        c.access(0)
        c.access(64)
        assert c.stats.accesses == 3
        assert c.stats.misses == 2
        assert c.stats.hits == 1
        assert c.stats.miss_rate == pytest.approx(2 / 3)

    def test_stats_reset(self):
        c = tiny_cache()
        c.access(0)
        c.stats.reset()
        assert c.stats.accesses == 0
        assert c.stats.miss_rate == 0.0


class TestLRU:
    def test_eviction_of_least_recent(self):
        c = tiny_cache(assoc=2, sets=1, line=64)
        c.access(0)      # A
        c.access(64)     # B
        c.access(0)      # touch A -> B is LRU
        c.access(128)    # C evicts B
        assert c.access(0) is True     # A survived
        assert c.access(64) is False   # B was evicted

    def test_associativity_respected(self):
        c = tiny_cache(assoc=2, sets=1, line=64)
        for addr in (0, 64, 128):
            c.access(addr)
        assert c.occupancy == 2

    def test_sets_are_independent(self):
        c = tiny_cache(assoc=1, sets=2, line=64)
        c.access(0)    # set 0
        c.access(64)   # set 1
        assert c.access(0) is True
        assert c.access(64) is True


class TestProbeAndTouch:
    def test_probe_does_not_modify(self):
        c = tiny_cache()
        assert c.probe(0) is False
        assert c.stats.accesses == 0
        assert c.access(0) is False  # still a miss

    def test_probe_after_fill(self):
        c = tiny_cache()
        c.access(0)
        assert c.probe(0) is True

    def test_touch_installs_without_counting(self):
        c = tiny_cache()
        c.touch(0)
        assert c.stats.accesses == 0
        assert c.access(0) is True

    def test_touch_refreshes_lru(self):
        c = tiny_cache(assoc=2, sets=1, line=64)
        c.access(0)
        c.access(64)
        c.touch(0)       # A becomes MRU
        c.access(128)    # evicts B
        assert c.probe(0) is True
        assert c.probe(64) is False

    def test_flush(self):
        c = tiny_cache()
        c.access(0)
        c.flush()
        assert c.occupancy == 0
        assert c.access(0) is False


class TestLRUProperty:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru(self, lines):
        """The cache agrees with a straightforward per-set LRU reference
        model on arbitrary access sequences."""
        geometry = CacheSpec(size_bytes=2 * 2 * 64, associativity=2,
                             line_bytes=64)
        cache = Cache(geometry)
        reference: dict[int, list[int]] = {0: [], 1: []}
        for line in lines:
            addr = line * 64
            s = geometry.set_index(addr)
            tag = geometry.tag(addr)
            expect_hit = tag in reference[s]
            got_hit = cache.access(addr)
            assert got_hit == expect_hit
            if expect_hit:
                reference[s].remove(tag)
            reference[s].insert(0, tag)
            del reference[s][2:]

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        geometry = CacheSpec(1024, 4, 64)
        cache = Cache(geometry)
        for line in lines:
            cache.access(line * 64)
        assert cache.occupancy <= geometry.num_lines

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_immediate_rereference_always_hits(self, lines):
        cache = Cache(CacheSpec(1024, 4, 64))
        for line in lines:
            cache.access(line * 64)
            assert cache.access(line * 64) is True
