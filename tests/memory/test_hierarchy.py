"""Tests for the two-level hierarchy and the short/long miss taxonomy."""

from repro.config import CacheSpec, HierarchySpec
from repro.memory.hierarchy import AccessOutcome, CacheHierarchy


def small_hierarchy(**kw):
    return CacheHierarchy(HierarchySpec(
        l1i=CacheSpec(256, 2, 64),
        l1d=CacheSpec(256, 2, 64),
        l2=CacheSpec(1024, 2, 64),
        **kw,
    ))


class TestOutcomes:
    def test_cold_access_goes_to_memory(self):
        h = small_hierarchy()
        assert h.access_data(0) is AccessOutcome.MEMORY

    def test_warm_access_hits_l1(self):
        h = small_hierarchy()
        h.access_data(0)
        assert h.access_data(0) is AccessOutcome.L1_HIT

    def test_l1_victim_hits_l2(self):
        h = small_hierarchy()
        # fill one L1 set (2 ways) then a third alias evicts the first;
        # L1 has 2 sets of 64B lines -> set stride 128
        h.access_data(0)
        h.access_data(128)
        h.access_data(256)  # evicts line 0 from L1, L2 still holds it
        assert h.access_data(0) is AccessOutcome.L2_HIT

    def test_outcome_flags(self):
        assert AccessOutcome.L2_HIT.is_short_miss
        assert AccessOutcome.MEMORY.is_long_miss
        assert not AccessOutcome.L1_HIT.is_short_miss
        assert not AccessOutcome.L1_HIT.is_long_miss

    def test_instruction_and_data_l1s_are_split(self):
        h = small_hierarchy()
        h.access_data(0)
        # same line via the I-side must miss L1I (but hit the shared L2)
        assert h.access_instruction(0) is AccessOutcome.L2_HIT


class TestIdealFlags:
    def test_ideal_icache_always_hits(self):
        h = small_hierarchy(ideal_icache=True)
        assert h.access_instruction(0) is AccessOutcome.L1_HIT
        assert h.istats.l1_hits == 1

    def test_ideal_dcache_always_hits(self):
        h = small_hierarchy(ideal_dcache=True)
        assert h.access_data(12345) is AccessOutcome.L1_HIT

    def test_ideal_icache_does_not_touch_l2(self):
        h = small_hierarchy(ideal_icache=True)
        h.access_instruction(0)
        assert h.l2.stats.accesses == 0


class TestStats:
    def test_stats_record_each_class(self):
        h = small_hierarchy()
        h.access_data(0)       # memory
        h.access_data(0)       # l1 hit
        h.access_data(128)
        h.access_data(256)
        h.access_data(0)       # l2 hit (evicted from L1 above)
        assert h.dstats.long_misses == 3
        assert h.dstats.l1_hits == 1
        assert h.dstats.short_misses == 1
        assert h.dstats.accesses == 5

    def test_reset(self):
        h = small_hierarchy()
        h.access_data(0)
        h.reset()
        assert h.dstats.accesses == 0
        assert h.access_data(0) is AccessOutcome.MEMORY


class TestTiming:
    def test_data_latency(self):
        h = small_hierarchy()
        cfg = h.config
        assert h.data_latency(AccessOutcome.L1_HIT, 2) == 2
        assert h.data_latency(AccessOutcome.L2_HIT, 2) == 2 + cfg.l2_latency
        assert h.data_latency(AccessOutcome.MEMORY, 2) == 2 + cfg.memory_latency

    def test_fetch_stall(self):
        h = small_hierarchy()
        cfg = h.config
        assert h.fetch_stall(AccessOutcome.L1_HIT) == 0
        assert h.fetch_stall(AccessOutcome.L2_HIT) == cfg.l2_latency
        assert h.fetch_stall(AccessOutcome.MEMORY) == cfg.memory_latency

    def test_default_config_used_when_none(self):
        h = CacheHierarchy()
        assert h.config.memory_latency == 200
