"""Tests for the cache geometry and hierarchy specs the memory system
is built from."""

import pytest

from repro.config import BASELINE, CacheSpec, HierarchySpec, SpecError

L1I_BASELINE = BASELINE.hierarchy.l1i
L1D_BASELINE = BASELINE.hierarchy.l1d
L2_BASELINE = BASELINE.hierarchy.l2


class TestGeometry:
    def test_paper_baseline_l1(self):
        assert L1I_BASELINE.size_bytes == 4 * 1024
        assert L1I_BASELINE.associativity == 4
        assert L1I_BASELINE.line_bytes == 128
        assert L1I_BASELINE.num_sets == 8

    def test_paper_baseline_l2(self):
        assert L2_BASELINE.size_bytes == 512 * 1024
        assert L2_BASELINE.num_sets == 1024

    def test_num_lines(self):
        assert L1D_BASELINE.num_lines == 32

    def test_set_index_wraps(self):
        g = CacheSpec(1024, 2, 64)  # 8 sets
        assert g.set_index(0) == 0
        assert g.set_index(64) == 1
        assert g.set_index(64 * 8) == 0

    def test_tag_distinguishes_aliases(self):
        g = CacheSpec(1024, 2, 64)
        assert g.tag(0) != g.tag(64 * 8)

    def test_line_address_alignment(self):
        g = CacheSpec(1024, 2, 64)
        assert g.line_address(130) == 128

    @pytest.mark.parametrize("field,value", [
        ("size_bytes", 1000), ("associativity", 3), ("line_bytes", 100),
    ])
    def test_non_power_of_two_rejected(self, field, value):
        kwargs = dict(size_bytes=1024, associativity=2, line_bytes=64)
        kwargs[field] = value
        with pytest.raises(SpecError, match="power of two"):
            CacheSpec(**kwargs)

    def test_cache_smaller_than_one_set_rejected(self):
        with pytest.raises(SpecError, match="smaller"):
            CacheSpec(size_bytes=128, associativity=4, line_bytes=128)


class TestHierarchySpec:
    def test_defaults_match_paper(self):
        cfg = HierarchySpec()
        assert cfg.l2_latency == 8
        assert cfg.memory_latency == 200
        assert not cfg.ideal_icache and not cfg.ideal_dcache

    def test_ideal_copies(self):
        cfg = HierarchySpec().ideal()
        assert cfg.ideal_icache and cfg.ideal_dcache

    def test_with_ideal_partial_override(self):
        cfg = HierarchySpec().with_ideal(icache=True)
        assert cfg.ideal_icache and not cfg.ideal_dcache

    def test_with_ideal_preserves_unset(self):
        cfg = HierarchySpec().ideal().with_ideal(dcache=False)
        assert cfg.ideal_icache and not cfg.ideal_dcache

    def test_memory_slower_than_l2(self):
        with pytest.raises(SpecError, match="exceed"):
            HierarchySpec(l2_latency=200, memory_latency=8)

    def test_latency_bounds(self):
        with pytest.raises(SpecError):
            HierarchySpec(l2_latency=0)
