"""Tests for the functional miss-event collector."""

import numpy as np
import pytest

from repro.config import HierarchySpec
from repro.frontend.collector import CollectorConfig, MissEventCollector, collect_events


class TestBasicCollection:
    def test_counts_are_consistent(self, gzip_trace):
        p = collect_events(gzip_trace)
        assert p.length == len(gzip_trace)
        assert p.branch_count == int(gzip_trace.branches.sum())
        assert p.load_count == int(gzip_trace.loads.sum())
        assert 0 <= p.misprediction_count <= p.branch_count
        assert p.dcache_long_count == len(p.long_miss_indices)
        assert p.misprediction_count == len(p.misprediction_indices)

    def test_fetch_accesses_at_line_granularity(self, gzip_trace):
        p = collect_events(gzip_trace)
        assert p.fetch_line_accesses < p.length
        assert p.icache_short_count + p.icache_long_count <= p.fetch_line_accesses

    def test_indices_are_sorted_and_in_range(self, mcf_trace,
                                          pressure_profile):
        p = pressure_profile
        idx = p.long_miss_indices
        assert (np.diff(idx) > 0).all()
        assert idx.min() >= 0 and idx.max() < len(mcf_trace)
        # long-miss indices point at loads
        assert mcf_trace.loads[idx].all()

    def test_misprediction_indices_point_at_branches(self, gzip_trace):
        p = collect_events(gzip_trace)
        assert gzip_trace.branches[p.misprediction_indices].all()

    def test_empty_trace_rejected(self, gzip_trace):
        with pytest.raises(ValueError):
            MissEventCollector().collect(gzip_trace[0:0])


class TestIdealConfigs:
    def test_ideal_predictor_removes_mispredictions(self, gzip_trace):
        cfg = CollectorConfig(ideal_predictor=True)
        p = MissEventCollector(cfg).collect(gzip_trace)
        assert p.misprediction_count == 0

    def test_ideal_caches_remove_misses(self, mcf_trace):
        cfg = CollectorConfig(hierarchy=HierarchySpec().ideal())
        p = MissEventCollector(cfg).collect(mcf_trace)
        assert p.icache_short_count == 0
        assert p.icache_long_count == 0
        assert p.dcache_short_count == 0
        assert p.dcache_long_count == 0


class TestWarming:
    def test_warming_reduces_misses(self, gzip_trace):
        cold = MissEventCollector(
            CollectorConfig(warmup_passes=0)
        ).collect(gzip_trace)
        warm = MissEventCollector(
            CollectorConfig(warmup_passes=1)
        ).collect(gzip_trace)
        assert warm.dcache_long_count <= cold.dcache_long_count
        assert warm.misprediction_count <= cold.misprediction_count

    def test_extra_warmup_passes_converge(self, gzip_trace):
        one = MissEventCollector(
            CollectorConfig(warmup_passes=1)
        ).collect(gzip_trace)
        three = MissEventCollector(
            CollectorConfig(warmup_passes=3)
        ).collect(gzip_trace)
        # cache contents converge after the first pass; predictor may
        # still drift slightly
        assert abs(three.dcache_long_count - one.dcache_long_count) <= max(
            5, 0.2 * one.dcache_long_count
        )


class TestAnnotations:
    def test_absent_by_default(self, gzip_trace):
        assert collect_events(gzip_trace).annotations is None

    def test_annotations_match_counts(self, mcf_trace, pressure_profile,
                                      small_l2_hierarchy):
        p = pressure_profile
        a = p.annotations
        assert a is not None
        assert len(a) == len(mcf_trace)
        assert int(a.mispredicted.sum()) == p.misprediction_count
        assert int(a.long_miss.sum()) == p.dcache_long_count
        assert int((a.load_extra == small_l2_hierarchy.l2_latency).sum()) == (
            p.dcache_short_count
        )
        assert int((a.fetch_stall > 0).sum()) == (
            p.icache_short_count + p.icache_long_count
        )

    def test_long_misses_get_memory_latency(self, pressure_profile,
                                            small_l2_hierarchy):
        a = pressure_profile.annotations
        assert a.long_miss.any()
        assert (
            a.load_extra[a.long_miss] == small_l2_hierarchy.memory_latency
        ).all()

    def test_stall_only_on_memory_instructions(self, gzip_trace):
        p = MissEventCollector().collect(gzip_trace, annotate=True)
        a = p.annotations
        assert not a.load_extra[~gzip_trace.loads].any()


class TestDerivedRates:
    def test_rates_bounded(self, mcf_trace):
        p = collect_events(mcf_trace)
        assert 0 <= p.misprediction_rate <= 1
        assert 0 <= p.short_miss_rate_per_load <= 1
        assert 0 <= p.long_miss_rate_per_load <= 1

    def test_effective_latency_exceeds_static(self, vpr_trace):
        from repro.isa.latency import LatencyTable

        p = collect_events(vpr_trace)
        static = LatencyTable().mean_latency(dict(p.trace_stats.mix))
        effective = p.effective_mean_latency(LatencyTable(), l2_latency=8)
        assert effective >= static

    def test_overlap_factor_monotone_in_window(self, pressure_profile):
        p = pressure_profile
        # bigger ROB -> more grouping -> smaller factor
        assert p.overlap_factor(256) <= p.overlap_factor(64) + 1e-9

    def test_overlap_factor_one_without_misses(self, gzip_trace):
        cfg = CollectorConfig(hierarchy=HierarchySpec().ideal())
        p = MissEventCollector(cfg).collect(gzip_trace)
        assert p.overlap_factor(128) == 1.0
