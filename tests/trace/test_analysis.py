"""Tests for trace statistics, including property-based checks on the
event-distance and group-size machinery behind Eq. 8."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.latency import LatencyTable
from repro.trace.analysis import (
    StreamingTraceAnalyzer,
    TraceStatistics,
    analyze_trace,
    event_distances,
    group_size_distribution,
)
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace
from repro.trace.vectorgen import stream_chunks


class TestAnalyzeTrace:
    def test_basic_fields(self, gzip_trace):
        st_ = analyze_trace(gzip_trace)
        assert st_.length == len(gzip_trace)
        assert 0 < st_.branch_fraction < 0.5
        assert 0 < st_.load_fraction < 0.5
        assert st_.mean_latency >= 1.0

    def test_histogram_counts_all_present_operands(self, gzip_trace):
        st_ = analyze_trace(gzip_trace)
        deps = gzip_trace.dependences()
        present = int((deps.dep1 >= 0).sum() + (deps.dep2 >= 0).sum())
        assert int(st_.dependence_distance_histogram.sum()) == present

    def test_instructions_per_branch(self, gzip_trace):
        st_ = analyze_trace(gzip_trace)
        assert st_.instructions_per_branch == pytest.approx(
            1.0 / st_.branch_fraction
        )

    def test_empty_trace_rejected(self):
        empty = Trace(
            *(np.zeros(0, dtype=d) for d in
              (np.int64, np.int8, np.int16, np.int16, np.int16, np.int64,
               np.bool_, np.int64))
        )
        with pytest.raises(ValueError):
            analyze_trace(empty)

    def test_default_statistics_are_memoized_on_the_trace(self, gzip_trace):
        """Every functional pass attaches the default statistics, so they
        are computed once per trace; other arguments compute afresh."""
        from repro.frontend.collector import MissEventCollector

        stats = analyze_trace(gzip_trace)
        assert analyze_trace(gzip_trace) is stats
        assert MissEventCollector().collect(
            gzip_trace, annotate=True).trace_stats is stats
        fresh = analyze_trace(gzip_trace, LatencyTable())
        assert fresh is not stats
        assert fresh.mix == stats.mix
        assert fresh.mean_latency == stats.mean_latency
        assert (fresh.mean_dependence_distance
                == stats.mean_dependence_distance)
        assert np.array_equal(fresh.dependence_distance_histogram,
                              stats.dependence_distance_histogram)

    def test_custom_latency_table(self, gzip_trace):
        slow = LatencyTable.unit().replace(ialu=10)
        fast = analyze_trace(gzip_trace, LatencyTable.unit())
        heavy = analyze_trace(gzip_trace, slow)
        assert heavy.mean_latency > fast.mean_latency


@pytest.mark.parametrize("chunk_size", [512, 1009, None],
                         ids=["512", "1009", "whole"])
def test_streaming_analyzer_matches_analyze_trace(chunk_size):
    """Statistics accumulated chunk by chunk over a generated stream
    equal the in-memory trace's, field for field."""
    length = 8_000
    analyzer = StreamingTraceAnalyzer()
    for chunk in stream_chunks("vortex", length,
                               chunk_size=chunk_size or length):
        analyzer.update(chunk)
    got = analyzer.finalize()
    ref = analyze_trace(generate_trace("vortex", length))
    for field in dataclasses.fields(TraceStatistics):
        g, r = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(r, np.ndarray):
            assert g.dtype == r.dtype, field.name
            assert np.array_equal(g, r), field.name
        else:
            assert g == r, field.name


class TestEventDistances:
    def test_simple(self):
        assert event_distances(np.array([1, 5, 9])).tolist() == [4, 4]

    def test_empty(self):
        assert event_distances(np.array([], dtype=np.int64)).size == 0

    def test_single_event(self):
        assert event_distances(np.array([7])).size == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            event_distances(np.array([5, 1]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            event_distances(np.array([[1, 2]]))


class TestGroupSizeDistribution:
    def test_isolated_events(self):
        f = group_size_distribution(np.array([0, 200, 400]), window=100)
        assert f.tolist() == [1.0]

    def test_one_pair(self):
        f = group_size_distribution(np.array([0, 50, 400]), window=100)
        # 2 of 3 events in a pair, 1 isolated
        assert f[0] == pytest.approx(1 / 3)
        assert f[1] == pytest.approx(2 / 3)

    def test_group_anchored_at_first_event(self):
        # 0, 90, 180: 90 joins 0's group; 180 is beyond 0+window
        f = group_size_distribution(np.array([0, 90, 180]), window=128)
        assert len(f) == 2
        assert f[1] == pytest.approx(2 / 3)

    def test_empty(self):
        assert group_size_distribution(np.array([]), window=10).size == 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            group_size_distribution(np.array([1]), window=0)

    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
        st.integers(1, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_probability_distribution(self, raw, window):
        events = np.array(sorted(set(raw)), dtype=np.int64)
        f = group_size_distribution(events, window)
        assert f.min() >= 0
        assert f.sum() == pytest.approx(1.0)

    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
        st.integers(1, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_factor_bounds(self, raw, window):
        """Sum f(i)/i is in (0, 1]: overlap can only reduce the penalty."""
        events = np.array(sorted(set(raw)), dtype=np.int64)
        f = group_size_distribution(events, window)
        sizes = np.arange(1, len(f) + 1)
        factor = float((f / sizes).sum())
        assert 0 < factor <= 1.0 + 1e-9

    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_tiny_window_isolates_everything(self, raw):
        events = np.array(sorted(set(raw)), dtype=np.int64)
        f = group_size_distribution(events, window=1)
        assert f.tolist() == [1.0]

    @given(st.lists(st.integers(0, 500), min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_huge_window_groups_everything(self, raw):
        events = np.array(sorted(set(raw)), dtype=np.int64)
        f = group_size_distribution(events, window=10_000)
        # a single group of size len(events)
        assert f[-1] == pytest.approx(1.0)
        assert len(f) == len(events)
