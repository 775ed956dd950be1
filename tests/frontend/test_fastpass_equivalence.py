"""Bit-identity of the fast functional pass against the reference pass.

The vectorized pass (:mod:`repro.frontend.fastpass`) must produce the
same miss-event profile — every count, every index array, every
annotation — as the instruction-at-a-time reference, for any hierarchy
and predictor configuration, because both the model and the detailed
simulator are driven from its output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.branch.gshare import GShare
from repro.config import HierarchySpec
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.trace.synthetic import generate_trace


def _profiles(trace, config):
    fast = MissEventCollector(config, engine="fast").collect(
        trace, annotate=True
    )
    ref = MissEventCollector(config, engine="reference").collect(
        trace, annotate=True
    )
    return fast, ref


def assert_profiles_equal(fast, ref) -> None:
    for field in (
        "branch_count", "misprediction_count", "fetch_line_accesses",
        "icache_short_count", "icache_long_count", "load_count",
        "dcache_short_count", "dcache_long_count", "length",
    ):
        assert getattr(fast, field) == getattr(ref, field), field
    for field in ("misprediction_indices", "long_miss_indices"):
        f, r = getattr(fast, field), getattr(ref, field)
        assert f.dtype == r.dtype
        assert np.array_equal(f, r), field
    fa, ra = fast.annotations, ref.annotations
    assert (fa is None) == (ra is None)
    if fa is not None:
        for field in ("fetch_stall", "load_extra", "long_miss",
                      "mispredicted"):
            f, r = getattr(fa, field), getattr(ra, field)
            assert f.dtype == r.dtype
            assert np.array_equal(f, r), field


@pytest.mark.parametrize("bench_name", ("gzip", "mcf", "vortex", "twolf"))
def test_fast_pass_matches_reference(bench_name):
    trace = generate_trace(bench_name, 4_000)
    fast, ref = _profiles(trace, CollectorConfig())
    assert_profiles_equal(fast, ref)


@pytest.mark.parametrize("warmup", (0, 2))
def test_warmup_pass_counts(gzip_trace, warmup):
    fast, ref = _profiles(
        gzip_trace, CollectorConfig(warmup_passes=warmup)
    )
    assert_profiles_equal(fast, ref)


@pytest.mark.parametrize(
    "flags",
    (
        {"ideal_icache": True},
        {"ideal_dcache": True},
        {"ideal_icache": True, "ideal_dcache": True},
    ),
    ids=("ideal-i", "ideal-d", "ideal-both"),
)
def test_ideal_cache_streams(mcf_trace, flags):
    config = CollectorConfig(hierarchy=HierarchySpec(**flags))
    assert_profiles_equal(*_profiles(mcf_trace, config))


def test_ideal_predictor(vpr_trace):
    config = CollectorConfig(ideal_predictor=True)
    fast, ref = _profiles(vpr_trace, config)
    assert fast.misprediction_count == 0
    assert_profiles_equal(fast, ref)


def test_custom_geometry_and_predictor(mcf_trace, small_l2_hierarchy):
    config = CollectorConfig(
        hierarchy=small_l2_hierarchy,
        predictor_factory=lambda: GShare(entries=256, history_bits=6),
    )
    fast, ref = _profiles(mcf_trace, config)
    assert fast.dcache_long_count > 30
    assert_profiles_equal(fast, ref)


def test_non_gshare_predictor_falls_back(gzip_trace):
    """Predictors without a vectorized path go through the generic
    observe() loop and still match the reference exactly."""
    from repro.branch.simple import Bimodal

    config = CollectorConfig(predictor_factory=lambda: Bimodal(entries=512))
    assert_profiles_equal(*_profiles(gzip_trace, config))
