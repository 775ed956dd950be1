"""Bit-identity of the fast functional pass against the reference pass.

The vectorized pass (:mod:`repro.frontend.fastpass`) must produce the
same miss-event profile — every count, every index array, every
annotation — as the instruction-at-a-time reference, for any hierarchy
and predictor configuration, because both the model and the detailed
simulator are driven from its output.  These are the fixed cases of the
differential harness (:mod:`tests.frontend.test_pass_fuzz`): full-size
traces on named configurations, each checked reference == fast ==
streamed with the final cache and predictor state.
"""

from __future__ import annotations

import pytest

from repro.branch.gshare import GShare
from repro.config import HierarchySpec
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.trace.synthetic import generate_trace
from tests.frontend.test_pass_fuzz import assert_passes_agree


@pytest.mark.parametrize("bench_name", ("gzip", "mcf", "vortex", "twolf"))
def test_fast_pass_matches_reference(bench_name):
    assert_passes_agree(generate_trace(bench_name, 4_000), CollectorConfig())


@pytest.mark.parametrize("warmup", (0, 2))
def test_warmup_pass_counts(gzip_trace, warmup):
    assert_passes_agree(gzip_trace, CollectorConfig(warmup_passes=warmup))


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
    assert_passes_agree(mcf_trace, config)


def test_ideal_predictor(vpr_trace):
    config = CollectorConfig(ideal_predictor=True)
    assert MissEventCollector(config).collect(
        vpr_trace).misprediction_count == 0
    assert_passes_agree(vpr_trace, config)


def test_custom_geometry_and_predictor(mcf_trace, small_l2_hierarchy):
    config = CollectorConfig(
        hierarchy=small_l2_hierarchy,
        predictor_factory=lambda: GShare(entries=256, history_bits=6),
    )
    assert MissEventCollector(config).collect(
        mcf_trace).dcache_long_count > 30
    assert_passes_agree(mcf_trace, config)


def test_non_gshare_predictor_falls_back(gzip_trace):
    """Predictors without a vectorized batch run the base class's
    observe() loop and still match the reference exactly."""
    from repro.branch.simple import Bimodal

    config = CollectorConfig(predictor_factory=lambda: Bimodal(entries=512))
    assert_passes_agree(gzip_trace, config)
