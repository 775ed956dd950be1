"""Shared fixtures: small cached traces and the baseline machine.

Tests use short traces (a few thousand instructions) so the whole suite
runs in well under a minute; full-length runs live in ``benchmarks/``.
"""

from __future__ import annotations

import os

import pytest

from repro.config import BASELINE, CacheSpec, HierarchySpec, MachineSpec
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace

#: short-but-representative test trace length
TEST_TRACE_LENGTH = 4_000


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the persistent artifact cache at a per-session tmpdir.

    Tests must neither depend on nor pollute the user's real cache
    (``~/.cache/repro-firstorder``); within the session the cache still
    works normally, so cross-test reuse is exercised.
    """
    prior = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("artifact-cache")
    )
    yield
    if prior is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = prior


@pytest.fixture(scope="session")
def gzip_trace() -> Trace:
    """A mid-ILP benchmark trace (beta ~ 0.5)."""
    return generate_trace("gzip", TEST_TRACE_LENGTH)


@pytest.fixture(scope="session")
def vpr_trace() -> Trace:
    """The low-ILP extreme (beta ~ 0.3, high latency)."""
    return generate_trace("vpr", TEST_TRACE_LENGTH)


@pytest.fixture(scope="session")
def vortex_trace() -> Trace:
    """The high-ILP extreme (beta ~ 0.7)."""
    return generate_trace("vortex", TEST_TRACE_LENGTH)


@pytest.fixture(scope="session")
def mcf_trace() -> Trace:
    """The long-miss-dominated benchmark."""
    return generate_trace("mcf", TEST_TRACE_LENGTH)


@pytest.fixture(scope="session")
def baseline() -> MachineSpec:
    return BASELINE


@pytest.fixture(scope="session")
def small_l2_hierarchy():
    """A pressure hierarchy whose 16 KB L2 produces plenty of long misses
    even on short test traces (the baseline 512 KB L2 absorbs almost all
    of a 4 000-instruction working set after functional warming)."""
    return HierarchySpec(
        l1i=CacheSpec(1024, 2, 128),
        l1d=CacheSpec(1024, 2, 128),
        l2=CacheSpec(16 * 1024, 4, 128),
    )


@pytest.fixture(scope="session")
def pressure_profile(mcf_trace, small_l2_hierarchy):
    """An mcf miss-event profile with a meaningful long-miss population."""
    from repro.frontend.collector import CollectorConfig, MissEventCollector

    profile = MissEventCollector(
        CollectorConfig(hierarchy=small_l2_hierarchy)
    ).collect(mcf_trace, annotate=True)
    assert profile.dcache_long_count > 30
    return profile


@pytest.fixture(scope="session")
def tiny_config() -> MachineSpec:
    """A small machine that exercises structural limits quickly."""
    return MachineSpec(
        pipeline_depth=3, width=2, window_size=8, rob_size=16
    )


@pytest.fixture
def counted(monkeypatch):
    """Counts real IW-curve measurements and functional passes, through
    the names a tracing harness wraps."""
    from repro.core import steady_state
    from repro.frontend.collector import MissEventCollector

    calls = {"iw": 0, "collect": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(steady_state, "measure_iw_curve", counting(
        "iw", steady_state.measure_iw_curve))
    monkeypatch.setattr(MissEventCollector, "collect", counting(
        "collect", MissEventCollector.collect))
    return calls
