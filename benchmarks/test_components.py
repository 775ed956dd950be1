"""Microbenchmarks of the library's primitives.

Unlike the per-figure benchmarks (which time a whole experiment once),
these time the individual building blocks with repetition, so regressions
in the hot paths — trace generation, functional collection, idealized IW
simulation, detailed simulation — are visible.
"""

import pytest

from repro.config import BASELINE
from repro.core.model import FirstOrderModel
from repro.frontend.collector import MissEventCollector
from repro.simulator.processor import DetailedSimulator
from repro.trace.synthetic import generate_trace
from repro.trace.trace import StreamingRenamer
from repro.window.iw_simulator import simulate_unbounded_issue

LENGTH = 20_000


@pytest.fixture(scope="module")
def trace():
    return generate_trace("gzip", LENGTH)


@pytest.fixture(scope="module")
def annotations(trace):
    return DetailedSimulator(BASELINE).annotate(trace)


def test_trace_generation(benchmark):
    result = benchmark(generate_trace, "gzip", LENGTH)
    assert len(result) == LENGTH


def test_dependence_renaming(benchmark, trace):
    # the renamer itself: trace.dependences() would time a memo hit
    deps = benchmark(lambda: StreamingRenamer().rename_chunk(trace))
    assert len(deps) == LENGTH


def test_functional_collection(benchmark, trace):
    profile = benchmark(MissEventCollector().collect, trace)
    assert profile.length == LENGTH


def test_iw_point_unbounded(benchmark, trace):
    point = benchmark(simulate_unbounded_issue, trace, 48)
    assert point.ipc > 1.0


def test_detailed_simulation(benchmark, trace, annotations):
    sim = DetailedSimulator(BASELINE, instrument=False)
    result = benchmark(sim.run, trace, annotations)
    assert result.instructions == LENGTH


def test_model_evaluation_end_to_end(benchmark, trace):
    # each round gets a fresh copy with an empty memo, so it times the
    # functional pass and the IW curve as well as Eq. 1
    model = FirstOrderModel(BASELINE)
    report = benchmark.pedantic(
        model.evaluate_trace, setup=lambda: ((trace[:],), {}), rounds=5
    )
    assert report.cpi > 0
