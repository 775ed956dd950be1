"""Differential fuzzing of the functional miss-event pass.

Three drivers of the paper's functional pass must agree on every input:
the instruction-at-a-time reference collector (the oracle), the fast
collector over a materialized trace, and the streaming collector over
chunks of the same trace at chunk sizes 1, 7 and the whole trace.
Agreeing means every count, both index arrays, all four annotation
arrays, and the final state of the three caches and the predictor.  The
streamed counts are also read from the chunk driver
(:class:`~repro.frontend.fastpass.PassDriver`) that all three fast
paths share, since a fetch-line count shows in no annotation.

Machines are generated: one-set and direct-mapped caches up to 4 ways,
several line sizes, the ideal I/D flags, gShare at several table sizes
and history lengths (0 included), the local-history, tournament and
bimodal predictors, the ideal-predictor flag and 0-2 warm-up passes.
Hand-built pathological traces push the pass where a generator seldom
goes: every instruction a branch, every instruction a load, one pc
alternating taken and not-taken (a mispredict on every branch).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.gshare import GShare
from repro.branch.predictor import BranchPredictor
from repro.branch.simple import (
    Bimodal,
    IdealPredictor,
    PessimalPredictor,
    StaticPredictor,
)
from repro.branch.twolevel import LocalHistory, Tournament
from repro.config import CacheSpec, HierarchySpec
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.frontend.events import EventAnnotations
from repro.frontend.fastpass import PassDriver
from repro.frontend.streaming import StreamingCollector
from repro.isa.instruction import NO_REG
from repro.isa.opclass import OpClass
from repro.memory.hierarchy import CacheHierarchy
from repro.obs import spans as _spans
from repro.trace.chunks import TraceChunkStream
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace

#: the annotation arrays, in :class:`EventAnnotations` order
ANNOTATIONS = ("fetch_stall", "load_extra", "long_miss", "mispredicted")


@st.composite
def caches(draw) -> CacheSpec:
    line = draw(st.sampled_from([16, 32, 64, 128]))
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([1, 1, 2, 4, 16]))
    return CacheSpec(sets * ways * line, ways, line)


@st.composite
def hierarchies(draw) -> HierarchySpec:
    l2_latency = draw(st.integers(1, 20))
    return HierarchySpec(
        l1i=draw(caches()), l1d=draw(caches()), l2=draw(caches()),
        l2_latency=l2_latency,
        memory_latency=draw(st.integers(l2_latency + 1, 300)),
        ideal_icache=draw(st.booleans()),
        ideal_dcache=draw(st.booleans()))


@st.composite
def predictor_factories(draw):
    """A zero-argument predictor factory (hashable, as
    :class:`CollectorConfig` is)."""
    kind = draw(st.sampled_from(["gshare", "gshare", "local", "tournament",
                                 "bimodal", "static", "ideal", "pessimal"]))
    if kind == "gshare":
        index_bits = draw(st.integers(0, 10))
        return partial(GShare, entries=1 << index_bits,
                       history_bits=draw(st.integers(0, index_bits)))
    if kind == "local":
        return partial(LocalHistory,
                       history_entries=1 << draw(st.integers(0, 6)),
                       history_bits=draw(st.integers(1, 8)))
    if kind == "tournament":
        return partial(Tournament,
                       chooser_entries=1 << draw(st.integers(0, 6)))
    if kind == "bimodal":
        return partial(Bimodal, entries=1 << draw(st.integers(0, 8)))
    return {"static": StaticPredictor, "ideal": IdealPredictor,
            "pessimal": PessimalPredictor}[kind]


@st.composite
def configs(draw) -> CollectorConfig:
    return CollectorConfig(
        hierarchy=draw(hierarchies()),
        predictor_factory=draw(predictor_factories()),
        warmup_passes=draw(st.integers(0, 2)),
        ideal_predictor=draw(st.booleans()))


# -- the three drivers, with the state they leave behind ---------------------

def _predictor_state(predictor: BranchPredictor) -> dict:
    """Every attribute of ``predictor``, tables and components included."""
    state = {}
    for name, value in vars(predictor).items():
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.tolist())
        elif isinstance(value, BranchPredictor):
            value = _predictor_state(value)
        elif name == "stats":
            value = (value.predictions, value.mispredictions)
        state[name] = value
    return state


@contextmanager
def _recorded(config: CollectorConfig):
    """``config`` with a predictor factory that records what it builds,
    and a getter for the final cache and predictor state of the one
    collector run in the block."""
    hierarchies: list[CacheHierarchy] = []
    predictors: list[BranchPredictor] = []
    init = CacheHierarchy.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        hierarchies.append(self)

    def factory():
        predictors.append(config.predictor_factory())
        return predictors[-1]

    def state():
        (hierarchy,), (predictor,) = hierarchies, predictors
        return (tuple(tuple(map(tuple, cache._sets)) for cache in
                      (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)),
                (hierarchy.l2.stats.accesses, hierarchy.l2.stats.misses),
                _predictor_state(predictor))

    with mock.patch.object(CacheHierarchy, "__init__", recording_init):
        yield replace(config, predictor_factory=factory), state


def summarize(trace: Trace, annotations: EventAnnotations,
              hierarchy: HierarchySpec) -> dict:
    """The profile counts and index arrays a pass's annotations imply
    (memory latency exceeds L2 latency, so the stall values tell short
    from long misses)."""
    fetch, load = annotations.fetch_stall, annotations.load_extra
    lines = trace.pc // hierarchy.l1i.line_bytes
    return {
        "length": len(trace),
        "branch_count": int(np.count_nonzero(trace.branches)),
        "misprediction_count": int(np.count_nonzero(
            annotations.mispredicted)),
        "misprediction_indices": np.flatnonzero(
            annotations.mispredicted).tolist(),
        "fetch_line_accesses": 1 + int(np.count_nonzero(
            lines[1:] != lines[:-1])),
        "icache_short_count": int(np.count_nonzero(
            fetch == hierarchy.l2_latency)),
        "icache_long_count": int(np.count_nonzero(
            fetch == hierarchy.memory_latency)),
        "load_count": int(np.count_nonzero(trace.loads)),
        "dcache_short_count": int(np.count_nonzero(
            load == hierarchy.l2_latency)),
        "dcache_long_count": int(np.count_nonzero(
            annotations.long_miss)),
        "long_miss_indices": np.flatnonzero(annotations.long_miss).tolist(),
    }


def _chunks_of(trace: Trace, chunk_size: int):
    """A chunk source cutting ``trace`` into ``chunk_size`` chunks."""
    return lambda: (trace[i:i + chunk_size]
                    for i in range(0, len(trace), chunk_size))


def streamed_annotations(trace: Trace, config: CollectorConfig,
                         chunk_size: int) -> EventAnnotations:
    """:meth:`StreamingCollector.iter_annotated` over ``trace`` cut into
    ``chunk_size`` chunks, its per-chunk annotations concatenated."""
    stream = TraceChunkStream(_chunks_of(trace, chunk_size),
                              name=trace.name, length=len(trace),
                              chunk_size=chunk_size)
    parts = []
    expected_base = 0
    for base, chunk, annotations in (
            StreamingCollector(config).iter_annotated(stream)):
        assert base == expected_base
        assert all(len(getattr(annotations, f)) == len(chunk)
                   for f in ANNOTATIONS)
        expected_base += len(chunk)
        parts.append(annotations)
    assert expected_base == len(trace)
    return EventAnnotations(*(np.concatenate([getattr(a, f) for a in parts])
                              for f in ANNOTATIONS))


#: the additive counts of a pass's tallies
COUNTS = ("branch_count", "misprediction_count", "fetch_line_accesses",
          "icache_short_count", "icache_long_count", "load_count",
          "dcache_short_count", "dcache_long_count")


def driver_tallies(trace: Trace, config: CollectorConfig,
                   chunk_size: int) -> dict:
    """The chunk driver's recording-pass tallies over ``trace`` cut into
    ``chunk_size`` chunks, summed over the chunks: the streamed counts
    that :meth:`StreamingCollector.iter_annotated` does not yield (a
    fetch-line access that hits adds a count but no annotation)."""
    driver = PassDriver(_chunks_of(trace, chunk_size), config,
                        CacheHierarchy(config.hierarchy),
                        config.predictor_factory(), length=len(trace),
                        name=trace.name)
    totals = dict.fromkeys(("length", *COUNTS), 0)
    totals.update(misprediction_indices=[], long_miss_indices=[])
    for _, chunk, tallies in driver.run():
        totals["length"] += len(chunk)
        for name in COUNTS:
            totals[name] += getattr(tallies, name)
        totals["misprediction_indices"] += tallies.misprediction_indices
        totals["long_miss_indices"] += tallies.long_miss_indices
    return totals


def _profile_fields(profile) -> dict:
    return {
        name: (value.tolist() if isinstance(value, np.ndarray) else value)
        for name, value in vars(profile).items()
        if name not in ("name", "trace_stats", "annotations")
    }


def _assert_annotations_equal(got: EventAnnotations,
                              want: EventAnnotations) -> None:
    for name in ANNOTATIONS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


def assert_passes_agree(trace: Trace, config: CollectorConfig,
                        chunk_sizes=(1, 7, None)) -> None:
    """Reference == fast in-memory == streamed at each chunk size
    (``None``: the whole trace as one chunk), counts, indices,
    annotations and final cache and predictor state."""
    with _recorded(config) as (cfg, state):
        ref = MissEventCollector(cfg, engine="reference").collect(
            trace, annotate=True)
        want_state = state()
    want = summarize(trace, ref.annotations, config.hierarchy)
    for name, value in _profile_fields(ref).items():
        assert want[name] == value, name

    with _recorded(config) as (cfg, state):
        fast = MissEventCollector(cfg, engine="fast").collect(
            trace, annotate=True)
        assert state() == want_state
    assert _profile_fields(fast) == _profile_fields(ref)
    for profile in (ref, fast):
        assert profile.misprediction_indices.dtype == np.int64
        assert profile.long_miss_indices.dtype == np.int64
    _assert_annotations_equal(fast.annotations, ref.annotations)

    for size in chunk_sizes:
        size = size or len(trace)
        with _recorded(config) as (cfg, state):
            got = streamed_annotations(trace, cfg, size)
            assert state() == want_state, size
        _assert_annotations_equal(got, ref.annotations)
        assert summarize(trace, got, config.hierarchy) == want, size
        assert driver_tallies(trace, config, size) == _profile_fields(ref)


@given(config=configs(),
       bench=st.sampled_from(BENCHMARK_ORDER),
       length=st.integers(1, 400),
       seed=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_passes_agree_on_generated_machines(config, bench, length, seed):
    assert_passes_agree(generate_trace(bench, length, seed), config)


#: instructions in each pathological trace
_N = 240


def _pathological(case: str) -> Trace:
    """The trace named ``case``: 4-byte instructions over a few fetch
    lines' worth of loop, loads strided across lines."""
    idx = np.arange(_N)
    none = np.full(_N, NO_REG)
    op = np.full(_N, int(OpClass.IALU))
    pc = 0x1000 + 4 * (idx % 48)
    taken = np.zeros(_N, dtype=np.bool_)
    if case == "all-branches":
        op[:] = int(OpClass.BRANCH)
        taken = (idx * 7) % 3 == 0
    elif case == "all-loads":
        op[:] = int(OpClass.LOAD)
    elif case == "alternating-branch":
        # one pc, not-taken and taken in turn: a weakly-taken 2-bit
        # counter indexed by pc alone mispredicts every branch
        op[:] = int(OpClass.BRANCH)
        pc = np.full(_N, 0x2000)
        taken = idx % 2 == 1
    else:
        raise ValueError(case)
    return Trace(pc=pc, opclass=op, dst=np.where(op == OpClass.BRANCH,
                                                 NO_REG, idx % 32 + 1),
                 src1=none, src2=none,
                 addr=np.where(op == OpClass.LOAD,
                               0x10_0000 + 72 * (idx % 97), 0),
                 taken=taken, target=np.zeros(_N), name=case)


def _one_set(line: int, ways: int) -> CacheSpec:
    return CacheSpec(line * ways, ways, line)


#: one-set caches everywhere, and the default machine's hierarchy
_HIERARCHIES = {
    "one-set": HierarchySpec(l1i=_one_set(16, 2), l1d=_one_set(32, 1),
                             l2=_one_set(64, 4)),
    "baseline": HierarchySpec(),
}

_PREDICTORS = {
    "gshare": partial(GShare, entries=64, history_bits=0),
    "gshare-history": partial(GShare, entries=64),
    "bimodal": partial(Bimodal, entries=16),
    "tournament": Tournament,
}


@pytest.mark.parametrize("predictor", _PREDICTORS)
@pytest.mark.parametrize("hierarchy", _HIERARCHIES)
@pytest.mark.parametrize("case", ("all-branches", "all-loads",
                                  "alternating-branch"))
def test_passes_agree_on_pathological_traces(case, hierarchy, predictor):
    trace = _pathological(case)
    config = CollectorConfig(hierarchy=_HIERARCHIES[hierarchy],
                             predictor_factory=_PREDICTORS[predictor],
                             warmup_passes=1)
    assert_passes_agree(trace, config)
    if case == "alternating-branch" and predictor in ("gshare", "bimodal"):
        profile = MissEventCollector(config).collect(trace)
        assert profile.misprediction_count == _N


def test_only_a_streamed_warmup_pass_is_a_span():
    """A streamed warm-up pass runs in a ``frontend.warmup`` span (the
    traced benchmark's per-layer table counts it); the in-memory
    collector's passes are timed as a whole by its caller."""
    trace = generate_trace("gzip", 500)
    config = CollectorConfig(warmup_passes=2)
    stream = TraceChunkStream(_chunks_of(trace, 100), name=trace.name,
                              length=len(trace), chunk_size=100)
    _spans.reset()
    _spans.enable(True)
    try:
        MissEventCollector(config).collect(trace)
        in_memory = _spans.drain()
        list(StreamingCollector(config).iter_annotated(stream))
        streamed = _spans.drain()
    finally:
        _spans.enable(False)
        _spans.reset()
    assert not [s for s in in_memory if s["name"] == "frontend.warmup"]
    assert [s["attrs"]["warmup_pass"] for s in streamed
            if s["name"] == "frontend.warmup"] == [0, 1]
