"""Shared-L2 contended pass: monotonicity, reconciliation, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.gshare import GShare
from repro.branch.simple import Bimodal
from repro.config import CacheSpec, HierarchySpec
from repro.corun.contention import ADDRESS_OFFSET_BITS, run_contended_pass
from repro.corun.interleave import interleave_order
from repro.frontend.collector import CollectorConfig, collect_events
from repro.isa.opclass import OpClass
from repro.memory.cache import Cache
from repro.memory.hierarchy import AccessOutcome, CacheHierarchy
from repro.spec import InterleaveSpec
from repro.trace.synthetic import generate_trace
from tests.corun.test_interleave import reference_order

LENGTH = 1_500


@pytest.fixture(scope="module")
def traces():
    return (generate_trace("gzip", LENGTH), generate_trace("mcf", LENGTH))


@pytest.fixture(scope="module")
def pressure_config(request):
    small = request.getfixturevalue("small_l2_hierarchy")
    return CollectorConfig(hierarchy=small)


def source_for(trace, chunk_size=None):
    if chunk_size is None:
        return lambda: iter((trace,))
    return lambda: iter(
        trace[k:k + chunk_size] for k in range(0, len(trace), chunk_size))


def contended(traces, config, chunk_size=None, spec=None, weights=None):
    lengths = [len(t) for t in traces]
    order = interleave_order(lengths, spec, weights=weights)
    return run_contended_pass(
        [source_for(t, chunk_size) for t in traces], lengths, order, config)


def oracle(traces, config, spec=None, weights=None):
    """The contended pass one instruction at a time: private hierarchies
    over one shared L2 and ``predictor.observe``, fed offset addresses in
    the reference merge order.  Returns per-workload expected fields and
    the shared-L2 deltas of the recording pass."""
    hier = config.hierarchy
    lat = {AccessOutcome.L1_HIT: 0, AccessOutcome.L2_HIT: hier.l2_latency,
           AccessOutcome.MEMORY: hier.memory_latency}
    order = reference_order([len(t) for t in traces], spec, weights)
    shared = Cache(hier.l2, "L2(shared)")
    hierarchies = [CacheHierarchy(hier, shared_l2=shared) for _ in traces]
    predictors = [config.predictor_factory() for _ in traces]
    for _ in range(config.warmup_passes + 1):
        before = (shared.stats.accesses, shared.stats.misses)
        pos, last = [0] * len(traces), [None] * len(traces)
        fetches = [0] * len(traces)
        fetch, data, misp = ([np.zeros(len(t), dtype) for t in traces]
                             for dtype in (np.int32, np.int32, np.bool_))
        for w in order:
            k, trace, off = pos[w], traces[w], w << ADDRESS_OFFSET_BITS
            pos[w] += 1
            pc, op = int(trace.pc[k]) + off, int(trace.opclass[k])
            if pc // hier.l1i.line_bytes != last[w]:
                last[w] = pc // hier.l1i.line_bytes
                fetches[w] += 1
                fetch[w][k] = lat[hierarchies[w].access_instruction(pc)]
            if op in (OpClass.LOAD, OpClass.STORE):
                data[w][k] = lat[hierarchies[w].access_data(
                    int(trace.addr[k]) + off)]
            elif op == OpClass.BRANCH and not config.ideal_predictor:
                misp[w][k] = not predictors[w].observe(pc, bool(trace.taken[k]))
    rows = []
    for trace, n, f, d, m in zip(traces, fetches, fetch, data, misp):
        load = np.where(trace.opclass == OpClass.LOAD, d, 0).astype(np.int32)
        long_miss = load == hier.memory_latency
        rows.append({
            "branch_count": int(np.sum(trace.opclass == OpClass.BRANCH)),
            "misprediction_indices": np.flatnonzero(m),
            "fetch_line_accesses": n,
            "icache_short_count": int(np.sum(f == hier.l2_latency)),
            "icache_long_count": int(np.sum(f == hier.memory_latency)),
            "load_count": int(np.sum(trace.opclass == OpClass.LOAD)),
            "dcache_short_count": int(np.sum(load == hier.l2_latency)),
            "dcache_long_count": int(np.sum(long_miss)),
            "long_miss_indices": np.flatnonzero(long_miss),
            "fetch_stall": f, "load_extra": load, "long_miss": long_miss,
            "mispredicted": m,
            "l2_accesses": int(np.sum(f > 0) + np.sum(d > 0)),
            "l2_misses": int(np.sum(f == hier.memory_latency)
                             + np.sum(d == hier.memory_latency)),
        })
    return rows, (shared.stats.accesses - before[0],
                  shared.stats.misses - before[1])


class TestSharedHierarchy:
    def test_injected_l2_is_shared_object(self, pressure_config):
        shared = Cache(pressure_config.hierarchy.l2, "L2(shared)")
        a = CacheHierarchy(pressure_config.hierarchy, shared_l2=shared)
        b = CacheHierarchy(pressure_config.hierarchy, shared_l2=shared)
        assert a.l2 is shared and b.l2 is shared
        assert a.l2_shared and b.l2_shared

    def test_private_l2_by_default(self, pressure_config):
        hierarchy = CacheHierarchy(pressure_config.hierarchy)
        assert not hierarchy.l2_shared

    def test_geometry_mismatch_rejected(self, pressure_config, baseline):
        wrong = Cache(baseline.hierarchy.l2, "L2")
        with pytest.raises(ValueError, match="geometry"):
            CacheHierarchy(pressure_config.hierarchy, shared_l2=wrong)


class TestContendedPass:
    def test_l1_behavior_matches_solo(self, traces, pressure_config):
        """The address offset preserves each workload's own stream: its
        branch/load/fetch populations are exactly its solo ones."""
        result = contended(traces, pressure_config)
        for trace, workload in zip(traces, result.workloads):
            counts = workload.tallies
            solo = collect_events(trace, pressure_config)
            assert counts.branch_count == solo.branch_count
            assert counts.load_count == solo.load_count
            assert counts.fetch_line_accesses == solo.fetch_line_accesses
            assert counts.misprediction_count == solo.misprediction_count

    def test_contention_only_elevates_long_misses(self, traces,
                                                  pressure_config):
        """Disjoint tags + per-set LRU: every solo L2 miss survives under
        contention, so contended long-miss counts are >= solo."""
        result = contended(traces, pressure_config)
        elevated = 0
        for trace, workload in zip(traces, result.workloads):
            counts = workload.tallies
            solo = collect_events(trace, pressure_config)
            assert counts.dcache_long_count >= solo.dcache_long_count
            assert counts.icache_long_count >= solo.icache_long_count
            elevated += (counts.dcache_long_count - solo.dcache_long_count)
        # the 16 KB pressure L2 must actually produce interference,
        # otherwise the monotonicity assertions above are vacuous
        assert elevated > 0

    def test_shared_counters_reconcile(self, traces, pressure_config):
        result = contended(traces, pressure_config)
        assert result.shared_l2_accesses == sum(
            c.l2_accesses for c in result.workloads)
        assert result.shared_l2_misses == sum(
            c.l2_misses for c in result.workloads)

    def test_annotations_cover_trace_length(self, traces, pressure_config):
        result = contended(traces, pressure_config)
        for trace, workload in zip(traces, result.workloads):
            counts = workload.tallies
            ann = counts.annotations
            assert len(ann.fetch_stall) == len(trace)
            assert counts.dcache_long_count == int(
                np.count_nonzero(ann.long_miss))
            assert counts.misprediction_count == int(
                np.count_nonzero(ann.mispredicted))

    @pytest.mark.parametrize("chunk_size", [7, 997])
    def test_chunk_size_never_changes_the_result(self, traces,
                                                 pressure_config,
                                                 chunk_size):
        whole = contended(traces, pressure_config)
        chunked = contended(traces, pressure_config, chunk_size=chunk_size)
        assert whole.shared_l2_accesses == chunked.shared_l2_accesses
        assert whole.shared_l2_misses == chunked.shared_l2_misses
        for a, b in zip(whole.workloads, chunked.workloads):
            a, b = a.tallies, b.tallies
            assert a.dcache_long_count == b.dcache_long_count
            assert np.array_equal(a.long_miss_indices, b.long_miss_indices)
            assert np.array_equal(a.annotations.fetch_stall,
                                  b.annotations.fetch_stall)
            assert np.array_equal(a.annotations.load_extra,
                                  b.annotations.load_extra)
            assert np.array_equal(a.annotations.long_miss,
                                  b.annotations.long_miss)
            assert np.array_equal(a.annotations.mispredicted,
                                  b.annotations.mispredicted)

    @pytest.mark.parametrize("served, message", [
        (1_499, "source 1 served 1499 of 1500"),
        (2_000, "source 1 served more than 1500"),
    ], ids=["short", "long"])
    def test_source_serving_wrong_length_rejected(self, traces,
                                                  pressure_config, served,
                                                  message):
        lengths = [len(t) for t in traces]
        wrong = generate_trace("mcf", served)
        with pytest.raises(ValueError, match=message):
            run_contended_pass(
                [source_for(traces[0]), source_for(wrong, 997)], lengths,
                interleave_order(lengths), pressure_config)


def tiny_geometries():
    return st.builds(CacheSpec, st.sampled_from([512, 1024, 2048]),
                     st.sampled_from([1, 2, 4]), st.sampled_from([32, 128]))


@st.composite
def coruns(draw):
    n_work = draw(st.integers(2, 3))
    traces = [
        generate_trace(draw(st.sampled_from(["gzip", "mcf", "twolf", "eon"])),
                       draw(st.integers(1, 400)), draw(st.integers(0, 3)))
        for _ in range(n_work)]
    spec = InterleaveSpec(policy=draw(st.sampled_from(["cpi", "round_robin"])),
                          quantum=draw(st.integers(1, 80)))
    weights = draw(st.none() | st.lists(st.sampled_from([0.1, 0.3, 1.0, 2.7]),
                                        min_size=n_work, max_size=n_work))
    hierarchy = HierarchySpec(
        l1i=draw(tiny_geometries()), l1d=draw(tiny_geometries()),
        l2=draw(tiny_geometries()), ideal_icache=draw(st.booleans()),
        ideal_dcache=draw(st.booleans()))
    predictor = draw(st.sampled_from([
        GShare, lambda: GShare(entries=64, history_bits=3),
        lambda: Bimodal(entries=32)]))
    config = CollectorConfig(
        hierarchy=hierarchy, predictor_factory=predictor,
        ideal_predictor=draw(st.booleans()),
        warmup_passes=draw(st.integers(0, 2)))
    chunk_size = draw(st.sampled_from([None, 7, 61, 997]))
    return traces, config, spec, weights, chunk_size


@given(coruns())
@settings(max_examples=60, deadline=None)
def test_contended_pass_matches_scalar_oracle(corun):
    traces, config, spec, weights, chunk_size = corun
    result = contended(traces, config, chunk_size, spec, weights)
    rows, shared = oracle(traces, config, spec, weights)
    assert (result.shared_l2_accesses, result.shared_l2_misses) == shared
    for workload, expected in zip(result.workloads, rows):
        tallies = workload.tallies
        assert workload.l2_accesses == expected.pop("l2_accesses")
        assert workload.l2_misses == expected.pop("l2_misses")
        assert tallies.misprediction_count == len(
            expected["misprediction_indices"])
        for field in ("fetch_stall", "load_extra", "long_miss",
                      "mispredicted"):
            got, want = getattr(tallies.annotations, field), expected.pop(field)
            assert got.dtype == want.dtype, field
            assert np.array_equal(got, want), field
        for field, want in expected.items():
            assert np.array_equal(getattr(tallies, field), want), field


class TestRunCorunEndToEnd:
    @pytest.fixture(scope="class")
    def spec(self, request):
        from repro.spec import CoRunSpec, MachineSpec, WorkloadSpec

        small = request.getfixturevalue("small_l2_hierarchy")
        return CoRunSpec(
            workloads=(WorkloadSpec("gzip", LENGTH),
                       WorkloadSpec("mcf", LENGTH)),
            machine=MachineSpec(hierarchy=small),
        )

    @pytest.fixture(scope="class")
    def payload(self, spec):
        from repro.corun import run_corun

        return run_corun(spec)

    def test_all_payload_invariants_hold(self, payload):
        from repro.corun import corun_payload_checks

        failures = [(desc, detail)
                    for desc, holds, detail in corun_payload_checks(payload)
                    if not holds]
        assert not failures

    def test_stack_sums_to_simulated_cpi(self, payload):
        for row in payload["workloads"]:
            stack = row["corun"]["stack"]
            assert abs(sum(stack.values())
                       - row["corun"]["stack_total"]) < 1e-9
            assert abs(row["corun"]["stack_total"]
                       - row["corun"]["cpi"]) < 1e-9

    def test_payload_carries_the_spec_key(self, payload, spec):
        assert payload["content_key"] == spec.content_key()
        assert payload["spec"] == spec.to_dict()

    def test_streaming_is_bit_identical(self, payload, spec):
        from repro.corun import run_corun

        streamed = run_corun(spec, reuse=False, stream=True, chunk_size=997)
        assert (json.dumps(streamed, sort_keys=True)
                == json.dumps(payload, sort_keys=True))

    def test_warm_cache_returns_identical_payload(self, payload, spec):
        from repro.corun import run_corun

        again = run_corun(spec)
        assert (json.dumps(again, sort_keys=True)
                == json.dumps(payload, sort_keys=True))

    def test_oversized_ingest_length_is_a_spec_error(self, spec):
        """An ingest workload serving fewer records than requested must
        fail with an actionable message, not a cursor underrun."""
        import dataclasses
        from pathlib import Path

        from repro.corun import run_corun
        from repro.ingest import ingest_file
        from repro.spec import SpecError, WorkloadSpec

        sample = (Path(__file__).resolve().parents[2] / "examples"
                  / "sample_trace.csv")
        record = ingest_file(sample)
        huge = dataclasses.replace(
            spec,
            workloads=(spec.workloads[0],
                       WorkloadSpec(f"ingest:{record.key}",
                                    record.length + 1)))
        with pytest.raises(SpecError, match="serves"):
            run_corun(huge, reuse=False)
