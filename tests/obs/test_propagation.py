"""One connected trace across process and protocol boundaries.

The issue's acceptance test: a root span opened in the test process
must end up as the ancestor of spans recorded inside pool workers
(:func:`repro.runner.pool.run_units`) and inside service evaluation
workers reached over the wire (client -> scheduler -> batch -> worker),
with every record carrying the same ``trace_id``.
"""

from __future__ import annotations

import os

from repro.obs import spans as _spans
from repro.obs.spans import span
from repro.runner.pool import run_units
from repro.service import BackgroundServer, SchedulerConfig, ServiceClient
from repro.spec import RunSpec, WorkloadSpec

LENGTH = 2_000


def _spec(benchmark):
    return RunSpec(workload=WorkloadSpec(benchmark, length=LENGTH))


def assert_connected(spans, root_id):
    """Every span reaches ``root_id`` by walking parent edges."""
    by_id = {s["span_id"]: s for s in spans}
    for s in spans:
        seen = set()
        cur = s
        while cur["span_id"] != root_id:
            parent = cur["parent_id"]
            assert parent is not None, f"{cur['name']} is a stray root"
            assert parent in by_id or parent == root_id, (
                f"{cur['name']} has unresolvable parent {parent}"
            )
            if parent == root_id:
                break
            assert parent not in seen, "parent cycle"
            seen.add(parent)
            cur = by_id[parent]


class TestPoolPropagation:
    def test_worker_spans_share_the_trace_and_parent_to_root(self):
        _spans.enable(True)
        _spans.reset()
        units = [_spec("gzip"), _spec("mcf")]
        with span("test.sweep") as root:
            results, _ = run_units(units, jobs=2)
        root_id = root.record["span_id"]
        trace_id = root.record["trace_id"]
        spans = _spans.drain()
        assert len(results) == 2

        pids = {s["pid"] for s in spans}
        assert os.getpid() in pids
        assert len(pids) >= 2, "no worker-process spans came home"

        assert {s["trace_id"] for s in spans} == {trace_id}

        unit_spans = [s for s in spans if s["name"] == "runner.unit"]
        assert len(unit_spans) == 2
        assert all(s["parent_id"] == root_id for s in unit_spans)
        assert {s["attrs"]["benchmark"] for s in unit_spans} == {
            "gzip", "mcf"}

        assert_connected(spans, root_id)

    def test_units_without_a_live_span_stay_contextless(self):
        _spans.enable(True)
        _spans.reset()
        results, _ = run_units(
            [_spec("gzip")], jobs=1)
        assert len(results) == 1
        spans = _spans.drain()
        unit = next(s for s in spans if s["name"] == "runner.unit")
        assert unit["parent_id"] is None


class TestServicePropagation:
    def test_served_request_yields_one_connected_trace(self):
        config = SchedulerConfig(workers=2, queue_limit=16,
                                 request_timeout_s=60.0,
                                 retries=2, retry_backoff_s=0.05)
        _spans.enable(True)
        _spans.reset()
        with BackgroundServer(config=config) as bg:
            with span("test.client") as root:
                with ServiceClient(bg.host, bg.port) as client:
                    served = client.simulate("gzip", length=LENGTH)
            root_id = root.record["span_id"]
            trace_id = root.record["trace_id"]
        spans = _spans.drain()
        assert served["instructions"] == LENGTH

        names = {s["name"] for s in spans}
        assert "client.request" in names
        assert "service.request" in names
        assert "service.evaluate" in names

        # the evaluation ran in a pool worker, not the test process
        evaluate = next(s for s in spans if s["name"] == "service.evaluate")
        assert evaluate["pid"] != os.getpid()

        assert {s["trace_id"] for s in spans} == {trace_id}
        assert_connected(spans, root_id)

        # chain: client.request -> service.request -> service.evaluate
        by_id = {s["span_id"]: s for s in spans}
        request = next(s for s in spans if s["name"] == "service.request")
        assert by_id[request["parent_id"]]["name"] == "client.request"
        assert by_id[evaluate["parent_id"]]["name"] == "service.request"

    def test_untraced_client_leaves_server_collection_off(self):
        config = SchedulerConfig(workers=1, queue_limit=16,
                                 request_timeout_s=60.0,
                                 retries=2, retry_backoff_s=0.05)
        with BackgroundServer(config=config) as bg:
            with ServiceClient(bg.host, bg.port) as client:
                client.simulate("gzip", length=LENGTH)
        assert _spans.drain() == []
