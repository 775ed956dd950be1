"""Subprocess fleets: private caches, SIGKILL chaos, failover replay.

These spawn real ``repro serve`` processes (one worker each — the test
host is small), so they are the slowest fleet tests and the only ones
that can observe genuine cross-node behaviour: each node has its own
artifact cache, and a SIGKILL takes requests down mid-flight.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fleet import LocalFleet
from repro.service import RetryPolicy, ServiceClient
from repro.service.client import _spec_payload

LENGTH = 1_500

pytestmark = pytest.mark.slow


def _payloads(count: int) -> list[dict]:
    return [_spec_payload("simulate", {
        "benchmark": "gzip", "length": LENGTH, "seed": seed})
        for seed in range(count)]


class TestFleetCorrectness:
    def test_three_node_fleet_is_bit_identical_to_in_process(self, tmp_path):
        from repro.runner.pool import execute_spec
        from repro.spec import RunSpec, WorkloadSpec

        with LocalFleet(3, tmp_path) as fleet:
            with ServiceClient(fleet.host, fleet.port,
                               timeout=120) as client:
                served = [client.evaluate("simulate", p)
                          for p in _payloads(4)]
        for seed, result in enumerate(served):
            direct = execute_spec(RunSpec(workload=WorkloadSpec(
                "gzip", length=LENGTH, seed=seed)))
            assert result["cycles"] == direct.cycles
            assert result["cpi"] == direct.cpi

    def test_kill_one_node_failover_replays_bit_identically(self, tmp_path):
        payloads = _payloads(6)
        # a long health interval forces discovery the hard way: the first
        # forward to the dead node must fail over, not dodge via a probe
        with LocalFleet(3, tmp_path, health_interval_s=30.0) as fleet:
            with ServiceClient(fleet.host, fleet.port, timeout=120,
                               retry=RetryPolicy()) as client:
                before = [client.request("simulate", json.loads(
                    json.dumps(p))) for p in payloads]
                assert all(r["ok"] for r in before)
                victims = {r["meta"]["node"] for r in before}
                # kill a node that actually served something
                index = next(i for i, n in enumerate(fleet.nodes)
                             if n.node_id in victims)
                fleet.kill_node(index)
                after = [client.request("simulate", p) for p in payloads]
            assert all(r["ok"] for r in after), \
                [r.get("error") for r in after if not r["ok"]]
            dead = fleet.nodes[index].node_id
            assert all(r["meta"]["node"] != dead for r in after)
            for b, a in zip(before, after):
                assert json.dumps(b["result"], sort_keys=True) == \
                    json.dumps(a["result"], sort_keys=True)
            status = fleet.router.fleet_status()
            assert status["healthy"] == 2
            assert status["counters"]["router.failover"] >= 1
            moved = sum(1 for b, a in zip(before, after)
                        if b["meta"]["node"] == dead)
            assert moved >= 1  # the dead node's shard was re-served

    def test_peek_replicates_across_private_caches(self, tmp_path):
        payload = _payloads(1)[0]
        with LocalFleet(2, tmp_path, replication=2) as fleet:
            with ServiceClient(fleet.host, fleet.port,
                               timeout=120) as client:
                first = client.request("simulate",
                                       json.loads(json.dumps(payload)))
                second = client.request("simulate", payload)
            assert first["ok"] and second["ok"]
            assert first["meta"]["served_from"] == "computed"
            # the repeat never recomputes: the router finds the response
            # in the serving node's private cache
            assert second["meta"]["served_from"] in ("peek", "cache")
            assert first["result"] == second["result"]

    def test_state_caches_are_actually_private(self, tmp_path):
        with LocalFleet(2, tmp_path) as fleet:
            dirs = [node.cache_dir for node in fleet.nodes]
        assert len(set(dirs)) == 2
        for d in dirs:
            assert os.path.isdir(d)
