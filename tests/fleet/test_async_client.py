"""AsyncServiceClient: pipelining, demux, and connection-loss fates."""

from __future__ import annotations

import asyncio

import pytest

from repro.fleet.client import AsyncServiceClient
from repro.service import BackgroundServer, SchedulerConfig
from repro.service.client import ServiceError, _spec_payload

LENGTH = 2_000


def _run(coro):
    return asyncio.run(coro)


@pytest.fixture
def node():
    config = SchedulerConfig(workers=1, queue_limit=16,
                             request_timeout_s=60.0,
                             retries=2, retry_backoff_s=0.05)
    with BackgroundServer(config=config) as bg:
        yield bg


class TestBasics:
    def test_ping(self, node):
        async def main():
            async with AsyncServiceClient(node.host, node.port) as client:
                return await client.ping()

        pong = _run(main())
        assert pong["pong"] and pong["protocol"] == 1

    def test_error_raises_service_error(self, node):
        async def main():
            async with AsyncServiceClient(node.host, node.port) as client:
                await client.evaluate("model", {"bogus": 1})

        with pytest.raises(ServiceError) as err:
            _run(main())
        assert err.value.code == "bad_request"

    def test_dead_endpoint_is_connection_error(self, node):
        port = node.port
        node.__exit__(None, None, None)

        async def main():
            async with AsyncServiceClient(node.host, port) as client:
                await client.ping()

        with pytest.raises((ConnectionError, OSError)):
            _run(main())


class TestPipelining:
    def test_concurrent_requests_demux_by_id(self, node):
        params = [_spec_payload("simulate", {
            "benchmark": "gzip", "length": LENGTH, "seed": seed})
            for seed in range(4)]

        async def main():
            async with AsyncServiceClient(node.host, node.port,
                                          pool=1) as client:
                return await asyncio.gather(*(
                    client.evaluate("simulate", p) for p in params))

        results = _run(main())
        assert len(results) == 4
        # distinct seeds -> distinct results, each matched to its request
        assert len({r["cycles"] for r in results}) >= 2
        from repro.runner.pool import execute_spec
        from repro.spec import RunSpec, WorkloadSpec

        for seed, r in zip(range(4), results):
            direct = execute_spec(RunSpec(workload=WorkloadSpec(
                "gzip", length=LENGTH, seed=seed)))
            assert r["cycles"] == direct.cycles, f"seed {seed} mismatched"

    def test_cache_hit_overtakes_a_compute(self, node):
        slow = _spec_payload("simulate", {
            "benchmark": "gzip", "length": LENGTH,
            "chaos": {"sleep": 0.8}})
        quick = _spec_payload("model", {"benchmark": "gzip",
                                        "length": LENGTH})

        async def main():
            async with AsyncServiceClient(node.host, node.port,
                                          pool=1) as client:
                await client.evaluate("model", quick)  # warm the cache
                order = []

                async def tagged(tag, op, params):
                    result = await client.evaluate(op, params)
                    order.append(tag)
                    return result

                await asyncio.gather(
                    tagged("slow", "simulate", slow),
                    tagged("quick", "model", quick))
                return order

        order = _run(main())
        assert order == ["quick", "slow"]
