"""Router end-to-end: protocol fidelity, bit-identity, peek, tracing.

The router speaks the service's exact protocol, so these tests drive it
with the stock blocking :class:`ServiceClient` and assert the responses
are indistinguishable from a direct node's — plus the routing metadata
the fleet adds.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import time
import warnings

import pytest

from repro.fleet import FleetSpec
from repro.fleet.router import FleetRouter
from repro.service import ServiceClient, protocol
from repro.service.client import _spec_payload
from repro.telemetry.metrics import metrics_registry

LENGTH = 2_000


def _http(router, method, path, body=None):
    conn = http.client.HTTPConnection(router.host, router.port, timeout=30)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    payload = response.read()
    conn.close()
    return response, payload


class TestProtocol:
    def test_ping_names_the_router(self, fleet2):
        router, _, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            pong = client.ping()
        assert pong["pong"] and pong["role"] == "router"
        assert pong["nodes"] == 2

    def test_bad_params_error_matches_a_direct_node(self, fleet2):
        router, node, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            via_router = client.request("model", {"bogus": 1})
        with ServiceClient(node.host, node.port) as client:
            direct = client.request("model", {"bogus": 1})
        assert not via_router["ok"] and not direct["ok"]
        assert via_router["error"]["code"] == direct["error"]["code"]

    def test_unknown_op_error_matches_a_direct_node(self, fleet2):
        router, node, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            via_router = client.request("made_up_op")
        with ServiceClient(node.host, node.port) as client:
            direct = client.request("made_up_op")
        assert not via_router["ok"] and not direct["ok"]
        assert via_router["error"]["code"] == direct["error"]["code"]


class TestBitIdentity:
    def test_routed_simulate_equals_in_process(self, fleet2):
        from repro.runner.pool import execute_spec
        from repro.spec import RunSpec, WorkloadSpec

        router, _, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            served = client.simulate("gzip", length=LENGTH)
        direct = execute_spec(RunSpec(workload=WorkloadSpec(
            "gzip", length=LENGTH)))
        assert served["cycles"] == direct.cycles
        assert served["cpi"] == direct.cpi  # exact — floats survive JSON

    def test_routed_model_equals_direct_node(self, fleet2):
        router, node, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            routed = client.model("gzip", length=LENGTH)
        with ServiceClient(node.host, node.port) as client:
            direct = client.model("gzip", length=LENGTH)
        assert routed == direct

    def test_compare_routed_equals_direct_node(self, fleet2):
        router, node, _ = fleet2
        params = {"benchmarks": ["gzip", "mcf"], "length": LENGTH}
        with ServiceClient(router.host, router.port) as client:
            routed = client.evaluate("compare", dict(params))
        with ServiceClient(node.host, node.port) as client:
            direct = client.evaluate("compare", dict(params))
        assert json.dumps(routed, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_response_metadata_names_target_and_owner(self, fleet2):
        router, _, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            response = client.request(
                "simulate", _spec_payload("simulate", {
                    "benchmark": "vortex", "length": LENGTH}))
        assert response["ok"]
        meta = response["meta"]
        assert meta["node"] in ("n1", "n2")
        assert meta["router"]["target"] in router.router.nodes
        assert meta["router"]["owner"] in router.router.nodes


class TestAffinity:
    def test_same_key_lands_on_the_same_node(self, fleet2):
        router, _, _ = fleet2
        params = _spec_payload("simulate", {"benchmark": "gzip",
                                            "length": LENGTH})
        with ServiceClient(router.host, router.port) as client:
            first = client.request("simulate", json.loads(json.dumps(params)))
            second = client.request("simulate", params)
        assert first["meta"]["router"]["owner"] == \
            second["meta"]["router"]["owner"]

    def test_second_request_is_served_from_cache_or_peek(self, fleet2):
        router, _, _ = fleet2
        params = _spec_payload("simulate", {"benchmark": "mcf",
                                            "length": LENGTH})
        with ServiceClient(router.host, router.port) as client:
            first = client.request("simulate", dict(params))
            second = client.request("simulate", dict(params))
        assert first["meta"]["served_from"] == "computed"
        assert second["meta"]["served_from"] in ("peek", "cache")
        assert first["result"] == second["result"]
        assert metrics_registry().counter("router.peek_hit").value >= 1


class TestDeadlines:
    def test_node_deadline_answer_passes_through(self, fleet2):
        """A request's ``timeout`` is the node's deadline: the node's
        ``timeout`` answer reaches the client, with no failover and no
        node marked down for it."""
        router, _, _ = fleet2
        params = _spec_payload("simulate", {
            "benchmark": "gzip", "length": LENGTH, "chaos": {"sleep": 2.0}})
        with ServiceClient(router.host, router.port) as client:
            start = time.monotonic()
            response = client.request("simulate", params, timeout=0.3)
            elapsed = time.monotonic() - start
        assert not response["ok"]
        assert response["error"]["code"] == "timeout", response["error"]
        assert elapsed < 1.5
        _, body = _http(router, "GET", "/fleet")
        doc = json.loads(body)
        assert [n["healthy"] for n in doc["nodes"]] == [True, True], doc
        assert doc["counters"]["router.failover"] == 0

    def test_deadline_longer_than_the_node_client_wait_is_kept(self, fleet2):
        """A node client waits out a request's own deadline even when it
        is longer than the client's ``timeout``: a compute inside its
        deadline is answered, with no failover and no node marked
        down."""
        router, _, _ = fleet2
        for node in router.router.nodes.values():
            node.client.timeout = 0.3
        params = _spec_payload("simulate", {
            "benchmark": "gzip", "length": LENGTH, "chaos": {"sleep": 1.0}})
        with ServiceClient(router.host, router.port) as client:
            response = client.request("simulate", params, timeout=10.0)
        assert response["ok"], response.get("error")
        _, body = _http(router, "GET", "/fleet")
        doc = json.loads(body)
        assert [n["healthy"] for n in doc["nodes"]] == [True, True], doc
        assert doc["counters"]["router.failover"] == 0

    def test_node_default_deadline_answer_comes_before_the_client_wait(
            self):
        """A request without a deadline runs under the node's own
        ``request_timeout_s``.  The router forwards that deadline
        explicitly, so even when the node client's wait equals it (120 s
        on both sides by default) the node's ``timeout`` answer comes
        first: no failover, no node marked down."""
        from repro.fleet import BackgroundRouter
        from repro.service import BackgroundServer, SchedulerConfig

        config = SchedulerConfig(workers=1, queue_limit=16,
                                 request_timeout_s=0.5, retries=0)
        with BackgroundServer(config=config, node_id="n1") as a, \
                BackgroundServer(config=config, node_id="n2") as b:
            spec = FleetSpec(nodes=(f"{a.host}:{a.port}",
                                    f"{b.host}:{b.port}"),
                             replication=2, health_interval_s=0.25)
            with BackgroundRouter(spec) as router:
                nodes = list(router.router.nodes.values())
                for node in nodes:
                    node.client.timeout = config.request_timeout_s
                deadline = time.monotonic() + 10
                while (any(n.deadline_s is None for n in nodes)
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert [n.deadline_s for n in nodes] == [0.5, 0.5]
                params = _spec_payload("simulate", {
                    "benchmark": "gzip", "length": LENGTH,
                    "chaos": {"sleep": 2.0}})
                with ServiceClient(router.host, router.port) as client:
                    response = client.request("simulate", params)
                assert not response["ok"]
                assert response["error"]["code"] == "timeout", \
                    response["error"]
                _, body = _http(router, "GET", "/fleet")
                doc = json.loads(body)
                assert [n["healthy"] for n in doc["nodes"]] == \
                    [True, True], doc
                assert doc["counters"]["router.failover"] == 0


class TestHttp:
    def test_healthz_and_version(self, fleet2):
        router, _, _ = fleet2
        response, body = _http(router, "GET", "/healthz")
        assert response.status == 200
        response, body = _http(router, "GET", "/version")
        doc = json.loads(body)
        assert doc["role"] == "router" and doc["port"] == router.port

    def test_fleet_document(self, fleet2):
        router, _, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            client.model("gzip", length=LENGTH)
        response, body = _http(router, "GET", "/fleet")
        assert response.status == 200
        doc = json.loads(body)
        assert doc["healthy"] == 2
        assert doc["counters"]["router.routed"] >= 1
        assert {n["address"] for n in doc["nodes"]} == \
            set(doc["spec"]["nodes"])

    def test_metrics_carry_the_router_label(self, fleet2):
        router, _, _ = fleet2
        with ServiceClient(router.host, router.port) as client:
            client.model("gzip", length=LENGTH)
        _, body = _http(router, "GET", "/metrics")
        text = body.decode()
        assert 'node="router"' in text
        assert "repro_router_routed" in text

    def test_post_eval_routes(self, fleet2):
        router, _, _ = fleet2
        frame = json.dumps({
            "v": 1, "id": "http-1", "op": "model",
            "params": _spec_payload("model", {"benchmark": "gzip",
                                              "length": LENGTH}),
        }).encode()
        response, body = _http(router, "POST", "/v1/eval", body=frame)
        assert response.status == 200
        doc = json.loads(body)
        assert doc["ok"] and doc["id"] == "http-1"
        assert doc["meta"]["node"] in ("n1", "n2")


class TestTracing:
    def test_router_hop_is_a_span_in_the_client_trace(self, fleet2):
        from repro.obs import format_profile, spans as _spans
        from tests.obs.test_propagation import assert_connected

        router, _, _ = fleet2
        _spans.enable(True)
        _spans.reset()
        try:
            with ServiceClient(router.host, router.port) as client:
                with _spans.span("submit"):
                    client.simulate("vpr", length=LENGTH)
            spans = _spans.drain()
        finally:
            _spans.enable(False)
        names = {s["name"] for s in spans}
        assert "router.route" in names
        assert "service.request" in names
        root = next(s for s in spans if s["name"] == "submit")
        assert_connected(spans, root["span_id"])
        hop = next(s for s in spans if s["name"] == "router.route")
        assert hop["attrs"]["node"] in ("n1", "n2")
        # the profile renderer shows the hop as its own stage
        assert "router.route" in format_profile(spans)


class TestFleetSpec:
    def test_round_trip(self):
        from repro.fleet import FleetSpec

        spec = FleetSpec(nodes=("127.0.0.1:7333", "127.0.0.1:7334"),
                         replication=2, hash_seed=3, vnodes=32)
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_bad_addresses(self):
        from repro.fleet import FleetSpec

        with pytest.raises(ValueError):
            FleetSpec(nodes=("no-port",))

    def test_router_requires_nodes(self):
        from repro.fleet import FleetSpec
        from repro.fleet.router import FleetRouter

        with pytest.raises(ValueError):
            FleetRouter(FleetSpec(nodes=()))


def test_timed_out_health_probe_closes_its_connection():
    """A node that accepts the probe but never answers times it out; the
    probe still closes its connection, so no writer is left for the
    garbage collector to report."""
    async def probe_silent_node():
        held = []
        server = await asyncio.start_server(
            lambda reader, writer: held.append(writer), "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        router = FleetRouter(FleetSpec(nodes=(f"127.0.0.1:{port}",),
                                       health_interval_s=0.01))
        (node,) = router.nodes.values()
        await router._check_health(node)
        for writer in held:
            writer.close()
        server.close()
        await server.wait_closed()
        await node.client.close()
        return node

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        node = asyncio.run(probe_silent_node())
        gc.collect()
    assert not node.healthy
    assert node.last_error == "healthz: TimeoutError"
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_peek_on_a_silent_node_gives_up_after_the_peek_timeout(monkeypatch):
    """A node that accepts a peek but never answers holds the router for
    ``PEEK_TIMEOUT_S``, not for its node client's compute wait."""
    from repro.fleet import router as router_module

    monkeypatch.setattr(router_module, "PEEK_TIMEOUT_S", 0.2)

    async def peek_silent_node():
        held = []
        server = await asyncio.start_server(
            lambda reader, writer: held.append(writer), "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        router = FleetRouter(FleetSpec(nodes=(f"127.0.0.1:{port}",)))
        (node,) = router.nodes.values()
        start = time.monotonic()
        try:
            response = await router._route_peek(
                protocol.Request(op="peek", params={"key": "k"}))
            return response, time.monotonic() - start
        finally:
            await node.client.close()
            for writer in held:
                writer.close()
            server.close()
            await server.wait_closed()

    response, elapsed = asyncio.run(peek_silent_node())
    assert response["result"] == {"found": False, "result": None}
    assert elapsed < 2.0
