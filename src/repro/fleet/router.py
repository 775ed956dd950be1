"""The fleet router: consistent-hash routing with failover.

``repro route`` runs one of these in front of N ``repro serve`` nodes.
It is the service's own front door
(:class:`~repro.service.server.FrontDoor` — the same listener,
newline-JSON frames and HTTP mapping) with routing behind it, so every
existing client works unchanged; the visible differences are response
metadata naming the node that answered and one extra route, ``/fleet``.

Request lifecycle
-----------------
1. **Normalize & key.**  The router runs the same
   :func:`repro.service.evaluations.normalize_params` /
   :func:`~repro.service.evaluations.request_key` pair the nodes use,
   so router and node derive the identical content key for a request —
   the whole design hangs on that equality.
2. **Place.**  The key's ring targets (owner first, then clockwise
   siblings, ``replication`` of them) are computed on the
   :class:`~repro.fleet.ring.HashRing`; the forward target is the first
   healthy one under the bounded-load ceiling.
3. **Peek.**  Before paying a forward, the router asks each live target
   for a cached response (the ``peek`` op — a disk probe, never a
   compute).  A sibling hit is replicated toward the owner so the
   shard's natural home warms up, then served.
4. **Forward & fail over.**  On a miss the full request goes to the
   forward target.  A connection failure or reset, or a node silent past
   its client's wait, marks the node suspect and replays the
   request on the next target — safe because evaluations are idempotent
   by content key.  ``overloaded`` from a node is also retried on
   siblings; only when *every* target is saturated does the client see
   ``overloaded``.  A request's ``timeout`` is the node's deadline, so a
   node that passes it answers ``timeout``, and that answer is returned.
   A request without one is forwarded with the node's own default
   deadline (its ``request_timeout_s``, learned from its ``ping``), and
   the node client waits that deadline plus a grace, so the node's
   ``timeout`` answer arrives before the client gives up.  Until that
   ping has answered, such a request goes without a deadline and the
   node applies its default itself.

Span tracing propagates through the hop: a traced client request gets a
``router.route`` span parented under the client's span, and the node's
spans parent under the router's — one submit, one connected trace.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from repro import package_version
from repro.fleet.ring import HashRing
from repro.obs import spans as _spans
from repro.service import protocol
from repro.service.client import AsyncServiceClient
from repro.service.protocol import ErrorCode, ProtocolError
from repro.service.server import (
    BackgroundDoor,
    FrontDoor,
    run_until_interrupted,
)
from repro.spec.fleet import FleetSpec
from repro.telemetry.metrics import metrics_registry

_log = logging.getLogger(__name__)

#: how long the router waits for a cache peek or an identity ping — a
#: disk probe or an echo, never a compute — before moving on
PEEK_TIMEOUT_S = 5.0


class _Node:
    """One worker node as the router sees it."""

    __slots__ = ("address", "host", "port", "client", "healthy",
                 "node_id", "deadline_s", "inflight", "last_error")

    def __init__(self, address: str):
        host, _, port = address.rpartition(":")
        self.address = address
        self.host = host
        self.port = int(port)
        self.client = AsyncServiceClient(self.host, self.port)
        self.healthy = True  # innocent until a probe or a reset says not
        self.node_id: str | None = None
        #: the node's default request deadline, once a ping tells it
        self.deadline_s: float | None = None
        self.inflight = 0
        self.last_error: str | None = None

    def status(self) -> dict:
        return {"address": self.address, "node_id": self.node_id,
                "healthy": self.healthy, "inflight": self.inflight,
                "last_error": self.last_error}


class FleetRouter(FrontDoor):
    """Routes service requests onto a fleet of nodes by content key."""

    def __init__(self, spec: FleetSpec, host: str = "127.0.0.1",
                 port: int = 0):
        if not spec.nodes:
            raise ValueError("FleetSpec has no nodes to route onto")
        super().__init__(host, port)
        self.spec = spec
        self.ring = HashRing(spec.nodes, seed=spec.hash_seed,
                             vnodes=spec.vnodes)
        self.nodes: dict[str, _Node] = {
            address: _Node(address) for address in spec.nodes}
        self._health_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self._listen()
        metrics_registry().gauge("router.nodes").set(len(self.nodes))
        self._health_task = asyncio.ensure_future(self._health_loop())
        _log.info("router listening on %s:%d over %d node(s)",
                  self.host, self.port, len(self.nodes))

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task, return_exceptions=True)
            self._health_task = None
        await self._close()
        for node in self.nodes.values():
            await node.client.close()
        _log.info("router stopped")

    # -- health --------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._check_health(node) for node in self.nodes.values()),
                return_exceptions=True,
            )
            metrics_registry().gauge("router.nodes_healthy").set(
                sum(node.healthy for node in self.nodes.values()))
            await asyncio.sleep(self.spec.health_interval_s)

    async def _check_health(self, node: _Node) -> None:
        """One ``GET /healthz`` probe; recovery re-learns the node id.

        The probe's connection is closed however the probe ends: answered,
        timed out, refused or cancelled by :meth:`stop`."""
        timeout = self.spec.health_interval_s + 2.0
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(node.host, node.port),
                timeout=timeout)
            writer.write(b"GET /healthz HTTP/1.1\r\n"
                         b"Host: fleet\r\nConnection: close\r\n\r\n")
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(),
                                                 timeout=timeout)
            ok = b" 200 " in status_line
        except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
            node.healthy = False
            node.last_error = f"healthz: {str(exc) or type(exc).__name__}"
            return
        finally:
            if writer is not None:
                writer.close()
        if ok and not (node.healthy and node.node_id):
            await self._learn_identity(node)
        node.healthy = ok
        if ok:
            node.last_error = None
        else:
            node.last_error = "healthz: not ok"

    async def _learn_identity(self, node: _Node) -> None:
        try:
            result = await self._probe(node, "ping")
            node.node_id = result.get("node") or node.address
            node.deadline_s = result.get("request_timeout_s")
        except Exception as exc:  # noqa: BLE001 - identity is best-effort
            node.last_error = f"ping: {exc}"

    @staticmethod
    async def _probe(node: _Node, op: str, params: dict | None = None,
                     trace: dict | None = None) -> dict:
        """A ``peek`` or ``ping`` on ``node``, waited for at most
        :data:`PEEK_TIMEOUT_S` (the node client's own wait is for
        computes)."""
        return await asyncio.wait_for(
            node.client.evaluate(op, params, trace=trace), PEEK_TIMEOUT_S)

    def _mark_down(self, node: _Node, error: str) -> None:
        node.healthy = False
        node.last_error = error
        metrics_registry().gauge("router.nodes_healthy").set(
            sum(n.healthy for n in self.nodes.values()))

    # -- routing --------------------------------------------------------

    def _candidates(self, key: str) -> list[_Node]:
        """Forward order for ``key``: healthy bounded-load targets
        first, then unhealthy ones as a stale-health last resort."""
        targets = [self.nodes[a]
                   for a in self.ring.targets(key, self.spec.replication)]
        healthy = [n for n in targets if n.healthy]
        if healthy:
            loads = {n.address: n.inflight for n in self.nodes.values()}
            first = self.ring.pick(
                key, loads, factor=self.spec.load_factor,
                n=self.spec.replication)
            if self.nodes[first] in healthy:
                healthy.remove(self.nodes[first])
                healthy.insert(0, self.nodes[first])
        return healthy + [n for n in targets if not n.healthy]

    async def _answer(self, request: protocol.Request) -> dict:
        """One routed request to its response frame."""
        metrics = metrics_registry()
        rid = request.id
        if request.op == "ping":
            return protocol.make_response(
                rid, {**self._pong(), "nodes": len(self.nodes)},
                {"served_from": "router"})
        if request.op == "metrics":
            return protocol.make_response(
                rid, {"metrics": metrics.to_dict()},
                {"served_from": "router"})
        if request.op == "peek":
            return await self._route_peek(request)

        from repro.service import evaluations

        normalized = evaluations.normalize_params(request.op, request.params)
        key = evaluations.request_key(request.op, normalized)
        metrics.counter("router.routed").inc()

        ctx = request.trace
        if ctx is not None and _spans.enabled():
            with _spans.attach(ctx), \
                    _spans.span("router.route", op=request.op,
                                request_id=rid) as sp:
                frame, node = await self._dispatch(
                    request, normalized, key,
                    trace=_spans.current_context())
                sp.set(node=node)
                return frame
        frame, _ = await self._dispatch(request, normalized, key, trace=ctx)
        return frame

    async def _dispatch(self, request: protocol.Request, normalized: dict,
                        key: str | None,
                        trace: dict | None) -> tuple[dict, str | None]:
        """Peek-then-forward over the key's targets, failing over."""
        metrics = metrics_registry()
        start = time.perf_counter()
        if key is None:  # unkeyable request: any healthy node will do
            candidates = [n for n in self.nodes.values() if n.healthy] or \
                list(self.nodes.values())
        else:
            candidates = self._candidates(key)

        if key is not None and self.spec.peek:
            frame = await self._peek_targets(request, key, candidates,
                                             trace=trace)
            if frame is not None:
                metrics.histogram("router.request_s").observe(
                    time.perf_counter() - start)
                return frame, frame.get("meta", {}).get("node")

        saw_overloaded = False
        for node in candidates:
            node.inflight += 1
            # an explicit deadline, so the client waits it out plus a
            # grace and the node's own timeout answer comes first; while
            # the node's default is unknown the node applies it itself
            try:
                response = await node.client.request(
                    request.op, normalized,
                    timeout=request.timeout or node.deadline_s, trace=trace)
            except OSError as exc:  # ConnectionError: lost or unanswered
                self._mark_down(node, f"forward: {exc}")
                metrics.counter("router.failover").inc()
                _log.warning("node %s failed mid-request (%s); "
                             "failing over", node.address, exc)
                continue
            finally:
                node.inflight -= 1
            metrics.counter("router.forwarded").inc()
            if not response.get("ok") and (response.get("error") or {}).get(
                    "code") == ErrorCode.OVERLOADED:
                saw_overloaded = True
                continue  # a sibling may have headroom; replays are safe
            # The node answered the router's internal request id; the
            # client is waiting on its own.
            response = dict(response)
            response["id"] = request.id
            meta = dict(response.get("meta") or {})
            meta.setdefault("node", node.node_id or node.address)
            meta["router"] = {"target": node.address,
                              "owner": candidates[0].address}
            response["meta"] = meta
            metrics.histogram("router.request_s").observe(
                time.perf_counter() - start)
            return response, meta.get("node")

        if saw_overloaded:
            metrics.counter("router.overloaded").inc()
            return protocol.make_error(
                request.id, ErrorCode.OVERLOADED,
                "every replica target is saturated"), None
        return protocol.make_error(
            request.id, ErrorCode.INTERNAL,
            "no fleet node could serve the request"), None

    async def _peek_targets(self, request: protocol.Request, key: str,
                            candidates: list[_Node],
                            trace: dict | None = None) -> dict | None:
        """Serve from any target's cache; replicate hits to the owner."""
        metrics = metrics_registry()
        owner = candidates[0] if candidates else None
        for node in candidates:
            try:
                result = await self._probe(node, "peek", {"key": key},
                                           trace)
            except Exception:  # noqa: BLE001 - peeks are best-effort
                continue
            if not result.get("found"):
                continue
            metrics.counter("router.peek_hit").inc()
            payload = result["result"]
            if owner is not None and node is not owner and owner.healthy:
                try:
                    await self._probe(owner, "peek",
                                      {"key": key, "store": payload}, trace)
                    metrics.counter("router.replicated").inc()
                except Exception:  # noqa: BLE001 - replication is advisory
                    pass
            return protocol.make_response(request.id, payload, {
                "served_from": "peek",
                "node": node.node_id or node.address,
                "router": {"target": node.address,
                           "owner": owner.address if owner else None},
            })
        metrics.counter("router.peek_miss").inc()
        return None

    async def _route_peek(self, request: protocol.Request) -> dict:
        """An external ``peek``: probe the key's targets, first hit wins."""
        key = request.params.get("key")
        if not isinstance(key, str) or not key:
            raise ProtocolError("'peek' requires a string 'key'")
        for node in self._candidates(key):
            try:
                result = await self._probe(node, "peek", request.params)
            except Exception:  # noqa: BLE001
                continue
            if result.get("found") or result.get("stored"):
                return protocol.make_response(
                    request.id, result,
                    {"served_from": "peek",
                     "node": node.node_id or node.address})
        return protocol.make_response(
            request.id, {"found": False, "result": None},
            {"served_from": "router"})

    # -- status ---------------------------------------------------------

    def fleet_status(self) -> dict:
        """The ``/fleet`` document: topology, health, router counters."""
        registry = metrics_registry()
        counters = {
            name: registry.counter(name).value
            for name in ("router.routed", "router.forwarded",
                         "router.peek_hit", "router.peek_miss",
                         "router.replicated", "router.failover",
                         "router.overloaded")
        }
        return {
            "router": {"host": self.host, "port": self.port,
                       "version": package_version(),
                       "protocol": protocol.PROTOCOL_VERSION},
            "spec": self.spec.to_dict(),
            "nodes": [self.nodes[a].status() for a in self.spec.nodes],
            "healthy": sum(n.healthy for n in self.nodes.values()),
            "counters": counters,
        }

    # -- the door's hooks -----------------------------------------------

    def _health(self) -> tuple[int, str]:
        if any(node.healthy for node in self.nodes.values()):
            return 200, "ok\n"
        return 503, "no healthy nodes\n"

    def _about(self) -> dict:
        return {"role": "router"}

    def _metrics_labels(self) -> dict | None:
        return {"node": "router"}

    def _extra_route(self, method: str,
                     path: str) -> tuple[int, str, str] | None:
        if method in ("GET", "HEAD") and path == "/fleet":
            return (200, json.dumps(self.fleet_status(), sort_keys=True)
                    + "\n", "application/json")
        return None


def route(spec: FleetSpec, host: str = "127.0.0.1", port: int = 7400,
          ready=None) -> None:
    """Run a router until interrupted (the ``repro route`` entry)."""
    run_until_interrupted(lambda: FleetRouter(spec, host, port), ready)


class BackgroundRouter(BackgroundDoor):
    """A router on a daemon thread — tests, benchmarks, embedding.

    ::

        with BackgroundRouter(spec) as bg:
            with ServiceClient(bg.host, bg.port) as client:
                client.simulate("gzip")   # routed onto the fleet

    The context entry blocks until the socket is bound; the exit stops
    the router (the nodes are not the router's to stop).
    """

    def __init__(self, spec: FleetSpec, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__(lambda: FleetRouter(spec, host, port), host,
                         "router")

    @property
    def router(self) -> FleetRouter:
        assert self._door is not None, "not started"
        return self._door


__all__ = ["BackgroundRouter", "FleetRouter", "route"]
