"""repro.fleet — horizontal scaling for the evaluation service.

The PR-3 service is one asyncio process with one pool and one artifact
cache.  This package scales it out while keeping every answer
bit-identical to an in-process run:

* :mod:`repro.fleet.ring` — consistent hashing with virtual nodes,
  bounded-load placement and deterministic rebalance.  Requests shard
  by :meth:`repro.spec.RunSpec.content_key` (via the service's
  ``request_key``), so each node's cache stays hot for its shard.
* :mod:`repro.service.client` — :class:`AsyncServiceClient`, the
  asyncio wire client the router drives: connection pooling and request
  pipelining (many frames in flight per connection, demuxed by request
  id).  It is re-exported here.
* :mod:`repro.fleet.router` — the front door (``repro route``): speaks
  the service's exact newline-JSON/HTTP protocol, peeks ring targets'
  caches before forwarding, replicates responses toward the key's
  owner, health-checks nodes and fails requests over when one dies
  mid-flight (safe — evaluations are idempotent by content key).
* :mod:`repro.fleet.nodes` — subprocess node management: spawn
  ``repro serve --port 0`` workers with isolated caches, parse their
  ready lines, and :class:`LocalFleet`, the all-in-one harness the
  failover tests drive.
* :mod:`repro.fleet.peers` — ``repro serve --peer``: a node-level
  remote cache-probe hook so even routerless nodes can serve keys a
  sibling already computed.

See docs/FLEET.md for topology, key-affinity and failover semantics.
"""

from repro.fleet.nodes import LocalFleet, NodeProc, spawn_node
from repro.fleet.ring import HashRing
from repro.fleet.router import BackgroundRouter, FleetRouter, route
from repro.service.client import AsyncServiceClient
from repro.spec.fleet import FleetSpec

__all__ = [
    "AsyncServiceClient",
    "BackgroundRouter",
    "FleetRouter",
    "FleetSpec",
    "HashRing",
    "LocalFleet",
    "NodeProc",
    "route",
    "spawn_node",
]
