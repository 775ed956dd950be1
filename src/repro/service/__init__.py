"""repro.service — a long-lived model-evaluation service.

The batch CLI pays process startup, trace generation and functional-pass
work on every invocation.  This package keeps all of that warm behind a
network front door, turning config→CPI questions into millisecond
round-trips:

* :mod:`repro.service.protocol` — the versioned JSON wire protocol
  (newline-delimited frames over TCP, plus an HTTP mapping).
* :mod:`repro.service.evaluations` — the evaluation registry: ``model``,
  ``simulate``, ``compare`` and ``experiment`` requests normalized,
  content-addressed and executed (in pool workers) as JSON payloads.
* :mod:`repro.service.scheduler` — admission control (bounded queue →
  explicit ``overloaded``), micro-batching onto a process pool,
  in-flight coalescing of identical requests, persistent-cache serving,
  per-request timeouts and worker-crash retry with backoff.
* :mod:`repro.service.server` — the asyncio front door (one listener
  for newline-JSON frames and HTTP: ``/healthz``, ``/metrics``,
  ``/version``, ``POST /v1/eval``) that the service and the fleet
  router share, and the service itself with its graceful drain.
* :mod:`repro.service.client` — the wire client: the asyncio
  ``AsyncServiceClient`` the fleet router drives, and
  :class:`ServiceClient`, the blocking Python API behind
  ``repro submit``, which runs it on a private event loop.

Start one with ``repro serve`` and query it with ``repro submit`` or::

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1", 7333) as client:
        print(client.model("gzip")["cpi"])
"""

from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    Request,
)
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.server import BackgroundServer, ServiceServer, serve

__all__ = [
    "PROTOCOL_VERSION",
    "BackgroundServer",
    "ErrorCode",
    "ProtocolError",
    "Request",
    "RetryPolicy",
    "Scheduler",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "serve",
]
