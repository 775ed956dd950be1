"""The wire client: one asyncio core and a blocking facade over it.

:class:`AsyncServiceClient` is the only client-side reader of response
frames: it pipelines requests over a small pool of connections and
hands each response to the future waiting on its request id, so a cache
hit can overtake a compute.  The fleet router drives it on its own
event loop.  :class:`ServiceClient`, the blocking API, runs one
single-connection ``AsyncServiceClient`` on a private event loop on a
daemon thread while connected, and any number of threads can share it::

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1", 7333) as client:
        report = client.model("gzip", length=30_000)
        sim = client.simulate("gzip", length=30_000)
        print(report["cpi"], sim["cpi"])

A client's ``timeout`` bounds its dial and each wait for an answer, and
expiry raises :class:`ConnectionError`.  A request's ``timeout`` is the
server's deadline, carried in the frame; the client waits at least that
long plus a second's grace, so the server's ``timeout`` answer always
arrives before the client gives up.

Failures surface as :class:`ServiceError` with the server's error code
(``overloaded``, ``timeout``, ...).  By default the client never
retries; pass a :class:`RetryPolicy` to opt into client-side retries of
``overloaded`` responses and connection resets with jittered
exponential backoff::

    with ServiceClient(host, port, retry=RetryPolicy()) as client:
        client.simulate("gzip")   # survives transient saturation

Retries are safe for this protocol because every evaluation is
idempotent by content key — a replay of the same request can only hit
the cache or recompute the identical answer.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import random
import threading
import time
import weakref
from dataclasses import dataclass

from repro.obs import spans as _spans
from repro.service import protocol
from repro.service.protocol import ProtocolError

#: how much longer than a request's own deadline the client waits for
#: its answer, so the server's ``timeout`` response always comes first
_DEADLINE_GRACE_S = 1.0


def _spec_payload(op: str, params: dict) -> dict:
    """Lift flat ``model``/``simulate`` kwargs into a spec payload.

    The convenience wrappers keep their flat keyword signature but put
    a canonical ``{"spec": ...}`` on the wire — the only form the
    server accepts.  Anything that fails local validation is sent flat
    and unmodified — the server owns the canonical error response.
    """
    from repro.service.evaluations import flat_params_to_spec

    if "spec" in params:
        return params
    out = {k: v for k, v in params.items() if k == "chaos"}
    flat = {k: v for k, v in params.items() if k != "chaos"}
    try:
        out["spec"] = flat_params_to_spec(op, flat).to_dict()
    except ProtocolError:
        return params
    return out


class ServiceError(RuntimeError):
    """An error response from the service; ``code`` is the wire code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


@dataclass(frozen=True)
class RetryPolicy:
    """Opt-in client-side retry of transient failures.

    ``attempts`` is the total try count (1 = no retry).  Sleeps follow
    ``backoff_s * multiplier**i`` with up to ``jitter`` fractional
    random extra, so a thundering herd of saturated clients decorrelates
    instead of re-stampeding the service in lockstep.  Only error codes
    in ``codes`` and connection failures (reset, refused, EOF) are
    retried — a ``bad_request`` can never succeed on replay.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5
    codes: tuple[str, ...] = (protocol.ErrorCode.OVERLOADED,)

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        base = self.backoff_s * (self.multiplier ** attempt)
        r = rng.random() if rng is not None else random.random()
        return base * (1.0 + self.jitter * r)

    def retries(self, code: str | None) -> bool:
        """Whether a failure is retryable (``None`` = connection loss)."""
        return code is None or code in self.codes


class _Connection:
    """One pipelined TCP connection: writer lock + id-keyed futures."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._pending: dict[str, asyncio.Future] = {}
        self._closed = False
        self._task = asyncio.ensure_future(self._read_loop())

    @property
    def alive(self) -> bool:
        return not self._closed

    @property
    def inflight(self) -> int:
        return len(self._pending)

    async def request(self, frame: dict, rid: str) -> dict:
        if self._closed:
            raise ConnectionError("connection is closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode_frame(frame))
                await self._writer.drain()
            return await future
        finally:
            self._pending.pop(rid, None)

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("connection closed")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = protocol.decode_frame(line)
                future = self._pending.get(str(response.get("id", "")))
                if future is not None and not future.done():
                    future.set_result(response)
        except (OSError, ValueError) as exc:  # ProtocolError: ValueError
            error = ConnectionError(f"connection lost: {exc}")
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()
            self._writer.close()

    async def close(self) -> None:
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


class AsyncServiceClient:
    """Pooled asyncio client for one service node.

    ``pool`` bounds the number of concurrent TCP connections; requests
    are pipelined onto the least-loaded live connection, so one slow
    compute does not head-of-line-block a cache hit (the server answers
    out of order and frames are demuxed by id).  A dropped connection
    fails its requests in flight with :class:`ConnectionError` and is
    re-dialed on the next request; an answer that does not come within
    ``timeout`` (see :meth:`_bounded`) is a :class:`ConnectionError` too.
    """

    def __init__(self, host: str, port: int, timeout: float | None = 120.0,
                 pool: int = 2):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool = max(1, int(pool))
        self._conns: list[_Connection] = []
        self._ids = itertools.count(1)
        self._dial_lock = asyncio.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def _bounded(self, awaitable, deadline: float | None = None):
        """Await under the client's own ``timeout``, or a request's
        ``deadline`` plus :data:`_DEADLINE_GRACE_S` if that is longer."""
        wait = self.timeout
        if wait is not None and deadline is not None:
            wait = max(wait, deadline + _DEADLINE_GRACE_S)
        try:
            return await asyncio.wait_for(awaitable, wait)
        except asyncio.TimeoutError:
            raise ConnectionError(
                f"{self.address} did not answer within {wait}s") from None

    async def _connection(self) -> _Connection:
        self._conns = [c for c in self._conns if c.alive]
        if len(self._conns) < self.pool:
            async with self._dial_lock:
                self._conns = [c for c in self._conns if c.alive]
                if len(self._conns) < self.pool:
                    reader, writer = await self._bounded(
                        asyncio.open_connection(
                            self.host, self.port,
                            limit=protocol.MAX_FRAME_BYTES))
                    self._conns.append(_Connection(reader, writer))
        return min(self._conns, key=lambda c: c.inflight)

    async def request(self, op: str, params: dict | None = None,
                      timeout: float | None = None,
                      trace: dict | None = None) -> dict:
        """Send one request; return the full response frame.
        ``timeout`` is the server's deadline for it."""
        return await self._send(str(next(self._ids)), op, params, timeout,
                                trace)

    async def _send(self, rid: str, op: str, params: dict | None,
                    timeout: float | None, trace: dict | None) -> dict:
        """:meth:`request` under an id the caller drew."""
        frame = protocol.make_request(op, params, id=rid,
                                      timeout=timeout, trace=trace)
        conn = await self._connection()
        return await self._bounded(conn.request(frame, rid), timeout)

    async def evaluate(self, op: str, params: dict | None = None,
                       timeout: float | None = None,
                       trace: dict | None = None) -> dict:
        """Send one request; return ``result`` or raise ServiceError."""
        response = await self.request(op, params, timeout, trace)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(error.get("code", "internal"),
                               error.get("message", "unknown error"))
        return response["result"]

    async def ping(self) -> dict:
        return await self.evaluate("ping")

    async def close(self) -> None:
        conns, self._conns = self._conns, []
        for conn in conns:
            await conn.close()

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class ServiceClient:
    """Blocking client for :mod:`repro.service` (context manager)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7333,
                 timeout: float | None = 120.0,
                 retry: RetryPolicy | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # guards the three below
        self._loop: asyncio.AbstractEventLoop | None = None
        self._client: AsyncServiceClient | None = None
        self._stop: weakref.finalize | None = None

    # -- connection ----------------------------------------------------

    def connect(self) -> "ServiceClient":
        """Dial now, sending nothing; a no-op while connected."""
        with self._lock:
            if self._client is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(target=loop.run_forever,
                                          name="repro-client", daemon=True)
                thread.start()
                client = AsyncServiceClient(self.host, self.port,
                                            self.timeout, pool=1)
                # a client never closed is stopped when it is collected,
                # or at interpreter exit
                stop = weakref.finalize(self, _shutdown, loop, thread, client)
                try:
                    asyncio.run_coroutine_threadsafe(
                        client._connection(), loop).result()
                except BaseException:
                    stop()
                    raise
                self._loop, self._client, self._stop = loop, client, stop
        return self

    def close(self) -> None:
        with self._lock:
            stop = self._stop
            self._loop = self._client = self._stop = None
        # the shutdown happens outside the lock: it fails the requests
        # in flight, whose threads must not find the lock held
        if stop is not None:
            stop()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the protocol ---------------------------------------------------

    def request(self, op: str, params: dict | None = None,
                timeout: float | None = None) -> dict:
        """Send one request and return its response frame (the full
        ``{"ok": ..., ...}`` object, metadata included).  ``timeout``
        is the server's deadline for it."""
        self.connect()
        rid = str(next(self._ids))
        # the span opens in this thread; with span collection on, its
        # context rides in the frame so the server's spans join this
        # client's trace
        with _spans.span("client.request", op=op, request_id=rid):
            trace = _spans.current_context()
            with self._lock:
                # another thread's close() (its error path) can have
                # stopped the loop since connect() returned
                if self._client is None:
                    raise ConnectionError("connection is closed")
                future = asyncio.run_coroutine_threadsafe(
                    self._client._send(rid, op, params, timeout, trace),
                    self._loop)
            try:
                return future.result()
            except concurrent.futures.CancelledError:
                raise ConnectionError("client closed") from None

    def evaluate(self, op: str, params: dict | None = None,
                 timeout: float | None = None) -> dict:
        """Send one request; return ``result`` or raise ServiceError.

        With a :class:`RetryPolicy` configured, ``overloaded`` (or any
        policy-listed code) and connection failures are retried with
        jittered backoff, reconnecting as needed; the last failure
        propagates when attempts run out.
        """
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(attempts):
            last = attempt == attempts - 1
            try:
                response = self.request(op, params, timeout)
            except (ConnectionError, OSError):
                self.close()  # the connection is in an unknown state
                if policy is None or last or not policy.retries(None):
                    raise
                time.sleep(policy.delay(attempt))
                continue
            if response.get("ok"):
                return response["result"]
            error = response.get("error") or {}
            code = error.get("code", "internal")
            if policy is not None and not last and policy.retries(code):
                time.sleep(policy.delay(attempt))
                continue
            raise ServiceError(code, error.get("message", "unknown error"))
        raise AssertionError("unreachable")  # pragma: no cover

    # -- convenience wrappers -------------------------------------------

    def ping(self) -> dict:
        return self.evaluate("ping")

    def metrics(self) -> dict:
        return self.evaluate("metrics")["metrics"]

    def peek(self, key: str) -> dict:
        """Probe the server's response cache for a content key."""
        return self.evaluate("peek", {"key": key})

    def model(self, benchmark: str, **params) -> dict:
        return self.evaluate(
            "model", _spec_payload("model", {"benchmark": benchmark,
                                             **params}))

    def simulate(self, benchmark: str, **params) -> dict:
        return self.evaluate(
            "simulate", _spec_payload("simulate", {"benchmark": benchmark,
                                                   **params}))

    def compare(self, benchmarks: list[str] | None = None,
                **params) -> dict:
        if benchmarks is not None:
            params["benchmarks"] = benchmarks
        return self.evaluate("compare", params)

    def experiment(self, name: str, timeout: float | None = None) -> dict:
        return self.evaluate("experiment", {"name": name}, timeout=timeout)

    def explore(self, search, timeout: float | None = None) -> dict:
        """Run a design-space search (:mod:`repro.explore`) server-side.

        ``search`` is a :class:`repro.explore.SearchSpec` or its dict
        form; identical searches coalesce by search content-key.
        """
        if hasattr(search, "to_dict"):
            search = search.to_dict()
        return self.evaluate("explore", {"search": search},
                             timeout=timeout)


def _shutdown(loop: asyncio.AbstractEventLoop, thread: threading.Thread,
              client: AsyncServiceClient) -> None:
    """Cancel what is in flight on a facade's private loop, close its
    connection, then stop and close the loop and join its thread."""
    if threading.current_thread() is thread:  # collected on its own loop
        loop.stop()
        return

    async def drain() -> None:
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await client.close()
        await loop.shutdown_default_executor()

    try:
        asyncio.run_coroutine_threadsafe(drain(), loop).result()
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


__all__ = ["AsyncServiceClient", "ProtocolError", "RetryPolicy",
           "ServiceClient", "ServiceError"]
