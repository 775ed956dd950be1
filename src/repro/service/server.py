"""The asyncio front door: TCP JSON frames plus a small HTTP surface.

One listening socket speaks both dialects — the first bytes of a
connection decide.  ``GET``/``POST``/``HEAD`` opens the HTTP mapping
(one request per connection, ``Connection: close``):

* ``GET /healthz``  — liveness: ``ok`` (200) or why not (503)
* ``GET /metrics``  — Prometheus text exposition of the process registry
* ``GET /version``  — package and protocol versions
* ``POST /v1/eval`` — body is a request frame, response is the frame

Anything else is the native newline-delimited JSON protocol
(:mod:`repro.service.protocol`): many requests per connection, handled
concurrently, responses correlated by ``id``.

:class:`FrontDoor` is that surface, written once for both doors: the
:class:`ServiceServer` answers through the
:class:`~repro.service.scheduler.Scheduler`, the
:class:`~repro.fleet.router.FleetRouter` by routing onto a fleet.
Shutdown is a drain, not a drop: the listener closes, new requests get
``shutting_down``, in-flight requests finish, then the pool goes away.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Awaitable, Callable

from repro import package_version
from repro.obs import spans as _spans
from repro.service import protocol
from repro.service.protocol import ErrorCode, ProtocolError
from repro.service.scheduler import (
    EvalFailed,
    EvalTimeout,
    Overloaded,
    Scheduler,
    SchedulerConfig,
)
from repro.telemetry.metrics import metrics_registry

_log = logging.getLogger(__name__)

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}

#: ``POST /v1/eval`` status per error code; any other code is a 400
_EVAL_STATUS = {ErrorCode.OVERLOADED: 503, ErrorCode.SHUTTING_DOWN: 503,
                ErrorCode.TIMEOUT: 504, ErrorCode.INTERNAL: 500}


async def _readline(reader: asyncio.StreamReader) -> bytes | None:
    """The next line, ``b""`` at end of stream, ``None`` if over the limit."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # end of stream, maybe after an unterminated line
    except asyncio.LimitOverrunError:
        return None


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard an over-limit line, never buffering more than the limit."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return  # the stream ended inside the line
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(
                min(exc.consumed, protocol.MAX_FRAME_BYTES))


async def _send(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(data)
    try:
        await writer.drain()
    except (ConnectionResetError, OSError):
        pass


class FrontDoor:
    """One listener speaking both dialects; subclasses answer requests.

    A door supplies the hooks below plus ``start``/``stop``, which bind
    with :meth:`_listen` and close with :meth:`_close`.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()

    # -- hooks ---------------------------------------------------------

    async def _answer(self, request: protocol.Request) -> dict:
        """A parsed request's response frame (or a ProtocolError)."""
        raise NotImplementedError

    def _health(self) -> tuple[int, str]:
        """``/healthz``: ``(200, "ok\\n")`` or a 503 saying why not."""
        raise NotImplementedError

    def _about(self) -> dict:
        """Who answers: the fields ``ping`` and ``/version`` add."""
        raise NotImplementedError

    def _metrics_labels(self) -> dict | None:
        return None

    def _extra_route(self, method: str,
                     path: str) -> tuple[int, str, str] | None:
        return None

    # -- lifecycle -----------------------------------------------------

    async def _listen(self) -> None:
        """Bind the listener, resolving ``port=0``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def _close(self, drain: Awaitable | None = None) -> None:
        """Close the listener, await ``drain`` (in-flight work), then
        drop the connections still open."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain is not None:
            await drain
        for task in list(self._connections):  # idle keep-alive connections
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def _pong(self) -> dict:
        """The ``ping`` result."""
        return {"pong": True, "version": package_version(),
                "protocol": protocol.PROTOCOL_VERSION, **self._about()}

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            first = await _readline(reader)
            if first is not None and any(
                    first.startswith(m) for m in _HTTP_METHODS):
                await self._handle_http(first, reader, writer)
            elif first != b"":
                await self._handle_frames(first, reader, writer)
        except (ConnectionResetError, asyncio.IncompleteReadError,
                ValueError):
            pass  # client went away or overran an HTTP header line
        except asyncio.CancelledError:
            pass  # server shutdown closed this connection under us
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass  # teardown during loop shutdown is not an error

    # -- the native JSON-frames dialect ---------------------------------

    async def _handle_frames(self, first: bytes | None,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        line = first
        while line != b"":
            if line is None or line.strip():
                task = asyncio.ensure_future(
                    self._answer_frame(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if line is None:
                await _skip_line(reader)
            line = await _readline(reader)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _answer_frame(self, line: bytes | None,
                            writer: asyncio.StreamWriter,
                            lock: asyncio.Lock) -> None:
        if line is None:  # over the limit: refused, and skipped unread
            response = protocol.make_error(
                "", ErrorCode.BAD_REQUEST, "frame exceeds MAX_FRAME_BYTES")
        else:
            response = await self._respond(line)
        async with lock:
            await _send(writer, protocol.encode_frame(response))

    async def _respond(self, line: bytes) -> dict:
        """One request frame in, one response frame out — never raises."""
        rid = ""
        try:
            frame = protocol.decode_frame(line)
            rid = str(frame.get("id", ""))
            request = protocol.parse_request(frame)
            rid = request.id
            return await self._answer(request)
        except ProtocolError as exc:
            return protocol.make_error(rid, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - the wire must answer
            _log.exception("unexpected error answering a request")
            return protocol.make_error(
                rid, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")

    # -- the HTTP dialect -----------------------------------------------

    async def _handle_http(self, request_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            method, target, _ = request_line.decode().split(None, 2)
        except ValueError:
            await self._http_reply(writer, 400, "bad request line\n")
            return
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value)
                except ValueError:
                    content_length = -1
        if content_length < 0:
            reply = (400, "bad content-length\n", "text/plain")
        elif content_length > protocol.MAX_FRAME_BYTES:
            reply = (413, "body too large\n", "text/plain")
        else:
            body = await reader.readexactly(content_length)
            reply = await self._route_http(
                method, target.split("?", 1)[0], body)
        await self._http_reply(writer, *reply, head=method == "HEAD")

    async def _route_http(self, method: str, path: str,
                          body: bytes) -> tuple[int, str, str]:
        """``(status, body, content type)`` for one HTTP request."""
        read = method in ("GET", "HEAD")
        if read and path == "/healthz":
            return (*self._health(), "text/plain")
        if read and path == "/metrics":
            text = metrics_registry().to_prometheus(
                labels=self._metrics_labels())
            return 200, text, "text/plain; version=0.0.4"
        if read and path == "/version":
            doc = {"version": package_version(),
                   "protocol": protocol.PROTOCOL_VERSION,
                   "host": self.host, "port": self.port, **self._about()}
            return 200, json.dumps(doc) + "\n", "application/json"
        if method == "POST" and path == "/v1/eval":
            response = await self._respond(body)
            status = 200 if response["ok"] else _EVAL_STATUS.get(
                response["error"]["code"], 400)
            return (status, json.dumps(response, sort_keys=True) + "\n",
                    "application/json")
        return self._extra_route(method, path) or \
            (404, f"no route {path}\n", "text/plain")

    async def _http_reply(self, writer: asyncio.StreamWriter, status: int,
                          body: str, content_type: str = "text/plain",
                          head: bool = False) -> None:
        """One response; a ``HEAD`` reply keeps the headers, not the body."""
        payload = body.encode()
        head_bytes = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        await _send(writer, head_bytes if head else head_bytes + payload)


class ServiceServer(FrontDoor):
    """The evaluation service: scheduler + protocol endpoints."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: SchedulerConfig | None = None,
        node_id: str | None = None,
    ):
        super().__init__(host, port)
        self.node_id = node_id
        self.scheduler = Scheduler(config)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (resolving ``port=0``) and start workers."""
        self.scheduler.start()
        await self._listen()
        metrics_registry().gauge("service.up").set(1)
        _log.info("service listening on %s:%d", self.host, self.port)

    async def stop(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful drain: refuse new work, finish in-flight, shut down."""
        await self._close(self.scheduler.drain(timeout=drain_timeout))
        metrics_registry().gauge("service.up").set(0)
        _log.info("service stopped")

    # -- the door's hooks -----------------------------------------------

    def _health(self) -> tuple[int, str]:
        return (503, "draining\n") if self.scheduler.draining \
            else (200, "ok\n")

    def _about(self) -> dict:
        return {"node": self.node_id,
                "request_timeout_s": self.scheduler.config.request_timeout_s}

    def _metrics_labels(self) -> dict | None:
        return {"node": self.node_id} if self.node_id else None

    async def _answer(self, request: protocol.Request) -> dict:
        try:
            result, meta = await self._evaluate(request)
        except (Overloaded, EvalTimeout, EvalFailed) as exc:
            return protocol.make_error(request.id, exc.code, str(exc))
        if self.node_id is not None:
            meta = {**meta, "node": self.node_id}
        return protocol.make_response(request.id, result, meta)

    async def _evaluate(self, request: protocol.Request) -> tuple[dict, dict]:
        if request.op == "ping":
            return self._pong(), {"served_from": "server"}
        if request.op == "metrics":
            return ({"metrics": metrics_registry().to_dict()},
                    {"served_from": "server"})
        if request.op == "peek":
            if request.trace is not None and _spans.enabled():
                # the probe's cache.probe span joins the caller's trace
                with _spans.attach(request.trace):
                    return self._peek(request.params)
            return self._peek(request.params)
        if request.trace is not None and _spans.enabled():
            # re-root under the client's span so client, scheduler and
            # pool worker form one connected trace per submit
            attrs = {"op": request.op, "request_id": request.id}
            if self.node_id is not None:
                attrs["node"] = self.node_id
            with _spans.attach(request.trace), \
                    _spans.span("service.request", **attrs):
                return await self.scheduler.submit(
                    request.op, request.params, timeout=request.timeout)
        return await self.scheduler.submit(
            request.op, request.params, timeout=request.timeout)

    def _peek(self, params: dict) -> tuple[dict, dict]:
        """The fleet's cache-probe op: look up (or store) a keyed
        response without ever touching the scheduler or the pool.

        ``{"key": K}`` answers ``{"found": bool, "result": ...}`` from
        the *local* store only (``remote=False`` — peers asking peers
        must never recurse); ``{"key": K, "store": payload}`` replicates
        a response computed elsewhere into this node's cache.
        """
        from repro.runner import artifacts

        key = params.get("key")
        if not isinstance(key, str) or not key:
            raise ProtocolError("'peek' requires a string 'key'")
        unknown = set(params) - {"key", "store"}
        if unknown:
            raise ProtocolError(f"unknown peek params: {sorted(unknown)}")
        metrics = metrics_registry()
        if "store" in params:
            artifacts.store_artifact("response", key, params["store"])
            metrics.counter("service.peek_store").inc()
            return ({"stored": True}, {"served_from": "server"})
        found, obj = artifacts.probe_artifact("response", key, remote=False)
        metrics.counter(
            "service.peek_hit" if found else "service.peek_miss").inc()
        return ({"found": found, "result": obj if found else None},
                {"served_from": "cache" if found else "server"})


def run_until_interrupted(make: Callable[[], FrontDoor], ready=None) -> None:
    """Build a door on a fresh event loop, start it, call ``ready`` with
    it once bound and serve until interrupted; stopping drains it."""
    async def main() -> None:
        door = make()
        await door.start()
        if ready is not None:
            ready(door)
        try:
            await door.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await door.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        _log.info("interrupted; stopped")


def serve(host: str = "127.0.0.1", port: int = 7333,
          config: SchedulerConfig | None = None, ready=None,
          node_id: str | None = None) -> None:
    """Run a service until interrupted (the ``repro serve`` entry).

    ``ready`` is called with the started :class:`ServiceServer` once the
    socket is bound — the CLI prints the address from it (``port=0``
    binds an ephemeral port, resolved by the time ``ready`` fires).
    """
    run_until_interrupted(
        lambda: ServiceServer(host, port, config, node_id=node_id), ready)


class BackgroundDoor:
    """A door on a daemon thread — tests, benchmarks, embedding.

    ``make`` builds the door on the thread's event loop.  The context
    entry blocks until the socket is bound; the exit stops the door.
    """

    def __init__(self, make: Callable[[], FrontDoor], host: str,
                 name: str):
        self._make = make
        self._host = host
        self._name = name
        self._door: FrontDoor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._failure: BaseException | None = None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        assert self._door is not None, "not started"
        return self._door.port

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self._name}", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError(
                f"{self._name} failed to start") from self._failure
        assert self._door is not None
        return self

    def __exit__(self, *exc_info) -> None:
        task, self._task = self._task, None  # a second exit is a no-op
        if task is not None and self._loop.is_running():
            # ends serve_forever; the loop then stops the door
            self._loop.call_soon_threadsafe(task.cancel)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def _run(self) -> None:
        def ready(door: FrontDoor) -> None:
            self._door = door
            self._loop = asyncio.get_running_loop()
            self._task = asyncio.current_task()
            self._started.set()

        try:
            run_until_interrupted(self._make, ready)
        except BaseException as exc:  # surface bind errors to __enter__
            self._failure = exc
            raise
        finally:
            self._started.set()


class BackgroundServer(BackgroundDoor):
    """A service on a daemon thread: ``with BackgroundServer() as bg:``
    serves on ``bg.host``/``bg.port`` until the exit drains it."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: SchedulerConfig | None = None,
                 node_id: str | None = None):
        super().__init__(
            lambda: ServiceServer(host, port, config, node_id=node_id),
            host, "service")
