"""ServiceClient internals: response demux by id and opt-in retries.

A scripted fake server gives deterministic wire behaviour the real
service can't: out-of-order responses on demand, an ``overloaded``
error that clears on the next attempt, a mid-request disconnect.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time

import pytest

from repro.service import RetryPolicy, ServiceClient
from repro.service.client import ServiceError


class _ScriptedServer:
    """A TCP server answering frames with a per-test handler."""

    def __init__(self, handler):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                while True:
                    line = self.rfile.readline()
                    if not line:
                        return
                    frame = json.loads(line)
                    for response in outer.handler(frame):
                        if response is None:  # scripted disconnect
                            return
                        self.wfile.write(
                            (json.dumps(response) + "\n").encode())

        self.handler = handler
        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self):
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _ok(rid, result):
    return {"v": 1, "id": rid, "ok": True, "result": result, "meta": {}}


def _err(rid, code):
    return {"v": 1, "id": rid, "ok": False,
            "error": {"code": code, "message": code}}


class TestDemux:
    def test_out_of_order_responses_reach_their_threads(self):
        """The server answers request 1 only after request 2 arrives —
        each waiting thread must still get its own frame."""
        parked = {}
        lock = threading.Lock()

        def handler(frame):
            with lock:
                if frame["op"] == "slow":
                    parked["slow"] = frame["id"]
                    return []  # hold the response
                responses = [_ok(frame["id"], {"op": "fast"})]
                if "slow" in parked:
                    responses.append(_ok(parked.pop("slow"),
                                         {"op": "slow"}))
                return responses

        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port,
                               timeout=10) as client:
                results = {}

                def call(op):
                    results[op] = client.evaluate(op)

                t_slow = threading.Thread(target=call, args=("slow",))
                t_slow.start()
                time.sleep(0.1)  # let 'slow' become the reading leader
                t_fast = threading.Thread(target=call, args=("fast",))
                t_fast.start()
                t_slow.join(timeout=10)
                t_fast.join(timeout=10)
        assert results == {"slow": {"op": "slow"}, "fast": {"op": "fast"}}

    def test_many_threads_one_connection(self):
        def handler(frame):
            return [_ok(frame["id"], {"echo": frame["op"]})]

        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port,
                               timeout=10) as client:
                results = [None] * 16

                def call(i):
                    results[i] = client.evaluate(f"op{i}")

                threads = [threading.Thread(target=call, args=(i,))
                           for i in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
        assert results == [{"echo": f"op{i}"} for i in range(16)]


class TestRetryPolicy:
    def test_no_retry_by_default(self):
        calls = []

        def handler(frame):
            calls.append(frame["op"])
            return [_err(frame["id"], "overloaded")]

        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port,
                               timeout=5) as client:
                with pytest.raises(ServiceError) as err:
                    client.evaluate("ping")
        assert err.value.code == "overloaded"
        assert len(calls) == 1

    def test_overloaded_clears_on_retry(self):
        calls = []

        def handler(frame):
            calls.append(frame["op"])
            if len(calls) == 1:
                return [_err(frame["id"], "overloaded")]
            return [_ok(frame["id"], {"pong": True})]

        policy = RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0)
        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port, timeout=5,
                               retry=policy) as client:
                result = client.evaluate("ping")
        assert result == {"pong": True}
        assert len(calls) == 2

    def test_retry_exhaustion_raises_the_last_error(self):
        calls = []

        def handler(frame):
            calls.append(frame["op"])
            return [_err(frame["id"], "overloaded")]

        policy = RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0)
        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port, timeout=5,
                               retry=policy) as client:
                with pytest.raises(ServiceError) as err:
                    client.evaluate("ping")
        assert err.value.code == "overloaded"
        assert len(calls) == 3

    def test_connection_reset_reconnects_and_replays(self):
        calls = []

        def handler(frame):
            calls.append(frame["op"])
            if len(calls) == 1:
                return [None]  # drop the connection mid-request
            return [_ok(frame["id"], {"pong": True})]

        policy = RetryPolicy(attempts=2, backoff_s=0.01, jitter=0.0)
        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port, timeout=5,
                               retry=policy) as client:
                result = client.evaluate("ping")
        assert result == {"pong": True}
        assert len(calls) == 2

    def test_non_retryable_codes_raise_immediately(self):
        calls = []

        def handler(frame):
            calls.append(frame["op"])
            return [_err(frame["id"], "bad_request")]

        policy = RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0)
        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port, timeout=5,
                               retry=policy) as client:
                with pytest.raises(ServiceError) as err:
                    client.evaluate("ping")
        assert err.value.code == "bad_request"
        assert len(calls) == 1

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)

    def test_jitter_stays_in_band(self):
        import random

        policy = RetryPolicy(backoff_s=0.1, multiplier=1.0, jitter=0.5)
        rng = random.Random(0)
        for attempt in range(20):
            delay = policy.delay(attempt, rng=rng)
            assert 0.1 <= delay <= 0.15


class TestConnectionLoss:
    def test_followers_fail_cleanly_when_the_socket_dies(self):
        """Threads parked on the demux condition must all surface
        ConnectionError when the leader hits EOF — not hang."""
        def handler(frame):
            return [None]  # immediate disconnect, answer nothing

        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port,
                               timeout=5) as client:
                errors = []
                lock = threading.Lock()

                def call():
                    try:
                        client.evaluate("ping")
                    except Exception as exc:  # noqa: BLE001
                        with lock:
                            errors.append(type(exc).__name__)

                threads = [threading.Thread(target=call) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
        assert len(errors) == 4
        assert set(errors) <= {"ConnectionError", "ConnectionResetError",
                               "BrokenPipeError"}


def _client_threads():
    return [t for t in threading.enumerate() if t.name == "repro-client"]


class TestFacade:
    """The blocking client runs the asyncio client on a private loop."""

    def test_client_expiry_is_a_connection_error_then_it_reconnects(self):
        def handler(frame):
            if frame["op"] == "slow":
                time.sleep(1.0)  # holds this connection past the timeout
                return []
            return [_ok(frame["id"], {"op": frame["op"]})]

        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port,
                               timeout=0.3) as client:
                start = time.monotonic()
                with pytest.raises(ConnectionError):
                    client.evaluate("slow")
                assert time.monotonic() - start < 1.0
                # the held connection would time this out too: only a
                # fresh one answers it in time
                assert client.evaluate("fast") == {"op": "fast"}

    def test_close_fails_parked_requests_promptly(self):
        arrived = threading.Semaphore(0)

        def handler(frame):
            arrived.release()
            return []  # park every request

        with _ScriptedServer(handler) as server:
            client = ServiceClient(server.host, server.port,
                                   timeout=30).connect()
            errors = []

            def call():
                try:
                    client.request("ping")
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(4)]
            for t in threads:
                t.start()
            for _ in threads:
                assert arrived.acquire(timeout=5)
            start = time.monotonic()
            closer = threading.Thread(target=client.close)
            closer.start()
            closer.join(timeout=5)
            for t in threads:
                t.join(timeout=5)
            elapsed = time.monotonic() - start
        assert elapsed < 2.0
        assert len(errors) == 4
        assert all(isinstance(e, ConnectionError) for e in errors), errors

    def test_requests_racing_close_get_their_answer_or_connection_error(self):
        """Eight threads share one client while another keeps closing
        it: each request gets its own answer or ConnectionError, never
        another error and never a hang."""
        def handler(frame):
            return [_ok(frame["id"], {"echo": frame["op"]})]

        outcomes = []
        prior = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _ScriptedServer(handler) as server:
                client = ServiceClient(server.host, server.port, timeout=5)

                def call(i):
                    for j in range(20):
                        op = f"op{i}-{j}"
                        try:
                            ok = client.evaluate(op) == {"echo": op}
                            outcomes.append("ok" if ok else "wrong answer")
                        except ConnectionError:
                            outcomes.append("closed")
                        except Exception as exc:  # noqa: BLE001
                            outcomes.append(repr(exc))

                threads = [threading.Thread(target=call, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for _ in range(20):
                    client.close()
                    time.sleep(0.005)
                for t in threads:
                    t.join(timeout=30)
                client.close()
        finally:
            sys.setswitchinterval(prior)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 160
        assert set(outcomes) <= {"ok", "closed"}, set(outcomes)
        assert _client_threads() == []

    def test_failed_request_span_carries_its_request_id(self):
        """The ``client.request`` span names the request id it sent,
        including when no answer comes back."""
        from repro.obs import spans as _spans

        sent = []

        def handler(frame):
            sent.append(frame["id"])
            return [None]  # scripted disconnect

        _spans.enable(True)
        _spans.reset()
        try:
            with _ScriptedServer(handler) as server:
                with ServiceClient(server.host, server.port,
                                   timeout=5) as client:
                    with pytest.raises(ConnectionError):
                        client.request("ping")
            records = [s for s in _spans.drain()
                       if s["name"] == "client.request"]
        finally:
            _spans.enable(False)
            _spans.reset()
        assert len(records) == 1
        assert records[0]["attrs"]["request_id"] == sent[0]
        assert records[0]["attrs"]["error"] == "ConnectionError"

    def test_no_client_thread_outlives_the_client(self):
        def handler(frame):
            return [_ok(frame["id"], {})]

        with _ScriptedServer(handler) as server:
            with ServiceClient(server.host, server.port,
                               timeout=5) as client:
                client.evaluate("ping")
                assert len(_client_threads()) == 1
        assert _client_threads() == []

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ConnectionError):
            ServiceClient("127.0.0.1", port, timeout=5).connect()
        assert _client_threads() == []
