"""One conformance suite over both front doors.

The service and the fleet router share one front door
(:class:`repro.service.server.FrontDoor`): the listener, the frame loop,
HTTP parsing and the shared routes.  Every wire behaviour the two doors
share is asserted here, once, against each of them.  Door-specific
behaviour (``/fleet``, the router's ``role``, node labels) stays in
``tests/service/test_server.py`` and ``tests/fleet/test_router.py``.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.service import BackgroundServer, SchedulerConfig
from repro.service.protocol import MAX_FRAME_BYTES


@pytest.fixture(params=["server", "router"])
def door(request):
    """A running service, or a router in front of two nodes."""
    if request.param == "router":
        router, _, _ = request.getfixturevalue("fleet2")
        yield router
        return
    config = SchedulerConfig(workers=1, queue_limit=16,
                             request_timeout_s=60.0,
                             retries=2, retry_backoff_s=0.05)
    with BackgroundServer(config=config) as bg:
        yield bg


def _http(door, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection(door.host, door.port, timeout=30)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    payload = response.read()
    conn.close()
    return response, payload


def _raw(door, data: bytes) -> bytes:
    """Send ``data``, half-close, and return every byte the door sends
    back before it closes the connection."""
    with socket.create_connection((door.host, door.port),
                                  timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestHTTP:
    def test_eval_error_maps_to_http_status(self, door):
        frame = {"op": "model", "params": {"benchmark": "nope"}}
        response, body = _http(door, "POST", "/v1/eval",
                               json.dumps(frame).encode())
        assert response.status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_unknown_route_404s(self, door):
        response, _ = _http(door, "GET", "/teapot")
        assert response.status == 404

    def test_bad_request_line_is_400(self, door):
        reply = _raw(door, b"GET /healthz\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert reply.endswith(b"\r\n\r\nbad request line\n")

    def test_body_over_the_frame_limit_is_413(self, door):
        reply = _raw(door, b"POST /v1/eval HTTP/1.1\r\n"
                     b"Content-Length: %d\r\n\r\n" % (MAX_FRAME_BYTES + 1))
        assert reply.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")

    @pytest.mark.parametrize("value", [b"-1", b"abc"],
                             ids=["negative", "not-an-integer"])
    def test_bad_content_length_is_400(self, door, value):
        reply = _raw(door, b"POST /v1/eval HTTP/1.1\r\n"
                     b"Content-Length: " + value + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert reply.endswith(b"\r\n\r\nbad content-length\n")

    def test_head_answers_the_get_headers_without_a_body(self, door):
        get = _raw(door, b"GET /healthz HTTP/1.1\r\n\r\n")
        head = _raw(door, b"HEAD /healthz HTTP/1.1\r\n\r\n")
        headers, _, body = get.partition(b"\r\n\r\n")
        assert body == b"ok\n"
        assert b"\r\nContent-Length: 3\r\n" in headers
        assert head == headers + b"\r\n\r\n"


class TestProtocolOverTheWire:
    def test_malformed_frame_gets_an_error_response(self, door):
        with socket.create_connection(
                (door.host, door.port), timeout=30) as sock:
            sock.sendall(b"this is not json\n")
            file = sock.makefile("rb")
            doc = json.loads(file.readline())
            assert not doc["ok"]
            assert doc["error"]["code"] == "bad_request"
            # the connection survives a bad frame
            sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
            doc = json.loads(file.readline())
            assert doc["ok"] and doc["result"]["pong"]

    def test_oversized_frame_is_refused_and_the_connection_survives(
            self, door):
        # three times the limit: the rest of the line is skipped in pieces
        big = b'{"op": "ping", "pad": "' + b"x" * (3 * MAX_FRAME_BYTES) \
            + b'"}\n'
        ping = json.dumps({"id": "after", "op": "ping"}).encode() + b"\n"
        reply = _raw(door, big + ping)
        docs = {doc["id"]: doc for doc in map(json.loads,
                                              reply.splitlines())}
        assert set(docs) == {"", "after"}
        assert not docs[""]["ok"]
        assert docs[""]["error"]["code"] == "bad_request"
        assert "MAX_FRAME_BYTES" in docs[""]["error"]["message"]
        assert docs["after"]["ok"] and docs["after"]["result"]["pong"]
