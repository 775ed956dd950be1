"""End-to-end service tests: correctness, dedup, backpressure, crashes.

These are the acceptance criteria of the service subsystem:

* a served response is bit-identical to the same evaluation in-process;
* N identical concurrent requests trigger exactly one computation;
* flooding past the queue bound yields ``overloaded`` responses, never
  a hang;
* killing a worker mid-request still returns a correct result.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.service import (
    BackgroundServer,
    SchedulerConfig,
    ServiceClient,
    ServiceError,
)

LENGTH = 2_000


def _wire(op, params):
    """Flat test params -> the spec payload the server accepts."""
    from repro.service.client import _spec_payload

    return _spec_payload(op, params)


def _http(service, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    payload = response.read()
    conn.close()
    return response, payload


class TestCorrectness:
    def test_ping(self, service):
        with ServiceClient(service.host, service.port) as client:
            pong = client.ping()
        assert pong["pong"] and pong["protocol"] == 1

    def test_simulate_is_bit_identical_to_in_process(self, service):
        from repro.runner.pool import execute_spec
        from repro.spec import RunSpec, WorkloadSpec

        with ServiceClient(service.host, service.port) as client:
            served = client.simulate("gzip", length=LENGTH)
        direct = execute_spec(RunSpec(workload=WorkloadSpec(
            "gzip", length=LENGTH)))
        assert served["cycles"] == direct.cycles
        assert served["instructions"] == direct.instructions
        assert served["cpi"] == direct.cpi  # exact — floats survive JSON
        assert served["misprediction_count"] == direct.misprediction_count
        assert served["dcache_long_count"] == direct.dcache_long_count

    def test_model_is_bit_identical_to_in_process(self, service):
        from repro.config import BASELINE
        from repro.core.model import FirstOrderModel
        from repro.trace.synthetic import generate_trace

        with ServiceClient(service.host, service.port) as client:
            served = client.model("twolf", length=LENGTH)
        report = FirstOrderModel(BASELINE).evaluate_trace(
            generate_trace("twolf", LENGTH))
        assert served["cpi"] == report.cpi
        assert served["cpi_dcache"] == report.cpi_dcache

    def test_config_overrides_reach_the_simulator(self, service):
        with ServiceClient(service.host, service.port) as client:
            base = client.simulate("gzip", length=LENGTH)
            cramped = client.simulate("gzip", length=LENGTH,
                                      window_size=8, rob_size=16)
        assert cramped["cycles"] > base["cycles"]

    def test_compare(self, service):
        with ServiceClient(service.host, service.port) as client:
            table = client.compare(["gzip", "mcf"], length=LENGTH)
        assert len(table["rows"]) == 2
        assert 0.0 <= table["mean_abs_error"] <= 1.0

    def test_repeat_query_served_from_persistent_cache(self, service):
        with ServiceClient(service.host, service.port) as client:
            first = client.request(
                "simulate",
                _wire("simulate", {"benchmark": "vpr", "length": LENGTH}))
            again = client.request(
                "simulate",
                _wire("simulate", {"benchmark": "vpr", "length": LENGTH}))
        assert first["meta"]["served_from"] == "computed"
        assert again["meta"]["served_from"] == "cache"
        assert again["result"] == first["result"]

    def test_error_paths_answer_cleanly(self, service):
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as err:
                client.simulate("notabench")
            assert err.value.code == "bad_request"
            with pytest.raises(ServiceError) as err:
                client.evaluate("conquer", {})
            assert err.value.code == "unknown_op"


class TestDedup:
    def test_identical_concurrent_requests_compute_once(self, service):
        from repro.telemetry.metrics import metrics_registry

        params = _wire("simulate", {"benchmark": "mcf", "length": LENGTH,
                                    "chaos": {"sleep": 0.4}})
        responses = []
        lock = threading.Lock()

        def hit():
            with ServiceClient(service.host, service.port) as client:
                response = client.request("simulate", params)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=hit) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(responses) == 5
        served = sorted(r["meta"]["served_from"] for r in responses)
        assert served == ["computed"] + ["inflight"] * 4
        assert len({json.dumps(r["result"], sort_keys=True)
                    for r in responses}) == 1
        registry = metrics_registry()
        assert registry.counter("service.served.computed").value == 1
        assert registry.counter("service.dedup_inflight").value == 4


class TestBackpressure:
    def test_flood_yields_overloaded_not_a_hang(self):
        config = SchedulerConfig(workers=1, queue_limit=2,
                                 request_timeout_s=60.0)
        with BackgroundServer(config=config) as service:
            responses = []
            lock = threading.Lock()

            def hit(seed):
                params = _wire("simulate", {
                    "benchmark": "gzip", "length": LENGTH,
                    "seed": seed, "chaos": {"sleep": 0.4}})
                with ServiceClient(service.host, service.port) as client:
                    response = client.request("simulate", params)
                with lock:
                    responses.append(response)

            threads = [threading.Thread(target=hit, args=(seed,))
                       for seed in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(responses) == 10, "a request hung"
            codes = [r["error"]["code"] for r in responses if not r["ok"]]
            assert codes and set(codes) == {"overloaded"}
            assert sum(r["ok"] for r in responses) >= 2


class TestWorkerCrash:
    def test_killed_worker_retries_to_a_correct_result(
            self, service, tmp_path):
        from repro.runner.pool import execute_spec
        from repro.spec import RunSpec, WorkloadSpec
        from repro.telemetry.metrics import metrics_registry

        flag = tmp_path / "killed-once"
        params = _wire("simulate", {"benchmark": "vortex", "length": LENGTH,
                                    "chaos": {"kill_once": str(flag)}})
        with ServiceClient(service.host, service.port) as client:
            response = client.request("simulate", params)
        assert response["ok"], response
        assert flag.exists(), "the chaos kill never fired"
        assert response["meta"]["attempts"] >= 2
        direct = execute_spec(RunSpec(workload=WorkloadSpec(
            "vortex", length=LENGTH)))
        assert response["result"]["cycles"] == direct.cycles
        assert response["result"]["cpi"] == direct.cpi
        registry = metrics_registry()
        assert registry.counter("service.worker_restarts").value >= 1

    def test_retry_exhaustion_reports_internal_error(self):
        config = SchedulerConfig(workers=1, retries=1,
                                 retry_backoff_s=0.01)
        with BackgroundServer(config=config) as service:
            params = _wire("simulate", {
                "benchmark": "gzip", "length": LENGTH,
                "chaos": {"kill": True}})  # dies on every attempt
            with ServiceClient(service.host, service.port) as client:
                response = client.request("simulate", params)
        assert not response["ok"]
        assert response["error"]["code"] == "internal"
        assert "crashed" in response["error"]["message"]


class TestTimeouts:
    def test_slow_request_times_out(self, service):
        params = _wire("simulate", {"benchmark": "gzip", "length": LENGTH,
                                    "chaos": {"sleep": 5.0}})
        with ServiceClient(service.host, service.port) as client:
            response = client.request("simulate", params, timeout=0.2)
        assert not response["ok"]
        assert response["error"]["code"] == "timeout"


class TestHTTP:
    def test_healthz(self, service):
        response, body = _http(service, "GET", "/healthz")
        assert response.status == 200 and body == b"ok\n"

    def test_version(self, service):
        response, body = _http(service, "GET", "/version")
        doc = json.loads(body)
        assert response.status == 200 and doc["protocol"] == 1

    def test_metrics_exposition(self, service):
        with ServiceClient(service.host, service.port) as client:
            client.model("gzip", length=LENGTH)
        response, body = _http(service, "GET", "/metrics")
        text = body.decode()
        assert response.status == 200
        assert "repro_service_requests 1" in text
        assert "# TYPE repro_service_latency_seconds summary" in text

    def test_eval_over_http(self, service):
        frame = {"op": "model",
                 "params": _wire("model",
                                 {"benchmark": "gzip", "length": LENGTH})}
        response, body = _http(service, "POST", "/v1/eval",
                               json.dumps(frame).encode())
        doc = json.loads(body)
        assert response.status == 200 and doc["ok"]
        assert doc["result"]["cpi"] > 0

    def test_eval_error_maps_to_http_status(self, service):
        frame = {"op": "model", "params": {"benchmark": "nope"}}
        response, body = _http(service, "POST", "/v1/eval",
                               json.dumps(frame).encode())
        assert response.status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_unknown_route_404s(self, service):
        response, _ = _http(service, "GET", "/teapot")
        assert response.status == 404


class TestProtocolOverTheWire:
    def test_malformed_frame_gets_an_error_response(self, service):
        import socket

        with socket.create_connection(
                (service.host, service.port), timeout=30) as sock:
            sock.sendall(b"this is not json\n")
            file = sock.makefile("rb")
            doc = json.loads(file.readline())
            assert not doc["ok"]
            assert doc["error"]["code"] == "bad_request"
            # the connection survives a bad frame
            sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
            doc = json.loads(file.readline())
            assert doc["ok"] and doc["result"]["pong"]

    def test_interleaved_ids_route_to_their_requests(self, service):
        with ServiceClient(service.host, service.port) as client:
            a = client.request(
                "model",
                _wire("model", {"benchmark": "gzip", "length": LENGTH}))
            b = client.request(
                "model",
                _wire("model", {"benchmark": "mcf", "length": LENGTH}))
        assert a["result"]["benchmark"] == "gzip"
        assert b["result"]["benchmark"] == "mcf"


class TestDrain:
    def test_shutdown_is_graceful(self):
        with BackgroundServer(config=SchedulerConfig(workers=1)) as service:
            with ServiceClient(service.host, service.port) as client:
                assert client.ping()["pong"]
        # exiting the context drained cleanly; a fresh server can bind
        with BackgroundServer(config=SchedulerConfig(workers=1)) as service:
            with ServiceClient(service.host, service.port) as client:
                assert client.ping()["pong"]
