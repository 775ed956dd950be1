"""Normalization, content-address keying and the evaluators themselves."""

from __future__ import annotations

import pytest

from repro.service import evaluations
from repro.service.protocol import ErrorCode, ProtocolError


def norm(op, params):
    """Normalize flat test params the way the client does: build the
    spec payload locally (``flat_params_to_spec``) and send only that —
    the server no longer accepts the flat form."""
    if op in ("model", "simulate"):
        chaos = {k: v for k, v in params.items() if k == "chaos"}
        flat = {k: v for k, v in params.items() if k != "chaos"}
        return evaluations.normalize_params(
            op, {"spec": evaluations.flat_params_to_spec(op, flat).to_dict(),
                 **chaos})
    return evaluations.normalize_params(op, params)


class TestNormalize:
    def test_defaults_fill_in(self):
        from repro.spec import WorkloadSpec

        normalized = norm("model", {"benchmark": "gzip"})
        workload = normalized["spec"]["workload"]
        assert workload["length"] == evaluations.DEFAULT_LENGTH
        # seed: null is pinned to the profile seed before keying
        assert workload["seed"] == WorkloadSpec("gzip").resolved_seed()

    def test_normalization_is_idempotent(self):
        sent = norm("simulate", {"benchmark": "gzip", "width": 8})
        again = evaluations.normalize_params("simulate", sent)
        assert again == sent
        assert (evaluations.request_key("simulate", again)
                == evaluations.request_key("simulate", sent))

    def test_spec_rejects_flat_companions(self):
        normalized = norm("model", {"benchmark": "gzip"})
        with pytest.raises(ProtocolError):
            evaluations.normalize_params(
                "model", {"spec": normalized["spec"], "length": 5})

    def test_flat_params_are_rejected(self):
        with pytest.raises(ProtocolError, match="'spec'"):
            evaluations.normalize_params("model", {"benchmark": "gzip"})

    def test_spelled_out_equals_defaulted(self):
        short = norm("model", {"benchmark": "gzip"})
        long = norm("model", {
            "benchmark": "gzip", "length": evaluations.DEFAULT_LENGTH,
            "seed": None,
        })
        assert (evaluations.request_key("model", short)
                == evaluations.request_key("model", long))

    def test_different_questions_key_differently(self):
        a = norm("model", {"benchmark": "gzip"})
        b = norm("model", {"benchmark": "mcf"})
        c = norm("simulate", {"benchmark": "gzip"})
        keys = {evaluations.request_key("model", a),
                evaluations.request_key("model", b),
                evaluations.request_key("simulate", c)}
        assert len(keys) == 3

    def test_config_overrides_change_the_key(self):
        base = norm("model", {"benchmark": "gzip"})
        wide = norm("model", {"benchmark": "gzip", "width": 8})
        assert (evaluations.request_key("model", base)
                != evaluations.request_key("model", wide))

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            evaluations.normalize_params("destroy", {})
        assert err.value.code == ErrorCode.UNKNOWN_OP

    @pytest.mark.parametrize("op,params", [
        ("model", {}),                                   # no benchmark
        ("model", {"benchmark": "nope"}),                # unknown benchmark
        ("model", {"benchmark": "gzip", "length": 0}),   # bad length
        ("model", {"benchmark": "gzip", "length": "x"}),
        ("model", {"benchmark": "gzip", "width": "w"}),
        ("model", {"benchmark": "gzip", "surprise": 1}),  # unknown param
        ("simulate", {"benchmark": "gzip", "engine": "warp"}),
        ("simulate", {"benchmark": "gzip",
                      "window_size": 64, "rob_size": 8}),  # rob < window
        ("compare", {"benchmarks": "gzip"}),             # not a list
        ("experiment", {"name": "fig99"}),               # unknown name
        ("model", {"benchmark": "gzip", "chaos": {"explode": 1}}),
        ("model", {"benchmark": "gzip", "chaos": {"sleep": -1}}),
        ("model", {"benchmark": "gzip", "width": 2.5}),
    ])
    def test_bad_params_rejected(self, op, params):
        with pytest.raises(ProtocolError):
            norm(op, params)

    def test_malformed_machine_json_is_a_protocol_error(self):
        spec = {"workload": {"benchmark": "gzip"}, "machine": {"width": 2.5}}
        with pytest.raises(ProtocolError, match="width"):
            evaluations.normalize_params("model", {"spec": spec})

    def test_experiment_short_name_normalizes_to_full(self):
        normalized = evaluations.normalize_params(
            "experiment", {"name": "fig15"})
        assert normalized["name"] == "fig15_overall"


class TestEvaluate:
    def test_model_payload(self):
        params = norm("model", {"benchmark": "gzip", "length": 2000})
        payload = evaluations.evaluate("model", params)
        assert payload["cpi"] == pytest.approx(
            payload["cpi_steady"] + payload["cpi_branch"]
            + payload["cpi_icache_l1"] + payload["cpi_icache_l2"]
            + payload["cpi_dcache"])

    def test_simulate_matches_in_process_execution(self):
        from repro.runner.pool import WorkUnit, execute_unit

        params = norm("simulate", {"benchmark": "gzip", "length": 2000})
        payload = evaluations.evaluate("simulate", params)
        direct = execute_unit(WorkUnit(benchmark="gzip", length=2000))
        assert payload["cycles"] == direct.cycles
        assert payload["instructions"] == direct.instructions
        assert payload["cpi"] == direct.cpi  # bit-identical, not approx

    def test_simulate_with_config_overrides(self):
        cramped = evaluations.evaluate("simulate", norm(
            "simulate",
            {"benchmark": "gzip", "length": 2000,
             "window_size": 8, "rob_size": 16}))
        base = evaluations.evaluate("simulate", norm(
            "simulate", {"benchmark": "gzip", "length": 2000}))
        assert cramped["cycles"] > base["cycles"]

    def test_compare_rows(self):
        payload = evaluations.evaluate("compare", evaluations.normalize_params(
            "compare", {"benchmarks": ["gzip", "mcf"], "length": 2000}))
        assert [r["benchmark"] for r in payload["rows"]] == ["gzip", "mcf"]
        assert payload["worst_abs_error"] >= payload["mean_abs_error"] / 2

    def test_run_batch_isolates_failures(self):
        good = norm("model", {"benchmark": "gzip", "length": 2000})
        outcomes = evaluations.run_batch([
            ("model", good, None),
            ("model", {"benchmark": "gzip", "length": -3, "seed": None},
             None),  # invalid by construction: evaluator will raise
        ])
        assert outcomes[0]["ok"]
        assert not outcomes[1]["ok"]
        assert outcomes[1]["code"] == ErrorCode.INTERNAL

    def test_run_batch_publishes_keyed_responses(self):
        from repro.runner import artifacts

        params = norm("model", {"benchmark": "gzip", "length": 2000})
        key = evaluations.request_key("model", params)
        found, _ = artifacts.probe_artifact("response", key)
        assert not found
        (outcome,) = evaluations.run_batch([("model", params, key)])
        assert outcome["ok"]
        found, payload = artifacts.probe_artifact("response", key)
        assert found and payload == outcome["result"]
