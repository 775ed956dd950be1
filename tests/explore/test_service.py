"""The service's ``explore`` op: normalization, coalescing, evaluation."""

import pytest

from repro.explore import SearchSpec
from repro.service.evaluations import (
    OPS,
    ProtocolError,
    evaluate,
    normalize_params,
    request_key,
)
from repro.spec import (
    EngineSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)

BASE = RunSpec(workload=WorkloadSpec("gzip", length=2_000))
AXES = {"machine.window_size": (16, 32), "machine.width": (2, 4)}


def params(search):
    return {"search": search.to_dict()}


class TestNormalization:
    def test_explore_is_a_registered_op(self):
        assert "explore" in OPS

    def test_requires_a_search_object(self):
        with pytest.raises(ProtocolError, match="'search'"):
            normalize_params("explore", {})

    def test_rejects_malformed_search(self):
        with pytest.raises(ProtocolError):
            normalize_params("explore", {"search": {"axes": {}}})

    def test_rejects_unknown_params(self):
        search = SearchSpec(base=BASE, axes=AXES)
        with pytest.raises(ProtocolError, match="unknown params"):
            normalize_params("explore",
                             {**params(search), "surprise": 1})

    def test_result_neutral_base_variants_coalesce(self):
        """Engine and telemetry cannot change a search's answer, so
        they must not fragment the request key."""
        plain = SearchSpec(base=BASE, axes=AXES)
        dressed = SearchSpec(
            base=RunSpec(workload=BASE.workload,
                         engine=EngineSpec(stream=True, chunk_size=512),
                         telemetry=TelemetrySpec(enabled=True)),
            axes=AXES)
        a = normalize_params("explore", params(plain))
        b = normalize_params("explore", params(dressed))
        assert a == b
        assert request_key("explore", a) == request_key("explore", b)

    def test_different_searches_do_not_coalesce(self):
        a = normalize_params("explore",
                             params(SearchSpec(base=BASE, axes=AXES)))
        b = normalize_params("explore", params(
            SearchSpec(base=BASE, axes=AXES, margin=0.2)))
        assert request_key("explore", a) != request_key("explore", b)

    def test_normalized_search_round_trips(self):
        normalized = normalize_params(
            "explore", params(SearchSpec(base=BASE, axes=AXES)))
        reparsed = SearchSpec.from_dict(normalized["search"])
        assert reparsed.axes == AXES
        # the workload seed is resolved during normalization
        assert reparsed.base.workload.seed \
            == BASE.workload.resolved_seed()


class TestEvaluation:
    def test_explore_evaluates_to_a_search_result(self):
        search = SearchSpec(base=BASE, axes={"machine.width": (2, 4)})
        normalized = normalize_params("explore", params(search))
        payload = evaluate("explore", normalized)
        assert payload["candidates"] == 2
        assert payload["frontier"]
        assert all(p["ipc"] is not None for p in payload["promotions"])
        # server-side searches never journal: durability is the
        # artifact cache plus the keyed response cache
        assert payload["resumed"] is False
