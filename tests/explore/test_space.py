"""SearchSpec / BudgetSpec: validation, grid expansion, keying."""

import pytest

from repro.explore import BudgetSpec, SearchSpec, design_cost
from repro.spec import (
    EngineSpec,
    MachineSpec,
    RunSpec,
    SpecError,
    TelemetrySpec,
    WorkloadSpec,
)

BASE = RunSpec(workload=WorkloadSpec("gzip", length=2_000))
AXES = {"machine.window_size": (16, 32), "machine.width": (2, 4)}


class TestValidation:
    def test_requires_axes(self):
        with pytest.raises(SpecError, match="at least one axis"):
            SearchSpec(base=BASE, axes={})

    def test_rejects_empty_axis(self):
        with pytest.raises(SpecError, match="no values"):
            SearchSpec(base=BASE, axes={"machine.width": ()})

    def test_rejects_duplicate_axis_values(self):
        with pytest.raises(SpecError, match="duplicate"):
            SearchSpec(base=BASE, axes={"machine.width": (2, 2)})

    def test_rejects_bad_dotted_path(self):
        with pytest.raises(SpecError):
            SearchSpec(base=BASE, axes={"machine.warp_factor": (9,)})

    def test_rejects_invalid_axis_value_early(self):
        # every grid coordinate is validated at construction, not when
        # the bad candidate happens to be built
        with pytest.raises(SpecError):
            SearchSpec(base=BASE, axes={"machine.width": (2, -1)})

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SpecError, match="unknown strategy"):
            SearchSpec(base=BASE, axes=AXES, strategy="annealing")

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", True),
        ("samples", 0), ("samples", "many"),
        ("top_k", -1), ("top_k", True),
        ("margin", -0.1), ("margin", "wide"),
    ])
    def test_rejects_bad_knobs(self, field, value):
        with pytest.raises(SpecError):
            SearchSpec(base=BASE, axes=AXES, **{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"max_detailed": 0}, {"max_detailed": 2.5},
        {"max_detailed": True}, {"max_seconds": 0},
        {"max_seconds": -1.0}, {"max_seconds": True},
    ])
    def test_budget_rejects_bad_values(self, kwargs):
        with pytest.raises(SpecError):
            BudgetSpec(**kwargs)

    def test_budget_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="unknown budget"):
            BudgetSpec.from_dict({"max_detailed": 3, "max_watts": 90})


class TestGrid:
    def test_candidate_count_is_cross_product(self):
        search = SearchSpec(base=BASE, axes=AXES)
        assert len(search.candidates()) == 4

    def test_last_axis_varies_fastest(self):
        search = SearchSpec(base=BASE, axes=AXES)
        values = [c.values for c in search.candidates()]
        assert values == [
            (("machine.window_size", 16), ("machine.width", 2)),
            (("machine.window_size", 16), ("machine.width", 4)),
            (("machine.window_size", 32), ("machine.width", 2)),
            (("machine.window_size", 32), ("machine.width", 4)),
        ]

    def test_index_is_grid_position(self):
        search = SearchSpec(base=BASE, axes=AXES)
        assert [c.index for c in search.candidates()] == [0, 1, 2, 3]

    def test_candidate_spec_carries_axis_values(self):
        search = SearchSpec(base=BASE, axes=AXES)
        last = search.candidates()[-1]
        assert last.spec.machine.window_size == 32
        assert last.spec.machine.width == 4
        assert last.spec.workload == BASE.workload

    def test_candidate_cost_matches_design_cost(self):
        search = SearchSpec(base=BASE, axes=AXES)
        for cand in search.candidates():
            assert cand.cost == design_cost(cand.spec.machine)

    def test_sweep_expands_identically(self):
        search = SearchSpec(base=BASE, axes=AXES)
        assert [c.spec for c in search.candidates()] \
            == search.sweep().expand()


class TestDesignCost:
    def test_formula(self):
        machine = MachineSpec(window_size=48, rob_size=128, width=4,
                              pipeline_depth=5)
        assert design_cost(machine) == 48 + 128 / 4 + 8 * 4 + 2 * 5

    def test_monotone_in_every_axis(self):
        base = MachineSpec()
        for field, bigger in [("window_size", 96), ("rob_size", 512),
                              ("width", 64), ("pipeline_depth", 40)]:
            import dataclasses

            grown = dataclasses.replace(base, **{field: bigger})
            assert design_cost(grown) > design_cost(base), field


class TestSerialization:
    def test_round_trip(self):
        search = SearchSpec(base=BASE, axes=AXES, strategy="random",
                            seed=7, samples=3, top_k=2, margin=0.1,
                            budget=BudgetSpec(max_detailed=5,
                                              max_seconds=60.0))
        assert SearchSpec.from_dict(search.to_dict()) == search

    def test_rejects_unknown_field(self):
        data = SearchSpec(base=BASE, axes=AXES).to_dict()
        data["temperature"] = 0.7
        with pytest.raises(SpecError, match="unknown search field"):
            SearchSpec.from_dict(data)

    def test_rejects_unsupported_schema(self):
        data = SearchSpec(base=BASE, axes=AXES).to_dict()
        data["search_schema"] = 99
        with pytest.raises(SpecError, match="search_schema"):
            SearchSpec.from_dict(data)

    def test_requires_base(self):
        with pytest.raises(SpecError, match="'base'"):
            SearchSpec.from_dict({"axes": {"machine.width": [2]}})


class TestContentKey:
    def test_stable(self):
        a = SearchSpec(base=BASE, axes=AXES)
        b = SearchSpec(base=BASE, axes=AXES)
        assert a.content_key() == b.content_key()

    def test_engine_and_telemetry_are_result_neutral(self):
        plain = SearchSpec(base=BASE, axes=AXES)
        dressed = SearchSpec(
            base=RunSpec(workload=BASE.workload,
                         engine=EngineSpec(stream=True, chunk_size=512),
                         telemetry=TelemetrySpec(enabled=True)),
            axes=AXES)
        assert plain.content_key() == dressed.content_key()

    def test_implicit_and_explicit_seed_coalesce(self):
        explicit = RunSpec(workload=WorkloadSpec(
            "gzip", length=2_000, seed=BASE.workload.resolved_seed()))
        assert SearchSpec(base=BASE, axes=AXES).content_key() \
            == SearchSpec(base=explicit, axes=AXES).content_key()

    @pytest.mark.parametrize("change", [
        {"strategy": "random"}, {"seed": 1}, {"top_k": 3},
        {"margin": 0.2}, {"budget": BudgetSpec(max_detailed=1)},
        {"axes": {"machine.window_size": (16, 32), "machine.width": (2,)}},
    ])
    def test_every_search_knob_moves_the_key(self, change):
        base_key = SearchSpec(base=BASE, axes=AXES).content_key()
        kwargs = {"base": BASE, "axes": AXES, **change}
        assert SearchSpec(**kwargs).content_key() != base_key
