"""The search driver end to end: surrogate fidelity, the acceptance
grid, budgets, and journal-driven resume."""

import json

import pytest

from repro.core.model import FirstOrderModel
from repro.explore import (
    FrontierPoint,
    Journal,
    JournalError,
    SearchSpec,
    Surrogate,
    frontiers_equal,
    pareto_frontier,
    run_search,
)
from repro.explore.space import BudgetSpec, design_cost
from repro.runner.pool import run_units
from repro.spec import RunSpec, WorkloadSpec
from repro.telemetry.metrics import metrics_registry

#: the ISSUE's acceptance grid: 3 axes, 18 candidates
ACCEPTANCE = SearchSpec(
    base=RunSpec(workload=WorkloadSpec("gzip", length=4_000)),
    axes={
        "machine.window_size": (16, 32, 48),
        "machine.pipeline_depth": (3, 5, 9),
        "machine.width": (2, 4),
    },
)


class TestSurrogate:
    def test_bit_identical_to_evaluate_trace(self, gzip_trace):
        """The memoized fast path must give exactly the unmemoized
        model's answer, across machine variations."""
        surrogate = Surrogate()
        spec = RunSpec(workload=WorkloadSpec("gzip", length=4_000))
        for window, width in [(16, 2), (48, 4), (96, 8)]:
            import dataclasses

            machine = dataclasses.replace(
                spec.machine, window_size=window, width=width)
            candidate = dataclasses.replace(spec, machine=machine)
            expected = FirstOrderModel(machine).evaluate_trace(gzip_trace).ipc
            assert surrogate.ipc(candidate) == expected

    def test_memoizes_profile_and_fit_per_workload(self, counted):
        """A window sweep over one workload measures its IW curve and
        runs its functional pass once: both are memoized on the trace."""
        import dataclasses

        surrogate = Surrogate()
        spec = RunSpec(workload=WorkloadSpec("gzip", length=2_000))
        for window in (16, 32, 48):
            surrogate.ipc(dataclasses.replace(
                spec, machine=dataclasses.replace(
                    spec.machine, window_size=window)))
        assert surrogate.evaluations == 3
        assert counted == {"iw": 1, "collect": 1}
        assert surrogate.seconds > 0
        assert surrogate.mean_seconds == surrogate.seconds / 3


class TestAcceptance:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_search(ACCEPTANCE, journal_path=None)

    def test_promotes_at_most_forty_percent(self, outcome):
        assert outcome.candidates == 18
        assert outcome.scored == 18
        assert 0 < outcome.promoted_fraction <= 0.40

    def test_frontier_matches_the_exhaustive_sweep(self, outcome):
        """The acceptance bar: the surrogate-guided search must find
        exactly the frontier a full detailed sweep finds."""
        candidates = ACCEPTANCE.candidates()
        results, _ = run_units([c.spec for c in candidates],
                               reuse_results=True)
        exhaustive = pareto_frontier([
            FrontierPoint(index=c.index, values=c.values, cost=c.cost,
                          ipc=float(r.result.ipc))
            for c, r in zip(candidates, results)
        ])
        assert frontiers_equal(outcome.frontier, exhaustive)

    def test_every_promotion_is_verified_with_error(self, outcome):
        for promotion in outcome.promotions:
            assert promotion.ipc is not None
            assert promotion.error == pytest.approx(
                (promotion.surrogate_ipc - promotion.ipc) / promotion.ipc)
        assert 0 < outcome.mean_abs_error <= outcome.worst_abs_error

    def test_frontier_costs_are_exact(self, outcome):
        by_index = {c.index: c for c in ACCEPTANCE.candidates()}
        for point in outcome.frontier:
            assert point.cost == design_cost(by_index[point.index]
                                             .spec.machine)

    def test_result_is_json_clean(self, outcome):
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["candidates"] == 18
        assert payload["search_key"] == ACCEPTANCE.content_key()
        assert not payload["budget_exhausted"]

    def test_format_renders(self, outcome):
        text = outcome.format()
        assert "18 candidates" in text
        assert "Pareto frontier" in text
        assert "surrogate |error|" in text


class TestBudgets:
    def test_max_detailed_caps_promotions(self):
        import dataclasses

        capped = dataclasses.replace(
            ACCEPTANCE, budget=BudgetSpec(max_detailed=2))
        outcome = run_search(capped, journal_path=None)
        assert len(outcome.promotions) == 2
        assert outcome.budget_exhausted
        assert all(p.ipc is not None for p in outcome.promotions)

    def test_wall_clock_budget_stops_before_simulating(self):
        import dataclasses

        rushed = dataclasses.replace(
            ACCEPTANCE, budget=BudgetSpec(max_seconds=1e-6))
        outcome = run_search(rushed, journal_path=None)
        assert outcome.budget_exhausted
        assert outcome.executed == 0
        assert outcome.frontier == []
        assert all(p.ipc is None and p.error is None
                   for p in outcome.promotions)


class TestResume:
    def test_journal_resume_is_bit_identical_and_free(self, tmp_path):
        journal = str(tmp_path / "search.jsonl")
        first = run_search(ACCEPTANCE, journal_path=journal)
        again = run_search(ACCEPTANCE, journal_path=journal, resume=True)
        assert again.resumed and not first.resumed
        assert again.executed == 0          # everything replayed
        assert again.surrogate_evals == 0
        assert frontiers_equal(first.frontier, again.frontier)
        assert [p.to_dict() for p in first.promotions] \
            == [p.to_dict() for p in again.promotions]

    def test_journal_of_a_different_search_is_refused(self, tmp_path):
        journal = str(tmp_path / "search.jsonl")
        other = SearchSpec(
            base=RunSpec(workload=WorkloadSpec("vpr", length=2_000)),
            axes={"machine.width": (2, 4)})
        Journal(journal, other.content_key()).close()
        with pytest.raises(JournalError, match="different search"):
            run_search(ACCEPTANCE, journal_path=journal, resume=True)


class TestMetrics:
    def test_counters_flow(self):
        registry = metrics_registry()
        search = SearchSpec(
            base=RunSpec(workload=WorkloadSpec("gzip", length=2_000)),
            axes={"machine.width": (2, 4)})
        before = {
            name: registry.counter(f"explore.{name}").value
            for name in ("searches", "surrogate_evals", "promotions",
                         "detailed_runs")
        }
        outcome = run_search(search, journal_path=None)
        assert registry.counter("explore.searches").value \
            == before["searches"] + 1
        assert registry.counter("explore.surrogate_evals").value \
            == before["surrogate_evals"] + outcome.surrogate_evals
        assert registry.counter("explore.promotions").value \
            == before["promotions"] + len(outcome.promotions)
        assert registry.counter("explore.detailed_runs").value \
            == before["detailed_runs"] + outcome.executed
