"""The search driver: surrogate sweep → promotion → verified frontier.

:func:`run_search` is the control loop the rest of the package feeds:
score candidates with the analytical surrogate (strategy-directed),
select the Pareto/top-k promotion set, execute promotions on the
detailed simulator through :func:`repro.runner.pool.run_units` (artifact
cache and all), and emit the detailed-sim-verified Pareto frontier with
per-promotion surrogate error.

Interruption is a first-class outcome, not a failure mode: every
completed evaluation is journaled immediately, a runner abort
(:class:`~repro.runner.pool.RunInterrupted`) is converted into
:class:`ExploreInterrupted` *after* banking the finished units, and a
``resume=True`` rerun replays the journal and finishes only the missing
work — bit-identically, because every decision is a deterministic
function of the :class:`~repro.explore.space.SearchSpec` and every
replayed number is exact.

``REPRO_EXPLORE_KILL_AFTER=<n>`` hard-exits the process after *n* newly
recorded detailed results — the deterministic mid-run crash the CI
smoke job and the checkpoint tests use to prove the resume guarantee.
"""

from __future__ import annotations

import os
import time

from repro.explore.checkpoint import Journal
from repro.explore.frontier import FrontierPoint, pareto_frontier
from repro.explore.report import ExploreResult, Promotion
from repro.explore.space import SearchSpec
from repro.explore.strategies import score_candidates, select_promotions
from repro.explore.surrogate import Surrogate
from repro.runner.pool import (
    RunInterrupted,
    default_jobs,
    run_units,
)
from repro.spec import env as _specenv
from repro.telemetry.metrics import metrics_registry


class ExploreInterrupted(RuntimeError):
    """A search stopped before finishing its promotions.

    Everything completed is already in the journal (``journal_path``);
    rerunning the identical search with ``resume=True`` finishes it.
    """

    def __init__(self, message: str, journal_path: str | None,
                 completed: int, pending: int):
        hint = (f"; resume with the journal at {journal_path}"
                if journal_path else "")
        super().__init__(
            f"{message} ({completed} of {completed + pending} promotions "
            f"simulated{hint})")
        self.journal_path = journal_path
        self.completed = completed
        self.pending = pending


def _payload(result) -> dict:
    """The journaled (JSON-exact) detailed outcome of one promotion."""
    return {
        "instructions": int(result.instructions),
        "cycles": int(result.cycles),
        "cpi": float(result.cpi),
        "ipc": float(result.ipc),
    }


def run_search(
    search: SearchSpec,
    journal_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    progress=None,
) -> ExploreResult:
    """Run one design-space search to its verified Pareto frontier.

    ``journal_path=None`` disables persistence (the artifact cache still
    makes reruns cheap); ``resume=True`` replays an existing journal at
    that path.  ``jobs`` is forwarded to the parallel runner for the
    promotion batch.  Raises :class:`ExploreInterrupted` when the runner
    is interrupted mid-promotion, and
    :class:`~repro.explore.checkpoint.JournalError` when the journal
    belongs to a different search.
    """
    say = progress or (lambda message: None)
    start = time.perf_counter()
    reg = metrics_registry()
    candidates = search.candidates()
    deadline = (start + search.budget.max_seconds
                if search.budget.max_seconds is not None else None)

    journal = Journal(journal_path, search.content_key(), resume=resume)
    try:
        if journal.resumed:
            reg.counter("explore.resumed").inc()
            say(f"resuming: journal holds {len(journal.surrogate)} "
                f"surrogate scores, {len(journal.detailed)} detailed "
                f"results")

        surrogate = Surrogate()
        scores = score_candidates(search, candidates, surrogate, journal)
        say(f"surrogate scored {len(scores)}/{len(candidates)} candidates "
            f"({surrogate.evaluations} evaluations)")

        promoted = select_promotions(search, candidates, scores)
        budget_exhausted = False
        cap = search.budget.max_detailed
        if cap is not None and len(promoted) > cap:
            promoted = promoted[:cap]
            budget_exhausted = True
        reg.counter("explore.promotions").inc(len(promoted))
        pending = [i for i in promoted if i not in journal.detailed]
        say(f"promoting {len(promoted)} candidates "
            f"({len(promoted) - len(pending)} already journaled)")

        kill_after = _specenv.explore_kill_after()
        if kill_after is not None:
            chunk = 1  # one result per journal write: deterministic kill
        elif deadline is not None:
            chunk = max(1, jobs if jobs is not None else default_jobs())
        else:
            chunk = max(1, len(pending))

        executed = 0
        for offset in range(0, len(pending), chunk):
            if deadline is not None and time.perf_counter() > deadline:
                budget_exhausted = True
                break
            batch = pending[offset:offset + chunk]
            specs = [candidates[i].spec for i in batch]
            try:
                results, stats = run_units(specs, jobs=jobs,
                                           reuse_results=True)
            except RunInterrupted as exc:
                for unit_result in exc.completed:
                    journal.record_detailed(batch[unit_result.index],
                                            _payload(unit_result.result))
                done = len(journal.detailed)
                raise ExploreInterrupted(
                    str(exc), journal_path=str(journal.path)
                    if journal.path else None,
                    completed=done, pending=len(promoted) - done,
                ) from exc
            reg.counter("explore.cache_hits").inc(
                stats.cache.hits.get("result", 0))
            for unit_result in results:
                journal.record_detailed(batch[unit_result.index],
                                        _payload(unit_result.result))
                executed += 1
                reg.counter("explore.detailed_runs").inc()
                if kill_after is not None and executed >= kill_after:
                    journal.close()
                    os._exit(1)
        if len(journal.detailed) < len(promoted):
            budget_exhausted = True

        promotions = []
        verified = []
        for index in promoted:
            cand = candidates[index]
            detailed = journal.detailed.get(index)
            if detailed is None:
                promotions.append(Promotion(
                    index=index, values=cand.values, cost=cand.cost,
                    surrogate_ipc=scores[index]))
                continue
            ipc = detailed["ipc"]
            promotions.append(Promotion(
                index=index, values=cand.values, cost=cand.cost,
                surrogate_ipc=scores[index], ipc=ipc,
                error=(scores[index] - ipc) / ipc))
            verified.append(FrontierPoint(
                index=index, values=cand.values, cost=cand.cost, ipc=ipc))

        result = ExploreResult(
            search=search,
            candidates=len(candidates),
            scored=len(scores),
            promotions=promotions,
            frontier=pareto_frontier(verified),
            detailed_used=len(verified),
            executed=executed,
            surrogate_evals=surrogate.evaluations,
            surrogate_seconds=surrogate.seconds,
            wall_seconds=time.perf_counter() - start,
            budget_exhausted=budget_exhausted,
            resumed=journal.resumed,
            journal_path=str(journal.path) if journal.path else None,
        )
        reg.counter("explore.searches").inc()
        journal.record_finished({
            "search_key": search.content_key(),
            "frontier": [p.to_dict() for p in result.frontier],
            "budget_exhausted": budget_exhausted,
        })
        say(f"frontier: {len(result.frontier)} points from "
            f"{len(promoted)} promotions "
            f"({result.promoted_fraction:.0%} of the grid)")
        return result
    finally:
        journal.close()


__all__ = ["ExploreInterrupted", "run_search"]
