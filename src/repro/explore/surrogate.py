"""The analytical model as a cheap surrogate for the detailed simulator.

The paper's central claim — first-order model CPI tracks detailed-sim
CPI within a few percent — is exactly what makes model-guided search
sound: rank candidates by model IPC, spend detailed simulations only on
the configs that might matter.  :class:`Surrogate` wraps
:class:`repro.core.model.FirstOrderModel` behind the shared trace cache,
counts every evaluation in the metrics registry
(``explore.surrogate_evals``), and supports reduced-fidelity scoring
(shorter traces) for the successive-halving strategy's early rungs.
"""

from __future__ import annotations

import dataclasses
import time

from repro.spec.specs import RunSpec
from repro.telemetry.metrics import metrics_registry


class Surrogate:
    """Stateless-per-spec, stateful-per-search model evaluator.

    One instance per search: it accumulates the evaluation count and
    wall-clock so the search report can quote the surrogate-vs-detailed
    cost ratio.

    Each score is ``FirstOrderModel(machine).evaluate_trace(trace)`` on
    the shared cached trace.  The expensive inputs — the functional
    miss-event profile and the unit-latency IW curve — are memoized on
    that trace (:meth:`repro.trace.trace.Trace.memo`), so every further
    candidate on a workload pays only the closed-form Eq. 1 arithmetic,
    for as long as the trace cache keeps the trace.
    """

    def __init__(self) -> None:
        self.evaluations = 0
        self.seconds = 0.0

    def ipc(self, spec: RunSpec, length: int | None = None) -> float:
        """Model-predicted IPC for ``spec``'s machine on its workload.

        ``length`` overrides the trace length for reduced-fidelity
        rungs; the trace itself comes from the shared two-level cache
        (:func:`repro.experiments.common.cached_trace`), so repeated
        evaluations over one workload pay trace generation once.
        """
        from repro.core.model import FirstOrderModel
        from repro.experiments.common import cached_trace

        workload = spec.workload
        if length is not None:
            workload = dataclasses.replace(workload, length=length)
        start = time.perf_counter()
        ipc = FirstOrderModel(spec.machine).evaluate_trace(
            cached_trace(workload)).ipc
        self.seconds += time.perf_counter() - start
        self.evaluations += 1
        metrics_registry().counter("explore.surrogate_evals").inc()
        return ipc

    @property
    def mean_seconds(self) -> float:
        """Mean wall-clock per evaluation (0.0 before the first one)."""
        if not self.evaluations:
            return 0.0
        return self.seconds / self.evaluations


__all__ = ["Surrogate"]
