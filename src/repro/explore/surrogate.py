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
    wall-clock so the report (and ``repro bench``) can quote the
    surrogate-vs-detailed cost ratio.

    The expensive inputs of :meth:`FirstOrderModel.evaluate_trace` — the
    functional miss-event profile and the unit-latency IW power-law fit
    — do not depend on the window/width/depth axes a search typically
    sweeps, so they are memoized per workload (and, for the profile,
    per cache-hierarchy/predictor configuration).  Every candidate then
    pays only the closed-form Eq. 1 arithmetic, which is what makes the
    surrogate orders of magnitude cheaper than a detailed simulation.
    The memoized path calls the same functions with the same inputs as
    ``evaluate_trace``, so scores are bit-identical to the unmemoized
    model.
    """

    def __init__(self) -> None:
        self.evaluations = 0
        self.seconds = 0.0
        self._profiles: dict = {}
        self._fits: dict = {}

    def ipc(self, spec: RunSpec, length: int | None = None) -> float:
        """Model-predicted IPC for ``spec``'s machine on its workload.

        ``length`` overrides the trace length for reduced-fidelity
        rungs; the trace itself comes from the shared two-level cache
        (:func:`repro.experiments.common.cached_trace`), so repeated
        evaluations over one workload pay trace generation once.
        """
        from repro.core.model import FirstOrderModel
        from repro.experiments.common import cached_trace
        from repro.frontend.collector import (
            CollectorConfig,
            MissEventCollector,
        )
        from repro.window.characteristic import IWCharacteristic
        from repro.window.iw_simulator import measure_iw_curve
        from repro.window.powerlaw import fit_curve

        workload = spec.workload
        if length is not None:
            workload = dataclasses.replace(workload, length=length)
        start = time.perf_counter()
        trace = cached_trace(workload)
        machine = spec.machine
        wkey = (workload.benchmark, workload.length,
                workload.resolved_seed())

        pkey = wkey + (machine.hierarchy, machine.predictor,
                       machine.ideal_predictor)
        profile = self._profiles.get(pkey)
        if profile is None:
            profile = MissEventCollector(
                CollectorConfig.of(machine)).collect(trace)
            self._profiles[pkey] = profile

        fit = self._fits.get(wkey)
        if fit is None:
            fit = fit_curve(measure_iw_curve(trace))
            self._fits[wkey] = fit

        # identical to FirstOrderModel.evaluate_trace, with the profile
        # and fit supplied from the memo instead of recomputed
        latency = profile.effective_mean_latency(
            machine.latency_table, machine.hierarchy.l2_latency)
        characteristic = IWCharacteristic.from_fit(
            fit, latency=latency, issue_width=machine.width)
        report = FirstOrderModel(machine).evaluate(profile, characteristic)
        self.seconds += time.perf_counter() - start
        self.evaluations += 1
        metrics_registry().counter("explore.surrogate_evals").inc()
        return report.ipc

    @property
    def mean_seconds(self) -> float:
        """Mean wall-clock per evaluation (0.0 before the first one)."""
        if not self.evaluations:
            return 0.0
        return self.seconds / self.evaluations


__all__ = ["Surrogate"]
