"""Branch-predictor interface and bookkeeping.

Predictors here are *functional*: they are consulted once per dynamic
conditional branch, in trace order, and told the resolved outcome
immediately.  The first-order model needs only the resulting
misprediction count/rate (§4.1); the detailed simulator additionally uses
per-branch correctness to decide when to squash fetch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.trace.trace import Trace


@dataclass
class PredictorStats:
    """Prediction counters."""

    predictions: int = 0
    mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def reset(self) -> None:
        self.predictions = 0
        self.mispredictions = 0


class BranchPredictor(abc.ABC):
    """Direction predictor for conditional branches.

    Subclasses implement :meth:`_predict` and :meth:`_update`; the public
    :meth:`observe` drives both and keeps statistics.
    """

    def __init__(self) -> None:
        self.stats = PredictorStats()

    @abc.abstractmethod
    def _predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abc.abstractmethod
    def _update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome."""

    def observe(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, train on ``taken``, and return
        True when the prediction was correct."""
        predicted = self._predict(pc)
        self._update(pc, taken)
        self.stats.predictions += 1
        correct = predicted == taken
        if not correct:
            self.stats.mispredictions += 1
        return correct

    def reset(self) -> None:
        """Clear statistics and learned state."""
        self.stats.reset()
        self._reset_state()

    def _reset_state(self) -> None:  # pragma: no cover - trivial default
        """Subclasses with tables override this."""

    def observe_batch(self, pcs, takens) -> np.ndarray:
        """Observe a run of conditional branches in trace order.

        ``pcs`` and ``takens`` are aligned arrays (one entry per
        conditional branch).  Returns a boolean array: True where the
        prediction was correct.  The base implementation is
        :meth:`observe`'s predict-then-train step in a loop over plain
        Python values, so a subclass that overrides :meth:`observe`
        overrides this too; subclasses may override with a faster path,
        which must match it decision-for-decision.
        """
        pcs = np.asarray(pcs, dtype=np.int64).tolist()
        takens = np.asarray(takens, dtype=bool).tolist()
        if len(pcs) != len(takens):
            raise ValueError("pcs and takens must be the same length")
        predict, update = self._predict, self._update
        wrong: list[int] = []
        miss = wrong.append
        for k in range(len(takens)):
            pc = pcs[k]
            taken = takens[k]
            if predict(pc) != taken:
                miss(k)
            update(pc, taken)
        return self._batch_result(len(takens), wrong)

    def _batch_result(self, n: int, wrong) -> np.ndarray:
        """Count ``n`` predictions with the ``wrong`` positions
        mispredicted, and return the per-branch correctness."""
        self.stats.predictions += n
        self.stats.mispredictions += len(wrong)
        correct = np.ones(n, dtype=bool)
        correct[wrong] = False
        return correct

    def run_trace(self, trace: Trace) -> np.ndarray:
        """Predict every conditional branch of ``trace`` in order.

        Returns a boolean array aligned with the trace: True at indices
        of *mispredicted* conditional branches, False elsewhere.
        """
        mispredicted = np.zeros(len(trace), dtype=bool)
        branch_idx = np.flatnonzero(trace.branches)
        correct = self.observe_batch(trace.pc[branch_idx],
                                     trace.taken[branch_idx])
        mispredicted[branch_idx[~correct]] = True
        return mispredicted
