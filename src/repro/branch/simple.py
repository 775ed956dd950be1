"""Simple predictors: bimodal, static, and the ideal/pessimal extremes.

The ideal predictor realises the paper's "ideal branch predictor"
simulator configuration; static and bimodal predictors are useful
baselines when studying how model accuracy depends on the misprediction
rate.
"""

from __future__ import annotations

import numpy as np

from repro.branch.predictor import BranchPredictor

_WEAKLY_TAKEN = 2
_MAX_COUNTER = 3


class Bimodal(BranchPredictor):
    """Per-pc table of 2-bit saturating counters (no history)."""

    def __init__(self, entries: int = 2048):
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        # a bytearray, not a numpy array: the counters are read and
        # written one scalar at a time, which a bytearray does with
        # plain ints and no numpy scalar boxing
        self._table = bytearray([_WEAKLY_TAKEN]) * entries
        self._mask = entries - 1

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def _predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= _WEAKLY_TAKEN

    def _update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        counter = self._table[idx]
        if taken:
            if counter < _MAX_COUNTER:
                self._table[idx] = counter + 1
        else:
            if counter > 0:
                self._table[idx] = counter - 1

    def _reset_state(self) -> None:
        self._table[:] = bytearray([_WEAKLY_TAKEN]) * self.entries


class StaticPredictor(BranchPredictor):
    """Predicts a fixed direction for every branch."""

    def __init__(self, taken: bool = True):
        super().__init__()
        self.taken = taken

    def _predict(self, pc: int) -> bool:
        return self.taken

    def _update(self, pc: int, taken: bool) -> None:
        pass


class IdealPredictor(BranchPredictor):
    """Always correct — the paper's ideal-predictor configuration.

    Implemented by remembering the outcome it is about to be trained on;
    :meth:`observe` overrides the two-phase flow so the prediction always
    equals the actual outcome.
    """

    def observe(self, pc: int, taken: bool) -> bool:
        self.stats.predictions += 1
        return True

    def observe_batch(self, pcs, takens) -> np.ndarray:
        return self._batch_result(len(takens), [])

    def _predict(self, pc: int) -> bool:  # pragma: no cover - unused
        return True

    def _update(self, pc: int, taken: bool) -> None:  # pragma: no cover
        pass


class PessimalPredictor(BranchPredictor):
    """Always wrong — an upper-bound stressor for penalty models."""

    def observe(self, pc: int, taken: bool) -> bool:
        self.stats.predictions += 1
        self.stats.mispredictions += 1
        return False

    def observe_batch(self, pcs, takens) -> np.ndarray:
        return self._batch_result(len(takens), range(len(takens)))

    def _predict(self, pc: int) -> bool:  # pragma: no cover - unused
        return True

    def _update(self, pc: int, taken: bool) -> None:  # pragma: no cover
        pass
