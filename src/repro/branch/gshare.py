"""gShare branch predictor — the paper's baseline (8K entries, §1.1).

A global-history predictor: the pattern-history table of 2-bit saturating
counters is indexed by ``(pc >> 2) XOR global_history``.  Loop back-edges
with stable trip counts are captured by the history; "hard" data-dependent
branches are not, and dominate the misprediction rate.
"""

from __future__ import annotations

import numpy as np

from repro.branch.predictor import BranchPredictor

#: 2-bit counter thresholds
_WEAKLY_TAKEN = 2
_MAX_COUNTER = 3


class GShare(BranchPredictor):
    """gShare with ``entries`` 2-bit counters and matching history length."""

    def __init__(self, entries: int = 8192, history_bits: int | None = None):
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.history_bits = (
            self.index_bits if history_bits is None else int(history_bits)
        )
        if not 0 <= self.history_bits <= self.index_bits:
            raise ValueError(
                f"history_bits must be in [0, {self.index_bits}]"
            )
        self._table = np.full(entries, _WEAKLY_TAKEN, dtype=np.int8)
        self._history = 0
        self._history_mask = (1 << self.history_bits) - 1
        self._index_mask = entries - 1

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._index_mask

    def _predict(self, pc: int) -> bool:
        return bool(self._table[self._index(pc)] >= _WEAKLY_TAKEN)

    def _update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        counter = self._table[idx]
        if taken:
            if counter < _MAX_COUNTER:
                self._table[idx] = counter + 1
        else:
            if counter > 0:
                self._table[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def observe_batch(self, pcs, takens) -> np.ndarray:
        """Vectorized :meth:`observe` over a run of branches.

        The global history before each branch is a pure function of the
        outcome sequence, so per-branch histories and table indices are
        computed with array ops up front; only the pattern-table walk
        (whose counter updates feed later predictions at the same
        index) remains a scalar loop, over plain Python ints, which
        lists the mispredicted positions.  Decision-for-decision
        identical to the sequential path.
        """
        takens = np.asarray(takens, dtype=bool)
        pcs = np.asarray(pcs, dtype=np.int64)
        n = len(takens)
        if len(pcs) != n:
            raise ValueError("pcs and takens must be the same length")
        if n == 0:
            return self._batch_result(0, [])
        bits = self.history_bits
        # ext[i] is the outcome (i - bits) steps into the batch; the
        # first `bits` entries replay the incoming history, oldest first
        ext = np.empty(n + bits, dtype=np.int64)
        ext[:bits] = [(self._history >> (bits - 1 - i)) & 1
                      for i in range(bits)]
        ext[bits:] = takens
        hist = np.zeros(n, dtype=np.int64)
        for j in range(bits):
            hist |= ext[bits - 1 - j:n + bits - 1 - j] << j
        idx = (((pcs >> 2) ^ hist) & self._index_mask).tolist()
        taken_l = takens.tolist()
        table = self._table.tolist()
        wrong: list[int] = []
        miss = wrong.append
        for k in range(n):
            i = idx[k]
            counter = table[i]
            if taken_l[k]:
                if counter < _WEAKLY_TAKEN:
                    miss(k)
                if counter < _MAX_COUNTER:
                    table[i] = counter + 1
            else:
                if counter >= _WEAKLY_TAKEN:
                    miss(k)
                if counter:
                    table[i] = counter - 1
        # the counters are 0..3: packing them as bytes is far cheaper
        # than numpy's per-element conversion of the list
        self._table[:] = np.frombuffer(bytearray(table), dtype=np.int8)
        self._history = (((int(hist[-1]) << 1) | taken_l[-1])
                         & self._history_mask)
        return self._batch_result(n, wrong)

    def _reset_state(self) -> None:
        self._table.fill(_WEAKLY_TAKEN)
        self._history = 0
