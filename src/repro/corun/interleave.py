"""Deterministic interleaving of per-workload access streams.

A co-run merges the instruction streams of its workloads into one global
order; the shared L2 sees accesses in that order, and that order alone
determines contention.  Both policies here are pure functions of the
:class:`~repro.spec.corun.CoRunSpec` (lengths, weights, policy knobs) —
chunk size, streaming mode and process parallelism can never change the
merge, which is what makes co-run results content-addressable.

``cpi`` — cycle-proportional
    Each workload advances in proportion to its solo execution rate: a
    workload that takes ``w`` cycles per instruction when running alone
    consumes ``w`` units of virtual time per instruction here, and the
    workload with the least consumed virtual time issues next (ties break
    to the lowest workload index).  This is the deterministic stand-in
    for "all cores run concurrently in real time": a slow (high-CPI)
    workload injects proportionally fewer L2 accesses per unit time than
    a fast one, exactly as on real silicon.

``round_robin``
    Fixed ``quantum``-instruction turns in workload order, skipping
    exhausted workloads.  The simplest possible merge; useful as a
    policy-sensitivity check against ``cpi``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.spec.corun import InterleaveSpec
from repro.spec.specs import SpecError

__all__ = ["InterleaveKey", "interleave_order"]

#: ``key(w, idx)``: the merge key of workload ``w``'s instructions at the
#: ascending trace indices ``idx``
InterleaveKey = Callable[[int, np.ndarray], np.ndarray]

#: instructions per cumsum block of the ``cpi`` key (bounds its memory)
_VTIME_BLOCK = 1 << 16


def interleave_order(
    lengths: list[int] | tuple[int, ...],
    spec: InterleaveSpec | None = None,
    weights: list[float] | tuple[float, ...] | None = None,
) -> InterleaveKey:
    """The merged issue order for a co-run, as a sort key.

    The merged order is the stable sort of every workload's instructions
    on ``(key(w, i), w)``: instruction ``i`` of workload ``w`` is the
    ``t``-th access the shared hierarchy observes when ``t`` instructions
    sort before it.  Keys never decrease along a workload's program
    order, so every workload's own instructions stay in order — the
    merge only decides how the streams shuffle together.

    ``weights`` are the per-workload virtual-time costs per instruction
    for the ``cpi`` policy (solo CPIs in practice; ``None`` means equal
    weights, which degenerates to fine-grained round-robin).
    """
    spec = spec or InterleaveSpec()
    if len(lengths) < 2:
        raise SpecError("an interleave needs at least 2 workloads")
    if any(n < 1 for n in lengths):
        raise SpecError("interleave lengths must be positive")
    if spec.policy == "cpi":
        if weights is None:
            weights = [1.0] * len(lengths)
        if len(weights) != len(lengths):
            raise SpecError("interleave weights must match workload count")
        if any(not (w > 0.0) for w in weights):
            raise SpecError("interleave weights must be positive")
        weights = [float(w) for w in weights]
        return lambda w, idx: _virtual_time(weights[w], idx)
    quantum = spec.quantum
    return lambda w, idx: idx // quantum


def _virtual_time(weight: float, idx: np.ndarray) -> np.ndarray:
    """Virtual time consumed before each instruction in ``idx``.

    The time before instruction ``i`` is ``weight`` added ``i`` times in
    sequence — bit for bit the running sum a per-instruction loop keeps,
    which ``i * weight`` is not.  ``np.cumsum`` adds sequentially, one
    fixed-size block at a time, carrying the running sum across blocks.
    """
    out = np.empty(len(idx), dtype=np.float64)
    block = np.full(_VTIME_BLOCK, weight)
    carry = 0.0
    start = lo = 0
    while lo < len(idx):
        block[0] = carry  # the time before instruction ``start``
        vtime = np.cumsum(block)
        hi = int(np.searchsorted(idx, start + _VTIME_BLOCK))
        out[lo:hi] = vtime[idx[lo:hi] - start]
        carry = vtime[-1] + weight
        start += _VTIME_BLOCK
        lo = hi
    return out
