"""Shared-L2 contended functional pass.

The co-run reference path re-runs the paper's functional miss-event pass
(:mod:`repro.frontend.collector`) for several workloads at once: each
workload keeps its *private* L1I/L1D, branch predictor and counters, but
all of them sit over **one** shared L2 :class:`~repro.memory.cache.Cache`
(injected via ``CacheHierarchy(shared_l2=...)``).  Accesses hit the
shared L2 in the merged order given by
:func:`repro.corun.interleave.interleave_order`, so each workload's
long-miss population reflects the cache pressure of its co-runners —
interference is modeled purely through cache state, never through shared
counters.

Interference enters only at the L2
----------------------------------
The hierarchy is non-inclusive, so no L1 outcome depends on L2 state,
and the L1s and predictors are private: each workload's L1 hits and
misses and its branch outcomes under contention are exactly its solo
ones.  Each pass therefore runs the fast pass's private sweeps
(:func:`~repro.frontend.fastpass.sweep_l1`,
:func:`~repro.frontend.fastpass.sweep_branches`) per workload, merges
the workloads' L1-miss references on their interleave keys, replays the
merge on the shared L2 in one :func:`~repro.frontend.fastpass.sweep_l2`
and scatters the hit flags back to each workload's tallies.

Address disjointness
--------------------
Every workload's addresses are offset by ``index << ADDRESS_OFFSET_BITS``.
The offset is a multiple of every power-of-two cache size in play, so it
preserves each workload's set indices — a workload's private-L1 behavior
and the L2 *access stream it emits* are identical to its solo run — while
guaranteeing co-runners never share L2 tags.  Only the L2 tag sees the
offset (predictors index with ``(pc >> 2) & mask``, which the offset never
reaches).  With per-set LRU, the co-runners' extra accesses can only push
a workload's blocks further down the stacks, so every solo L2 miss is
also a contended miss: per-workload long-miss rates under contention are
≥ their solo rates by construction, which is the physical monotonicity
the validation experiment asserts.

Memory behavior
---------------
Trace chunks are consumed one at a time, but a pass holds every
workload's L1-miss references until the shared-L2 replay, plus the
O(length) per-instruction annotations of the recording pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.branch.predictor import BranchPredictor
from repro.config import BASELINE
from repro.corun.interleave import InterleaveKey
from repro.frontend.collector import CollectorConfig
from repro.frontend.fastpass import (
    FastPassPlan,
    PassTallies,
    PrivateSweep,
    settle_pass,
    sweep_branches,
    sweep_l1,
    sweep_l2,
)
from repro.memory.cache import Cache
from repro.memory.hierarchy import CacheHierarchy
from repro.trace.trace import Trace

__all__ = ["ADDRESS_OFFSET_BITS", "ContentionResult", "WorkloadContention",
           "run_contended_pass"]

#: per-workload address-space offset (multiple of every cache size, so
#: set indices — and therefore each workload's solo behavior — survive)
ADDRESS_OFFSET_BITS = 44

#: zero-arg factory yielding a fresh iterable of Trace chunks per pass
ChunkSource = Callable[[], Iterable[Trace]]


@dataclass
class WorkloadContention:
    """One workload's miss-event counts under shared-L2 contention.

    ``tallies`` are the recording pass's counts and annotations, the
    fields of a :class:`~repro.frontend.events.MissEventProfile` minus
    trace statistics.  ``l2_accesses``/``l2_misses`` count *every* L2
    probe this workload issued during the recording pass — instruction
    fetches, loads and stores — so the shared cache's counters reconcile
    exactly with the per-workload sums.
    """

    tallies: PassTallies
    l2_accesses: int
    l2_misses: int


@dataclass
class ContentionResult:
    """Everything the contended pass measured."""

    workloads: list[WorkloadContention]
    #: shared-L2 counter deltas over the recording pass only
    shared_l2_accesses: int
    shared_l2_misses: int


def run_contended_pass(
    sources: list[ChunkSource],
    lengths: list[int],
    order: InterleaveKey,
    config: CollectorConfig | None = None,
) -> ContentionResult:
    """Run the shared-L2 functional pass over a merged co-run.

    ``sources[i]()`` must yield workload ``i``'s ``lengths[i]``
    instructions as trace chunks from the start — it is called once per
    warm-up pass and once for the recording pass.  ``order`` is the
    interleave key (:func:`~repro.corun.interleave.interleave_order`);
    warm-up passes replay the same order, keeping cache and predictor
    state exactly as the solo collector does.
    """
    cfg = config or CollectorConfig.of(BASELINE)
    n_work = len(sources)
    if len(lengths) != n_work:
        raise ValueError("sources and lengths must align")

    l2 = cfg.hierarchy.l2
    shared = Cache(l2, "L2(shared)")
    hierarchies = [CacheHierarchy(cfg.hierarchy, shared_l2=shared)
                   for _ in range(n_work)]
    predictors = [cfg.predictor_factory() for _ in range(n_work)]
    tag_offsets = [(w << ADDRESS_OFFSET_BITS) // (l2.line_bytes * l2.num_sets)
                   for w in range(n_work)]

    def one_pass(annotate: bool) -> list[WorkloadContention]:
        sweeps = [_private_pass(w, sources[w], lengths[w], cfg,
                                hierarchies[w], predictors[w])
                  for w in range(n_work)]
        refs = [np.array(s.idx, dtype=np.int64) for s in sweeps]
        keys = np.concatenate([order(w, r) for w, r in enumerate(refs)])
        # stable: key ties keep workload order, then program order
        merge = np.argsort(keys, kind="stable")
        sets = np.concatenate(
            [np.array(s.l2_set, dtype=np.int64) for s in sweeps])
        tags = np.concatenate(
            [np.array(s.l2_tag, dtype=np.int64) + off
             for s, off in zip(sweeps, tag_offsets)])
        hits = np.empty(len(merge), dtype=np.bool_)
        hits[merge] = sweep_l2(shared, sets[merge].tolist(),
                               tags[merge].tolist())
        bounds = np.cumsum([len(r) for r in refs])[:-1]
        return [
            WorkloadContention(
                tallies=settle_pass(s, h, n, cfg, annotate),
                l2_accesses=len(h),
                l2_misses=len(h) - int(np.count_nonzero(h)),
            )
            for s, h, n in zip(sweeps, np.split(hits, bounds), lengths)
        ]

    for _ in range(max(0, cfg.warmup_passes)):
        one_pass(annotate=False)
    before_accesses = shared.stats.accesses
    before_misses = shared.stats.misses
    workloads = one_pass(annotate=True)
    return ContentionResult(
        workloads=workloads,
        shared_l2_accesses=shared.stats.accesses - before_accesses,
        shared_l2_misses=shared.stats.misses - before_misses,
    )


def _private_pass(w: int, source: ChunkSource, length: int,
                  cfg: CollectorConfig, hierarchy: CacheHierarchy,
                  predictor: BranchPredictor) -> PrivateSweep:
    """Workload ``w``'s private L1 and branch sweeps over one pass of
    its chunks, which must total exactly ``length`` instructions."""
    sweep = PrivateSweep()
    base = 0
    last_line: int | None = None
    for chunk in source():
        if base + len(chunk) > length:
            raise ValueError(f"source {w} served more than {length} "
                             "instructions")
        plan = FastPassPlan(chunk, cfg, prev_line=last_line)
        sweep_l1(plan, hierarchy, sweep, base)
        sweep_branches(plan, cfg, predictor, sweep, base)
        base += len(chunk)
        last_line = plan.last_line
    if base != length:
        raise ValueError(f"source {w} served {base} of {length} "
                         "instructions")
    return sweep
