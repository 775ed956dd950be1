"""Fast path for the functional miss-event pass.

The reference pass (:meth:`MissEventCollector._pass_reference`) walks the
trace one instruction at a time, calling into the cache-hierarchy and
branch-predictor objects for every reference.  This module implements the
same pass as specialised sweeps over *precomputed* index arrays:

* **L1 sweep** (:func:`sweep_l1`).  Only instructions that touch cache
  state matter: fetch-line transitions and loads/stores.  Their set
  indices and tags (for L1I, L1D and the unified L2) are computed up
  front with numpy; the Python loop then runs only over this compact
  index list with the LRU update inlined (operating directly on the
  ``Cache._sets`` state, so external observers see identical cache
  contents).  It emits every L1 miss as an L2 reference,
  in trace order and I-side before D-side within an instruction —
  exactly the order in which the reference pass probes the unified L2.
* **L2 sweep** (:func:`sweep_l2`).  The hierarchy is non-inclusive: no
  L1 outcome depends on L2 state, so the L2 can replay the L1 sweep's
  references afterwards in one LRU sweep.  The co-run pass
  (:mod:`repro.corun.contention`) relies on the same split: it merges
  several workloads' references and replays them on one shared L2.
* **Branch sweep** (:func:`sweep_branches`).  gShare's global history is
  a sliding window over the *outcome* bits, independent of its
  predictions — so the whole per-branch table-index sequence is
  vectorizable.  The remaining loop only steps the 2-bit counters (whose
  chains per table entry are the one truly sequential part) and records
  mispredictions.  Non-gShare predictors fall back to the generic
  per-branch ``observe`` call.

:func:`settle_pass` turns the references and their L2 hit flags into the
pass's :class:`PassTallies`.  A :class:`FastPassPlan` captures everything
that depends only on the trace and the collector configuration, so
warm-up and measurement passes share one precomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.branch.gshare import GShare
from repro.branch.predictor import BranchPredictor
from repro.frontend.events import EventAnnotations, MissEventProfile
from repro.isa.opclass import OpClass
from repro.memory.cache import Cache
from repro.memory.hierarchy import CacheHierarchy
from repro.trace.analysis import TraceStatistics
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.frontend.collector import CollectorConfig


@dataclass(frozen=True)
class PassTallies:
    """Counters produced by one recording pass (mirrors what the
    reference pass accumulates inline)."""

    branch_count: int
    misprediction_count: int
    misprediction_indices: list[int]
    fetch_line_accesses: int
    icache_short_count: int
    icache_long_count: int
    load_count: int
    dcache_short_count: int
    dcache_long_count: int
    long_miss_indices: list[int]
    annotations: EventAnnotations | None

    def profile(self, name: str, length: int,
                trace_stats: TraceStatistics) -> MissEventProfile:
        """The :class:`MissEventProfile` of a ``length``-instruction
        trace these tallies cover."""
        return MissEventProfile(
            name=name,
            length=length,
            branch_count=self.branch_count,
            misprediction_count=self.misprediction_count,
            misprediction_indices=np.array(self.misprediction_indices,
                                           dtype=np.int64),
            fetch_line_accesses=self.fetch_line_accesses,
            icache_short_count=self.icache_short_count,
            icache_long_count=self.icache_long_count,
            load_count=self.load_count,
            dcache_short_count=self.dcache_short_count,
            dcache_long_count=self.dcache_long_count,
            long_miss_indices=np.array(self.long_miss_indices,
                                       dtype=np.int64),
            trace_stats=trace_stats,
            annotations=self.annotations,
        )


class FastPassPlan:
    """Trace- and config-dependent precomputation shared by all passes.

    ``prev_line`` supports chunk-at-a-time streaming: for any chunk but
    the first of a pass, it carries the previous chunk's last fetch line
    so the boundary transition is computed exactly as the reference pass
    would across the seam.  ``None`` (the default) is the start-of-pass
    sentinel — the first instruction always opens a new fetch line.
    """

    def __init__(self, trace: Trace, config: "CollectorConfig",
                 prev_line: int | None = None):
        hier = config.hierarchy
        n = len(trace)
        pc = trace.pc
        op = trace.opclass
        addr = trace.addr

        lines = pc // hier.l1i.line_bytes
        tr = np.empty(n, dtype=bool)
        if prev_line is None:
            tr[0] = True  # the per-pass last_line sentinel always misses
        else:
            tr[0] = bool(lines[0] != prev_line)
        np.not_equal(lines[1:], lines[:-1], out=tr[1:])
        self.n_transitions = int(tr.sum())
        #: last fetch line of this chunk — the next chunk's ``prev_line``
        self.last_line = int(lines[-1])

        is_load = op == int(OpClass.LOAD)
        is_store = op == int(OpClass.STORE)
        self.n_loads = int(is_load.sum())

        # the L1 sweep visits only indices whose stream is actually
        # simulated; ideal streams are tallied in bulk instead
        sel = np.zeros(n, dtype=bool)
        if not hier.ideal_icache:
            sel |= tr
        if not hier.ideal_dcache:
            sel |= is_load
            sel |= is_store
        mem_idx = np.flatnonzero(sel)
        m = len(mem_idx)
        self.mem_idx = mem_idx.tolist()
        if hier.ideal_icache:
            self.tr_flag = [False] * m
        else:
            self.tr_flag = tr[mem_idx].tolist()
        if hier.ideal_dcache:
            self.dop = [0] * m
        else:
            self.dop = np.where(is_load, 1, np.where(is_store, 2, 0))[
                mem_idx
            ].tolist()

        l2 = hier.l2
        lm = lines[mem_idx]
        self.iset = (lm % hier.l1i.num_sets).tolist()
        self.itag = (lm // hier.l1i.num_sets).tolist()
        il2 = pc[mem_idx] // l2.line_bytes
        self.i2set = (il2 % l2.num_sets).tolist()
        self.i2tag = (il2 // l2.num_sets).tolist()
        dl = addr[mem_idx] // hier.l1d.line_bytes
        self.dset = (dl % hier.l1d.num_sets).tolist()
        self.dtag = (dl // hier.l1d.num_sets).tolist()
        dl2 = addr[mem_idx] // l2.line_bytes
        self.d2set = (dl2 % l2.num_sets).tolist()
        self.d2tag = (dl2 // l2.num_sets).tolist()

        bidx = np.flatnonzero(op == int(OpClass.BRANCH))
        self.branch_idx = bidx.tolist()
        self.branch_pc = pc[bidx]
        self.branch_pc_list = self.branch_pc.tolist()
        self.branch_taken = trace.taken[bidx].astype(np.int64)
        self.branch_taken_list = self.branch_taken.tolist()


def _gshare_history(
    predictor: GShare, taken: np.ndarray
) -> tuple[np.ndarray, int]:
    """Global-history value before each branch, plus the final history.

    The history register is the last ``history_bits`` outcome bits — a
    pure function of the taken sequence and the pass-entry history, so it
    vectorizes even though predictions do not.
    """
    hb = predictor.history_bits
    hmask = predictor._history_mask
    h0 = predictor._history
    num = len(taken)
    if hb == 0:
        return np.zeros(num, dtype=np.int64), 0
    ext = np.empty(num + hb, dtype=np.int64)
    for i in range(hb):
        ext[hb - 1 - i] = (h0 >> i) & 1
    ext[hb:] = taken
    hist = np.zeros(num, dtype=np.int64)
    for i in range(hb):
        hist |= ext[hb - 1 - i : hb - 1 - i + num] << i
    hist &= hmask
    final = 0
    for i in range(hb):
        final |= int(ext[num + hb - 1 - i]) << i
    return hist, final & hmask


#: kind of an L1-miss reference to the L2 (loads and stores share the
#: plan's ``dop`` codes)
FETCH, LOAD, STORE = 0, 1, 2


@dataclass
class PrivateSweep:
    """What one pass learns from a workload's private state.

    The L1s and the branch predictor never depend on the L2, so a pass
    splits into private sweeps (L1 and branch, chunk by chunk) and one
    L2 sweep over the collected references.  ``idx``/``kind``/``l2_set``/
    ``l2_tag`` list the L1-miss references to the L2 in program order,
    the I-side reference of an instruction before its D-side one.
    """

    idx: list[int] = field(default_factory=list)
    kind: list[int] = field(default_factory=list)
    l2_set: list[int] = field(default_factory=list)
    l2_tag: list[int] = field(default_factory=list)
    fetches: int = 0
    loads: int = 0
    branches: int = 0
    misp: list[int] = field(default_factory=list)


def sweep_l1(plan: FastPassPlan, hierarchy: CacheHierarchy,
             out: PrivateSweep, base: int = 0) -> None:
    """Walk ``plan.mem_idx`` over the private L1I/L1D, appending each L1
    miss to ``out`` as an L2 reference at trace index ``base + i``."""
    isets = hierarchy.l1i._sets
    dsets = hierarchy.l1d._sets
    iassoc = hierarchy.l1i.geometry.associativity
    dassoc = hierarchy.l1d.geometry.associativity
    ref_idx = out.idx.append
    ref_kind = out.kind.append
    ref_set = out.l2_set.append
    ref_tag = out.l2_tag.append

    mem_idx = plan.mem_idx
    trf = plan.tr_flag
    dop = plan.dop
    iset = plan.iset
    itag = plan.itag
    i2set = plan.i2set
    i2tag = plan.i2tag
    dset = plan.dset
    dtag = plan.dtag
    d2set = plan.d2set
    d2tag = plan.d2tag

    for i in range(len(mem_idx)):
        if trf[i]:
            tags = isets[iset[i]]
            tag = itag[i]
            if tag in tags:
                if tags[0] != tag:
                    tags.remove(tag)
                    tags.insert(0, tag)
            else:
                tags.insert(0, tag)
                if len(tags) > iassoc:
                    tags.pop()
                ref_idx(base + mem_idx[i])
                ref_kind(FETCH)
                ref_set(i2set[i])
                ref_tag(i2tag[i])
        d = dop[i]
        if d:
            tags = dsets[dset[i]]
            tag = dtag[i]
            if tag in tags:
                if tags[0] != tag:
                    tags.remove(tag)
                    tags.insert(0, tag)
            else:
                tags.insert(0, tag)
                if len(tags) > dassoc:
                    tags.pop()
                ref_idx(base + mem_idx[i])
                ref_kind(d)
                ref_set(d2set[i])
                ref_tag(d2tag[i])

    out.fetches += plan.n_transitions
    out.loads += plan.n_loads


def sweep_l2(cache: Cache, sets: list[int], tags: list[int]) -> np.ndarray:
    """One LRU sweep of ``cache`` over the references ``(sets[k],
    tags[k])`` in order; returns the per-reference hit flags and settles
    the cache's statistics."""
    l2sets = cache._sets
    assoc = cache.geometry.associativity
    hits = bytearray(len(sets))
    for k in range(len(sets)):
        t2 = l2sets[sets[k]]
        tg2 = tags[k]
        if tg2 in t2:
            hits[k] = 1
            if t2[0] != tg2:
                t2.remove(tg2)
                t2.insert(0, tg2)
        else:
            t2.insert(0, tg2)
            if len(t2) > assoc:
                t2.pop()
    flags = np.frombuffer(hits, dtype=np.bool_)
    cache.stats.accesses += len(sets)
    cache.stats.misses += len(sets) - int(np.count_nonzero(flags))
    return flags


def sweep_branches(plan: FastPassPlan, config: "CollectorConfig",
                   predictor: BranchPredictor, out: PrivateSweep,
                   base: int = 0) -> None:
    """Step ``predictor`` through the plan's branches, appending each
    misprediction's trace index ``base + i`` to ``out.misp``."""
    branch_idx = plan.branch_idx
    num_b = len(branch_idx)
    out.branches += num_b
    if not num_b or config.ideal_predictor:
        return
    misp = out.misp.append
    taken_l = plan.branch_taken_list
    if type(predictor) is GShare:
        hist, final_hist = _gshare_history(predictor, plan.branch_taken)
        idx = (((plan.branch_pc >> 2) ^ hist)
               & predictor._index_mask).tolist()
        tbl = predictor._table.tolist()
        misp_count = 0
        for j in range(num_b):
            ix = idx[j]
            c = tbl[ix]
            if taken_l[j]:
                if c < 2:  # predicted not-taken: mispredict
                    misp_count += 1
                    misp(base + branch_idx[j])
                if c < 3:
                    tbl[ix] = c + 1
            else:
                if c >= 2:  # predicted taken: mispredict
                    misp_count += 1
                    misp(base + branch_idx[j])
                if c:
                    tbl[ix] = c - 1
        predictor._table[:] = tbl
        predictor._history = final_hist
        predictor.stats.predictions += num_b
        predictor.stats.mispredictions += misp_count
    else:
        pcs = plan.branch_pc_list
        for j in range(num_b):
            if not predictor.observe(pcs[j], bool(taken_l[j])):
                misp(base + branch_idx[j])


def settle_pass(sweep: PrivateSweep, hits: np.ndarray, length: int,
                config: "CollectorConfig",
                annotate: bool = False) -> PassTallies:
    """Turn one pass's references and their L2 hit flags into the pass's
    tallies, annotated over ``length`` instructions when ``annotate``."""
    hier_cfg = config.hierarchy
    idx = np.array(sweep.idx, dtype=np.int64)
    kind = np.array(sweep.kind, dtype=np.int8)
    fetch = kind == FETCH
    load = kind == LOAD
    long_load = load & ~hits

    annotations = None
    if annotate:
        lat = np.where(hits, hier_cfg.l2_latency, hier_cfg.memory_latency)
        fetch_stall = np.zeros(length, dtype=np.int32)
        fetch_stall[idx[fetch]] = lat[fetch]
        load_extra = np.zeros(length, dtype=np.int32)
        load_extra[idx[load]] = lat[load]
        long_miss = np.zeros(length, dtype=np.bool_)
        long_miss[idx[long_load]] = True
        mispredicted = np.zeros(length, dtype=np.bool_)
        mispredicted[sweep.misp] = True
        annotations = EventAnnotations(
            fetch_stall=fetch_stall, load_extra=load_extra,
            long_miss=long_miss, mispredicted=mispredicted,
        )
    return PassTallies(
        branch_count=sweep.branches,
        misprediction_count=len(sweep.misp),
        misprediction_indices=sweep.misp,
        fetch_line_accesses=sweep.fetches,
        icache_short_count=int(np.count_nonzero(fetch & hits)),
        icache_long_count=int(np.count_nonzero(fetch & ~hits)),
        load_count=sweep.loads,
        dcache_short_count=int(np.count_nonzero(load & hits)),
        dcache_long_count=int(np.count_nonzero(long_load)),
        long_miss_indices=idx[long_load].tolist(),
        annotations=annotations,
    )


def run_fast_pass(
    plan: FastPassPlan,
    trace: Trace,
    config: "CollectorConfig",
    hierarchy: CacheHierarchy,
    predictor: BranchPredictor,
    record: bool,
    annotate: bool = False,
) -> PassTallies | None:
    """One functional pass over ``trace`` using the precomputed ``plan``.

    Mutates the cache and predictor state of ``hierarchy`` and
    ``predictor`` exactly as the reference pass does, and the L2's and
    the predictor's statistics (the private L1 and per-stream counters,
    which nothing reads after a pass, are left alone); returns tallies
    when ``record``.
    """
    sweep = PrivateSweep()
    sweep_l1(plan, hierarchy, sweep)
    hits = sweep_l2(hierarchy.l2, sweep.l2_set, sweep.l2_tag)
    sweep_branches(plan, config, predictor, sweep)
    tallies = settle_pass(sweep, hits, len(trace), config, annotate)
    return tallies if record else None
