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
* **Branch sweep** (:func:`sweep_branches`).  The predictor's own
  :meth:`~repro.branch.predictor.BranchPredictor.observe_batch` steps
  it through the plan's branches; the sweep maps the mispredicted ones
  back to trace positions with one index.  gShare's batch vectorizes
  the history and table indices (its global history is a sliding
  window over the *outcome* bits, independent of its predictions) and
  loops only over the 2-bit counters; other predictors run the
  sequential ``observe`` loop.

:func:`settle_pass` turns the references and their L2 hit flags into the
pass's :class:`PassTallies`.  A :class:`FastPassPlan` captures everything
that depends only on a chunk of the trace and the collector
configuration.  :class:`PassDriver` is the one loop that walks a pass's
chunks and plans them: the in-memory collector, the streaming collector
and the co-run's private sweeps all run their passes through it.  A
materialized trace keeps its plan across the warm-up and recording
passes; a chunk stream is planned afresh on every pass, so only one
chunk's plan is alive at a time.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.branch.predictor import BranchPredictor
from repro.frontend.events import EventAnnotations, MissEventProfile
from repro.isa.opclass import OpClass
from repro.memory.cache import Cache
from repro.memory.hierarchy import CacheHierarchy
from repro.obs import spans as _spans
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
    """Chunk- and config-dependent precomputation of one chunk's sweeps.

    ``prev_line`` carries the previous chunk's last fetch line so the
    boundary transition is computed exactly as the reference pass would
    across the seam; ``None`` is the start-of-pass sentinel — the first
    instruction always opens a new fetch line.  ``base`` is the chunk's
    first trace index: the plan's ``mem_idx`` and ``branch_idx`` are
    trace positions.
    """

    def __init__(self, trace: Trace, config: "CollectorConfig",
                 prev_line: int | None, base: int):
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
        self.mem_idx = (mem_idx + base).tolist()
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
        self.branch_idx = bidx + base
        self.branch_pc = pc[bidx]
        self.branch_taken = trace.taken[bidx]


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
             out: PrivateSweep) -> None:
    """Walk ``plan.mem_idx`` over the private L1I/L1D, appending each L1
    miss to ``out`` as an L2 reference at its trace index."""
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
                ref_idx(mem_idx[i])
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
                ref_idx(mem_idx[i])
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
                   predictor: BranchPredictor, out: PrivateSweep) -> None:
    """Step ``predictor`` through the plan's branches, appending each
    misprediction's trace index to ``out.misp``."""
    branch_idx = plan.branch_idx
    out.branches += len(branch_idx)
    if len(branch_idx) and not config.ideal_predictor:
        correct = predictor.observe_batch(plan.branch_pc, plan.branch_taken)
        out.misp.extend(branch_idx[~correct].tolist())


def settle_pass(sweep: PrivateSweep, hits: np.ndarray, length: int,
                config: "CollectorConfig", annotate: bool = False,
                base: int = 0) -> PassTallies:
    """Turn the references of one pass, or of one chunk starting at
    trace index ``base``, and their L2 hit flags into tallies, annotated
    over the ``length`` instructions from ``base`` when ``annotate``."""
    hier_cfg = config.hierarchy
    idx = np.array(sweep.idx, dtype=np.int64)
    kind = np.array(sweep.kind, dtype=np.int8)
    fetch = kind == FETCH
    load = kind == LOAD
    long_load = load & ~hits

    annotations = None
    if annotate:
        lat = np.where(hits, hier_cfg.l2_latency, hier_cfg.memory_latency)
        at = idx - base
        fetch_stall = np.zeros(length, dtype=np.int32)
        fetch_stall[at[fetch]] = lat[fetch]
        load_extra = np.zeros(length, dtype=np.int32)
        load_extra[at[load]] = lat[load]
        long_miss = np.zeros(length, dtype=np.bool_)
        long_miss[at[long_load]] = True
        mispredicted = np.zeros(length, dtype=np.bool_)
        mispredicted[np.array(sweep.misp, dtype=np.int64) - base] = True
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


#: a zero-argument callable yielding a fresh iterable of trace chunks,
#: called once per pass
ChunkSource = Callable[[], Iterable[Trace]]


class PassDriver:
    """The one walk over a functional pass's chunks.

    ``source`` is the pass's input: a materialized :class:`Trace`, whose
    plan is built on the first pass and kept for every later one, or a
    :data:`ChunkSource`, whose chunks are planned afresh on every pass.
    Each chunk's plan carries the previous chunk's last fetch line and
    the chunk's base index.  Every pass must serve exactly ``length``
    instructions (the trace's length by default); ``name`` labels the
    error when one does not, and a streamed warm-up pass's span.

    The driver steps ``hierarchy``'s private L1s and ``predictor``;
    :meth:`run` also sweeps the hierarchy's L2 chunk by chunk, while the
    co-run takes :meth:`private_pass` and replays the L2 references of
    all its workloads on one shared L2.
    """

    def __init__(self, source: Trace | ChunkSource, config: "CollectorConfig",
                 hierarchy: CacheHierarchy, predictor: BranchPredictor,
                 length: int | None = None, name: str | None = None):
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self._source = source
        self._materialized = isinstance(source, Trace)
        self.length = len(source) if length is None else length
        self.name = source.name if name is None else name
        self._kept: list[tuple[int, Trace, FastPassPlan]] | None = None

    def _plans(self) -> Iterable[tuple[int, Trace, FastPassPlan]]:
        if not self._materialized:
            return self._walk(self._source())
        if self._kept is None:
            self._kept = list(self._walk((self._source,)))
        return self._kept

    def _walk(self, chunks: Iterable[Trace]
              ) -> Iterator[tuple[int, Trace, FastPassPlan]]:
        base = 0
        last_line: int | None = None
        for chunk in chunks:
            if base + len(chunk) > self.length:
                raise ValueError(f"{self.name} served more than "
                                 f"{self.length} instructions")
            plan = FastPassPlan(chunk, self.config, last_line, base)
            yield base, chunk, plan
            base += len(chunk)
            last_line = plan.last_line
        if base != self.length:
            raise ValueError(f"{self.name} served {base} of {self.length} "
                             "instructions")

    def _sweeps(self, into: PrivateSweep | None = None
                ) -> Iterator[tuple[int, Trace, PrivateSweep]]:
        """One pass's L1 and branch sweeps, chunk by chunk, each into a
        fresh :class:`PrivateSweep` or all into ``into``."""
        for base, chunk, plan in self._plans():
            sweep = PrivateSweep() if into is None else into
            sweep_l1(plan, self.hierarchy, sweep)
            sweep_branches(plan, self.config, self.predictor, sweep)
            yield base, chunk, sweep

    def private_pass(self) -> PrivateSweep:
        """One pass's L1 and branch sweeps, every chunk's references
        gathered in program order for a later L2 replay."""
        sweep = PrivateSweep()
        for _ in self._sweeps(sweep):
            pass
        return sweep

    def run(self, annotate: bool = False
            ) -> Iterator[tuple[int, Trace, PassTallies]]:
        """The configured warm-up passes, then ``(base, chunk, tallies)``
        for each chunk of the recording pass.

        Mutates the cache and predictor state exactly as the reference
        pass does, and the L2's and the predictor's statistics (the
        private L1 and per-stream counters, which nothing reads after a
        pass, are left alone).  A streamed warm-up pass runs in a
        ``frontend.warmup`` span.
        """
        l2 = self.hierarchy.l2
        for warmup in range(max(0, self.config.warmup_passes)):
            with (nullcontext() if self._materialized else
                  _spans.span("frontend.warmup", workload=self.name,
                              warmup_pass=warmup)):
                for _, _, sweep in self._sweeps():
                    sweep_l2(l2, sweep.l2_set, sweep.l2_tag)
        for base, chunk, sweep in self._sweeps():
            hits = sweep_l2(l2, sweep.l2_set, sweep.l2_tag)
            yield base, chunk, settle_pass(sweep, hits, len(chunk),
                                           self.config, annotate, base)
