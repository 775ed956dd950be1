"""Functional trace-driven miss-event collection.

This is the paper's "simple trace driven simulations of caches and branch
predictors" (§7): one in-order pass over the trace touching the I-cache
(at line granularity), the D-cache (loads and stores) and the branch
predictor, recording where the miss-events fall.  No timing is simulated.

Functional warming
------------------
The paper's traces are long enough that cold-start misses are noise.  Our
synthetic traces are short, so by default the collector makes one
non-recording *warm-up* pass over the trace (caches and predictor keep
their state, statistics are discarded) before the recording pass — the
same functional-warming idea used by sampled simulators such as SMARTS.
The detailed simulator applies identical warming so that model inputs and
reference measurements see the same memory/predictor state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.branch.gshare import GShare
from repro.branch.predictor import BranchPredictor
from repro.config import BASELINE, HierarchySpec, MachineSpec
from repro.memory.hierarchy import AccessOutcome, CacheHierarchy
from repro.frontend.events import EventAnnotations, MissEventProfile
from repro.frontend.fastpass import PassDriver
from repro.isa.opclass import OpClass
from repro.trace.analysis import analyze_trace
from repro.trace.trace import Trace

#: factory signature for fresh predictors
PredictorFactory = Callable[[], BranchPredictor]

#: the kernels :class:`MissEventCollector` and
#: :class:`~repro.simulator.processor.DetailedSimulator` accept: "fast",
#: the default, and "reference", the direct transcription of the
#: semantics that the fast kernel is tested against
ENGINES = ("fast", "reference")


def check_engine(engine: str) -> str:
    """``engine`` if it names a kernel in :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         f"{ENGINES}")
    return engine


@dataclass(frozen=True)
class CollectorConfig:
    """The functional pass's view of a machine.

    :meth:`of` derives it from a :class:`~repro.config.MachineSpec`; the
    fields stay open so tests can inject predictors outside the registry.
    Frozen and hashable, so it keys the per-trace profile memo
    (:meth:`repro.core.model.FirstOrderModel.profile`).

    Attributes:
        hierarchy: cache-hierarchy configuration (geometry + ideal flags).
        predictor_factory: builds the direction predictor; defaults to the
            paper's 8K gShare.
        warmup_passes: non-recording passes over the trace before
            measurement (0 disables functional warming).
        ideal_predictor: when True, no branch ever mispredicts (the
            paper's ideal-predictor configurations).
    """

    hierarchy: HierarchySpec = HierarchySpec()
    predictor_factory: PredictorFactory = GShare
    warmup_passes: int = 1
    ideal_predictor: bool = False

    @classmethod
    def of(cls, machine: MachineSpec,
           warmup_passes: int = 1) -> "CollectorConfig":
        """What the functional pass needs of ``machine``."""
        return CollectorConfig(
            hierarchy=machine.hierarchy,
            predictor_factory=machine.predictor_factory,
            warmup_passes=warmup_passes,
            ideal_predictor=machine.ideal_predictor,
        )


class MissEventCollector:
    """Runs the functional pass and produces a :class:`MissEventProfile`.

    Two interchangeable engines produce bit-identical profiles and cache
    states: the *reference* pass below walks the trace one
    instruction at a time, the *fast* pass
    (:mod:`repro.frontend.fastpass`) sweeps precomputed index arrays.
    The fast pass is the default; the reference pass is the test oracle.
    """

    def __init__(self, config: CollectorConfig | None = None,
                 engine: str = "fast"):
        self.config = config or CollectorConfig.of(BASELINE)
        self.engine = check_engine(engine)

    def collect(self, trace: Trace, annotate: bool = False) -> MissEventProfile:
        """Measure ``trace`` and return its miss-event profile.

        With ``annotate=True`` the profile additionally carries
        per-instruction :class:`EventAnnotations` for the detailed
        simulator.
        """
        if len(trace) == 0:
            raise ValueError("cannot collect events from an empty trace")
        cfg = self.config
        hierarchy = CacheHierarchy(cfg.hierarchy)
        predictor = cfg.predictor_factory()

        if self.engine == "fast":
            (_, _, tallies), = PassDriver(trace, cfg, hierarchy,
                                          predictor).run(annotate)
            return tallies.profile(trace.name, len(trace),
                                   analyze_trace(trace))

        for _ in range(max(0, cfg.warmup_passes)):
            self._pass_reference(trace, hierarchy, predictor, record=False)
        result = self._pass_reference(trace, hierarchy, predictor, record=True,
                                      annotate=annotate)
        return result

    # -- internals ----------------------------------------------------------

    def _pass_reference(
        self,
        trace: Trace,
        hierarchy: CacheHierarchy,
        predictor: BranchPredictor,
        record: bool,
        annotate: bool = False,
    ) -> MissEventProfile | None:
        cfg = self.config
        line = hierarchy.config.l1i.line_bytes
        l2_lat = hierarchy.config.l2_latency
        mem_lat = hierarchy.config.memory_latency

        n = len(trace)
        if annotate:
            ann_fetch = np.zeros(n, dtype=np.int32)
            ann_load = np.zeros(n, dtype=np.int32)
            ann_long = np.zeros(n, dtype=np.bool_)
            ann_misp = np.zeros(n, dtype=np.bool_)

        branch_count = 0
        misp_count = 0
        misp_indices: list[int] = []
        fetch_accesses = 0
        icache_short = 0
        icache_long = 0
        load_count = 0
        d_short = 0
        d_long = 0
        long_indices: list[int] = []

        pcs = trace.pc.tolist()
        ops = trace.opclass.tolist()
        addrs = trace.addr.tolist()
        takens = trace.taken.tolist()
        LOAD = int(OpClass.LOAD)
        STORE = int(OpClass.STORE)
        BRANCH = int(OpClass.BRANCH)

        last_line = -1
        for k in range(len(trace)):
            pc = pcs[k]
            fetch_line = pc // line
            if fetch_line != last_line:
                last_line = fetch_line
                fetch_accesses += 1
                outcome = hierarchy.access_instruction(pc)
                if outcome is AccessOutcome.L2_HIT:
                    icache_short += 1
                    if annotate:
                        ann_fetch[k] = l2_lat
                elif outcome is AccessOutcome.MEMORY:
                    icache_long += 1
                    if annotate:
                        ann_fetch[k] = mem_lat

            op = ops[k]
            if op == LOAD:
                load_count += 1
                outcome = hierarchy.access_data(addrs[k])
                if outcome is AccessOutcome.L2_HIT:
                    d_short += 1
                    if annotate:
                        ann_load[k] = l2_lat
                elif outcome is AccessOutcome.MEMORY:
                    d_long += 1
                    long_indices.append(k)
                    if annotate:
                        ann_load[k] = mem_lat
                        ann_long[k] = True
            elif op == STORE:
                # stores touch cache state but never produce miss-events
                # (drained through a write buffer, paper's implicit model)
                hierarchy.access_data(addrs[k])
            elif op == BRANCH:
                branch_count += 1
                if cfg.ideal_predictor:
                    correct = True
                else:
                    correct = predictor.observe(pc, bool(takens[k]))
                if not correct:
                    misp_count += 1
                    misp_indices.append(k)
                    if annotate:
                        ann_misp[k] = True

        if not record:
            return None
        annotations = None
        if annotate:
            annotations = EventAnnotations(
                fetch_stall=ann_fetch, load_extra=ann_load,
                long_miss=ann_long, mispredicted=ann_misp,
            )
        return MissEventProfile(
            name=trace.name,
            length=len(trace),
            branch_count=branch_count,
            misprediction_count=misp_count,
            misprediction_indices=np.array(misp_indices, dtype=np.int64),
            fetch_line_accesses=fetch_accesses,
            icache_short_count=icache_short,
            icache_long_count=icache_long,
            load_count=load_count,
            dcache_short_count=d_short,
            dcache_long_count=d_long,
            long_miss_indices=np.array(long_indices, dtype=np.int64),
            trace_stats=analyze_trace(trace),
            annotations=annotations,
        )


def collect_events(
    trace: Trace, config: CollectorConfig | None = None,
    engine: str = "fast",
) -> MissEventProfile:
    """Convenience wrapper around :class:`MissEventCollector`."""
    return MissEventCollector(config, engine=engine).collect(trace)
