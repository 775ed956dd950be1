"""Two-level cache hierarchy with the paper's miss taxonomy.

The first-order model classifies every reference into three outcomes
(§4.3): an L1 hit, a *short* miss (L1 miss that hits in the unified L2 —
modelled as a long-latency functional unit), or a *long* miss (L2 miss —
a retirement-blocking miss-event with delay ΔD).  Instruction fetches use
the same classification: a short instruction miss stalls fetch for ΔI
cycles, a long one for ΔD.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config import HierarchySpec
from repro.memory.cache import Cache


class AccessOutcome(enum.Enum):
    """Where a reference was satisfied."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"      #: short miss in the paper's terminology
    MEMORY = "memory"      #: long miss

    @property
    def is_short_miss(self) -> bool:
        return self is AccessOutcome.L2_HIT

    @property
    def is_long_miss(self) -> bool:
        return self is AccessOutcome.MEMORY


@dataclass
class HierarchyStats:
    """Per-stream outcome counters."""

    l1_hits: int = 0
    short_misses: int = 0
    long_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.l1_hits + self.short_misses + self.long_misses

    def record(self, outcome: AccessOutcome) -> None:
        if outcome is AccessOutcome.L1_HIT:
            self.l1_hits += 1
        elif outcome is AccessOutcome.L2_HIT:
            self.short_misses += 1
        else:
            self.long_misses += 1


class CacheHierarchy:
    """Split L1I/L1D over a unified L2, per the paper's baseline.

    The hierarchy is purely functional; it reports outcomes and leaves all
    timing to its callers.  Ideal L1s (``config.ideal_icache`` /
    ``ideal_dcache``) always report :attr:`AccessOutcome.L1_HIT` without
    touching cache state, matching the paper's "everything ideal except…"
    configurations.

    ``shared_l2`` injects an externally-owned L2 :class:`Cache` instead of
    building a private one — the multi-programmed co-run substrate
    (:mod:`repro.corun`) gives each workload its own hierarchy (private
    L1s, private statistics) over one shared L2 object, so contention is
    modeled purely through cache state while every per-workload counter
    stays attributable.  The injected cache must match ``config.l2``'s
    geometry; its statistics aggregate across all sharers.
    """

    def __init__(self, config: HierarchySpec | None = None,
                 shared_l2: Cache | None = None):
        self.config = config or HierarchySpec()
        self.l1i = Cache(self.config.l1i, "L1I")
        self.l1d = Cache(self.config.l1d, "L1D")
        if shared_l2 is not None and shared_l2.geometry != self.config.l2:
            raise ValueError(
                f"shared L2 geometry {shared_l2.geometry} does not match "
                f"the hierarchy's l2 config {self.config.l2}"
            )
        self.l2 = shared_l2 if shared_l2 is not None else Cache(
            self.config.l2, "L2")
        #: whether :attr:`l2` is owned by someone else (co-run sharing)
        self.l2_shared = shared_l2 is not None
        self.istats = HierarchyStats()
        self.dstats = HierarchyStats()

    # -- lookups ----------------------------------------------------------

    def access_instruction(self, pc: int) -> AccessOutcome:
        """Instruction fetch of the line containing ``pc``."""
        if self.config.ideal_icache:
            self.istats.record(AccessOutcome.L1_HIT)
            return AccessOutcome.L1_HIT
        outcome = self._access(self.l1i, pc)
        self.istats.record(outcome)
        return outcome

    def access_data(self, addr: int) -> AccessOutcome:
        """Load/store reference to ``addr``."""
        if self.config.ideal_dcache:
            self.dstats.record(AccessOutcome.L1_HIT)
            return AccessOutcome.L1_HIT
        outcome = self._access(self.l1d, addr)
        self.dstats.record(outcome)
        return outcome

    def _access(self, l1: Cache, addr: int) -> AccessOutcome:
        if l1.access(addr):
            return AccessOutcome.L1_HIT
        if self.l2.access(addr):
            return AccessOutcome.L2_HIT
        return AccessOutcome.MEMORY

    # -- timing helpers -----------------------------------------------------

    def data_latency(self, outcome: AccessOutcome, l1_latency: int) -> int:
        """Total load-to-use latency for a data reference."""
        if outcome is AccessOutcome.L1_HIT:
            return l1_latency
        if outcome is AccessOutcome.L2_HIT:
            return l1_latency + self.config.l2_latency
        return l1_latency + self.config.memory_latency

    def fetch_stall(self, outcome: AccessOutcome) -> int:
        """Extra front-end stall cycles for an instruction fetch."""
        if outcome is AccessOutcome.L1_HIT:
            return 0
        if outcome is AccessOutcome.L2_HIT:
            return self.config.l2_latency
        return self.config.memory_latency

    def reset(self) -> None:
        """Invalidate all caches and zero all statistics."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.flush()
            cache.stats.reset()
        self.istats = HierarchyStats()
        self.dstats = HierarchyStats()
