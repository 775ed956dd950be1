"""Set-associative cache with true-LRU replacement.

This is the functional cache the paper's "simple trace driven simulations
of caches" (§7) rely on: it models hit/miss state only — no timing, no
MSHRs, no bandwidth.  Timing consequences of misses are the business of
the analytical model and of the detailed simulator, both of which consume
this cache's hit/miss answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CacheSpec


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.misses = 0


class Cache:
    """One level of set-associative cache with LRU replacement.

    Each set is a list of tags ordered most-recently-used first; with the
    small associativities used here (4-way baseline) list operations are
    cheap and the ordering doubles as the LRU state.
    """

    def __init__(self, geometry: CacheSpec, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        self._sets: list[list[int]] = [[] for _ in range(geometry.num_sets)]

    def access(self, addr: int) -> bool:
        """Reference ``addr``; returns True on hit.  Misses allocate
        (write-allocate for stores; the functional model does not
        distinguish reads from writes)."""
        self.stats.accesses += 1
        g = self.geometry
        tags = self._sets[g.set_index(addr)]
        tag = g.tag(addr)
        try:
            tags.remove(tag)
        except ValueError:
            self.stats.misses += 1
            tags.insert(0, tag)
            if len(tags) > g.associativity:
                tags.pop()
            return False
        tags.insert(0, tag)
        return True

    def probe(self, addr: int) -> bool:
        """Non-destructive lookup: True if ``addr`` is resident."""
        g = self.geometry
        return g.tag(addr) in self._sets[g.set_index(addr)]

    def touch(self, addr: int) -> None:
        """Install ``addr`` without counting an access (used to warm up)."""
        g = self.geometry
        tags = self._sets[g.set_index(addr)]
        tag = g.tag(addr)
        if tag in tags:
            tags.remove(tag)
        tags.insert(0, tag)
        if len(tags) > g.associativity:
            tags.pop()

    def flush(self) -> None:
        """Invalidate all lines (statistics are preserved)."""
        for s in self._sets:
            s.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"Cache({self.name!r}, {g.size_bytes}B, {g.associativity}-way, "
            f"{g.line_bytes}B lines)"
        )
