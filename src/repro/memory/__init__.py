"""Cache hierarchy substrate: functional set-associative caches.

Provides the paper's baseline memory system — 4 KB 4-way split L1s and a
512 KB 4-way unified L2, 128-byte lines — with the short/long miss
classification the first-order model is built on.
"""

from repro.memory.cache import Cache, CacheStats
from repro.memory.hierarchy import AccessOutcome, CacheHierarchy, HierarchyStats

__all__ = [
    "Cache",
    "CacheStats",
    "AccessOutcome",
    "CacheHierarchy",
    "HierarchyStats",
]
