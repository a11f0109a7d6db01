"""A keyed LRU cache for query results.

FAST (arXiv:1709.02529) shows that real spatio-textual workloads are
heavily skewed — a small set of hot (location, keywords) queries
dominates — which makes a result cache in front of the index the
cheapest capacity multiplier a serving tier has.  This module provides
that cache, with the correctness property indexes care about:

**invalidation on insert/delete.**  Every entry is stamped with the
index *epoch* (a counter the index bumps on every mutating operation,
see :attr:`repro.core.index.I3Index.epoch`).  A lookup whose stored
epoch differs from the current one is treated as a miss and the stale
entry dropped — results can never outlive the data they were computed
from, without the cache having to know what changed.

Thread-safety contract: all operations take the internal lock, and
nothing is computed under it — a caller that misses computes the
answer itself and stores it with :meth:`put` (two callers may race to
compute the same key; both get correct results and the last write
wins).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

__all__ = ["QueryResultCache"]


class QueryResultCache:
    """An epoch-validated, thread-safe LRU cache of query results.

    Attributes:
        capacity: Maximum number of cached results; must be positive.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def get(self, key: Hashable, epoch: int) -> Optional[Any]:
        """The cached result for ``key`` at ``epoch``, or ``None``.

        An entry stored under a different epoch is stale: it is dropped,
        counted as an invalidation, and the lookup reports a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            stored_epoch, value = entry
            if stored_epoch != epoch:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, epoch: int, value: Any) -> None:
        """Store ``value`` for ``key`` as computed at ``epoch``."""
        with self._lock:
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry (bulk invalidation, e.g. after a reload)."""
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Lookups that had to fall through to the index."""
        with self._lock:
            return self._misses

    @property
    def invalidations(self) -> int:
        """Entries dropped because their epoch went stale (plus bulk
        invalidations)."""
        with self._lock:
            return self._invalidations

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache so far."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """A consistent snapshot of the cache counters."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "hit_ratio": self._hits / total if total else 0.0,
            }
