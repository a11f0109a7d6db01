"""An LRU buffer pool in front of a :class:`~repro.storage.pager.PageFile`.

The paper clears the system cache before each query set so that reported
query I/O is cold; within a query set, repeated accesses to hot pages are
absorbed by the cache.  :class:`BufferPool` reproduces that behaviour: it
exposes the same read/write/allocate interface as a page file, satisfies
hits from memory (a *logical* access, not counted against the disk), and
only forwards misses and dirty evictions to the underlying file (the
*physical* I/O that experiments report).  :meth:`clear` is the
"clear the system cache" step between query sets.

Thread-safety contract
----------------------
One :class:`BufferPool` may be shared by any number of concurrently
executing queries (a :mod:`repro.service` lane, the cluster router's
out-of-band reads and library callers of ``index.query`` all reach the
one pool of their index).  Every operation — reads, writes,
allocation, eviction, flush, clear — runs under one internal lock, so:

* the LRU structure and the dirty set never see interleaved updates;
* the counters ``logical_reads``, ``misses`` and ``logical_writes``
  are mutated atomically with the cache operation they describe, so the
  invariant ``hits + misses == logical_reads`` holds at every instant;
* :meth:`counters` returns a mutually consistent snapshot of all three,
  and :attr:`hit_ratio` is computed from such a snapshot (never from a
  half-updated pair).

The lock serialises page access; concurrency is between queries, not
within one page operation — the same granularity a latch on a real
buffer pool provides.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple, Set

from repro.storage.pager import PageFile

__all__ = ["BufferPool", "BufferCounters"]


class BufferCounters(NamedTuple):
    """A mutually consistent snapshot of the pool's counters.

    ``evictions`` counts pages dropped to make room (clean or dirty);
    ``writebacks`` counts dirty pages pushed to disk, whether by an
    eviction or an explicit :meth:`BufferPool.flush` — together they are
    the eviction-pressure signal the serving snapshot reports.
    """

    logical_reads: int
    misses: int
    logical_writes: int
    evictions: int
    writebacks: int


class BufferPool:
    """A write-back LRU page cache.

    Attributes:
        file: The backing page file (the simulated disk).
        capacity: Maximum number of cached pages; must be positive.
    """

    __slots__ = (
        "file",
        "capacity",
        "_cache",
        "_dirty",
        "_lock",
        "logical_reads",
        "logical_writes",
        "misses",
        "fill_reads",
        "evictions",
        "writebacks",
    )

    def __init__(self, file: PageFile, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.file = file
        self.capacity = capacity
        self._cache: "OrderedDict[int, bytearray]" = OrderedDict()
        self._dirty: Set[int] = set()
        self._lock = threading.RLock()
        self.logical_reads = 0
        self.logical_writes = 0
        self.misses = 0
        self.fill_reads = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # PageFile-compatible interface
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Page size of the backing file."""
        return self.file.page_size

    @property
    def num_pages(self) -> int:
        """Number of pages allocated in the backing file."""
        return self.file.num_pages

    @property
    def size_bytes(self) -> int:
        """On-disk size of the backing file."""
        return self.file.size_bytes

    def allocate(self) -> int:
        """Allocate a page in the backing file and cache it as clean."""
        with self._lock:
            page_id = self.file.allocate()
            self._install(page_id, bytearray(self.file.page_size))
            return page_id

    def read(self, page_id: int) -> bytes:
        """Read a page, from cache if possible (miss costs one disk read)."""
        with self._lock:
            self.logical_reads += 1
            cached = self._cache.get(page_id)
            if cached is not None:
                self._cache.move_to_end(page_id)
                return bytes(cached)
            self.misses += 1
            data = bytearray(self.file.read(page_id))
            self._install(page_id, data)
            return bytes(data)

    def write(self, page_id: int, data: bytes) -> None:
        """Write a page into the cache; it reaches disk on evict/flush.

        A write shorter than the page size is a *partial* page write: the
        remaining tail bytes keep their current on-page value.  When the
        page is not cached this requires a read-modify-write — one disk
        read (counted as ``fill_reads``, not as a cache miss) to fetch
        the existing image before patching the prefix.  Callers that
        always write full pages never pay it.
        """
        if len(data) > self.file.page_size:
            raise ValueError(
                f"data of {len(data)} bytes exceeds page size {self.file.page_size}"
            )
        with self._lock:
            self.logical_writes += 1
            if len(data) == self.file.page_size:
                page = bytearray(data)
            else:
                cached = self._cache.get(page_id)
                if cached is not None:
                    page = cached
                else:
                    self.fill_reads += 1
                    page = bytearray(self.file.read(page_id))
                page[: len(data)] = data
            self._install(page_id, page)
            self._dirty.add(page_id)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _install(self, page_id: int, data: bytearray) -> None:
        if page_id in self._cache:
            self._cache[page_id] = data
            self._cache.move_to_end(page_id)
            return
        while len(self._cache) >= self.capacity:
            self._evict_lru()
        self._cache[page_id] = data

    def _evict_lru(self) -> None:
        victim, data = self._cache.popitem(last=False)
        self.evictions += 1
        if victim in self._dirty:
            self.file.write(victim, bytes(data))
            self._dirty.discard(victim)
            self.writebacks += 1

    def flush(self) -> None:
        """Write every dirty cached page back to disk (stays cached)."""
        with self._lock:
            for page_id in sorted(self._dirty):
                self.file.write(page_id, bytes(self._cache[page_id]))
                self.writebacks += 1
            self._dirty.clear()

    def clear(self) -> None:
        """Flush then drop the whole cache — the paper's pre-query-set
        "clear the system cache" step, making subsequent reads cold."""
        with self._lock:
            self.flush()
            self._cache.clear()

    @property
    def cached_pages(self) -> int:
        """Number of pages currently held in the cache."""
        with self._lock:
            return len(self._cache)

    def counters(self) -> BufferCounters:
        """A :class:`BufferCounters` snapshot, taken atomically with
        respect to cache operations."""
        with self._lock:
            return BufferCounters(
                self.logical_reads,
                self.misses,
                self.logical_writes,
                self.evictions,
                self.writebacks,
            )

    @property
    def hits(self) -> int:
        """Logical reads served from the cache so far."""
        with self._lock:
            return self.logical_reads - self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of logical reads served without disk I/O so far."""
        snap = self.counters()
        if snap.logical_reads == 0:
            return 0.0
        return 1.0 - snap.misses / snap.logical_reads
