"""Per-component I/O accounting.

The paper's evaluation reports I/O *counts* broken down by index
component — e.g. Figure 8/9 split I3 cost into head-file vs data-file
accesses, and IR-tree cost into tree-node vs inverted-file accesses.
Every page store in this library is tagged with a component name and
records its reads and writes here, so any experiment can ask "how many
head-file pages did that query touch?".

Thread-safety contract
----------------------
:class:`IOStats` is safe to share between concurrently executing
queries (the serving layer in :mod:`repro.service` does exactly that):
every counter mutation and every read of the counters happens under one
internal lock, and :meth:`snapshot` copies all counters *atomically* —
a snapshot taken while other threads record I/O is a consistent
point-in-time view, never a half-updated one.  Consequently
``IOSnapshot.__sub__`` over two snapshots is always well defined.

For per-query attribution under concurrency, a thread can register a
private *sink* with :meth:`tee`: while the context is active, every
read/write recorded *by that thread* is forwarded to the sink as well
as counted globally.  Other threads are unaffected.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["IOStats", "IOSnapshot"]


@dataclass(frozen=True, slots=True)
class IOSnapshot:
    """An immutable point-in-time copy of the counters.

    Subtracting two snapshots gives the I/O incurred between them, which
    is how the benchmark harness attributes cost to individual queries.
    Snapshots are produced atomically (see :meth:`IOStats.snapshot`), so
    the subtraction is meaningful even when the counters are mutated by
    other threads between the two snapshots.
    """

    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_reads(self) -> int:
        """Sum of page reads over all components."""
        return sum(self.reads.values())

    @property
    def total_writes(self) -> int:
        """Sum of page writes over all components."""
        return sum(self.writes.values())

    @property
    def total(self) -> int:
        """All I/O operations, reads plus writes."""
        return self.total_reads + self.total_writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        reads = Counter(self.reads)
        reads.subtract(other.reads)
        writes = Counter(self.writes)
        writes.subtract(other.writes)
        return IOSnapshot(
            reads={c: n for c, n in reads.items() if n},
            writes={c: n for c, n in writes.items() if n},
        )


class IOStats:
    """Mutable I/O counters keyed by component name.

    One instance is shared by all page stores of one index so that a
    single snapshot captures the index's whole I/O profile.  All methods
    are thread-safe (see the module docstring for the contract).
    """

    __slots__ = (
        "_lock",
        "_local",
        "_reads",
        "_writes",
        "_unique_reads",
        "_unique_writes",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reads: Counter[str] = Counter()
        self._writes: Counter[str] = Counter()
        self._unique_reads: Dict[str, set] = {}
        self._unique_writes: Dict[str, set] = {}

    def record_read(self, component: str, pages: int = 1, key=None) -> None:
        """Count ``pages`` page reads against ``component``.

        ``key`` identifies the page (or node/block) touched; it feeds the
        *unique-page* counters used by the update experiment, which
        models the paper's buffer-then-flush methodology (a page read
        twice within the window is one physical read).
        """
        with self._lock:
            self._reads[component] += pages
            if key is not None:
                self._unique_reads.setdefault(component, set()).add(key)
        sink = getattr(self._local, "sink", None)
        if sink is not None:
            sink.record_read(component, pages, key)

    def record_write(self, component: str, pages: int = 1, key=None) -> None:
        """Count ``pages`` page writes against ``component`` (see
        :meth:`record_read` for ``key``)."""
        with self._lock:
            self._writes[component] += pages
            if key is not None:
                self._unique_writes.setdefault(component, set()).add(key)
        sink = getattr(self._local, "sink", None)
        if sink is not None:
            sink.record_write(component, pages, key)

    def record_rewrite(self, component: str, pages: int = 1, key=None) -> None:
        """Count ``pages`` page reads *and* as many writes against
        ``component`` — an in-place page change — under one lock, with
        the same counters as :meth:`record_read` + :meth:`record_write`."""
        with self._lock:
            self._reads[component] += pages
            self._writes[component] += pages
            if key is not None:
                self._unique_reads.setdefault(component, set()).add(key)
                self._unique_writes.setdefault(component, set()).add(key)
        sink = getattr(self._local, "sink", None)
        if sink is not None:
            sink.record_rewrite(component, pages, key)

    # ------------------------------------------------------------------
    # Per-thread attribution
    # ------------------------------------------------------------------
    @contextmanager
    def tee(self, sink: "IOStats"):
        """Forward this thread's I/O to ``sink`` while the context is
        active.

        The serving layer uses this to attribute I/O to individual
        queries even when many run concurrently: each worker thread tees
        into a private sink (anything with the three ``record_*``
        methods) around one query.  Tees do not nest (entering replaces
        the previous sink) and never affect other threads.
        """
        if sink is self:
            raise ValueError("cannot tee an IOStats into itself")
        previous = getattr(self._local, "sink", None)
        self._local.sink = sink
        try:
            yield sink
        finally:
            self._local.sink = previous

    # ------------------------------------------------------------------
    # Unique-page window (buffered-update model)
    # ------------------------------------------------------------------
    def reset_unique(self) -> None:
        """Start a fresh unique-page window (the paper's "execute the
        operations ... and finally flush the update back to disk")."""
        with self._lock:
            self._unique_reads.clear()
            self._unique_writes.clear()

    def unique_reads(self, component: Optional[str] = None) -> int:
        """Distinct pages read since the window started."""
        with self._lock:
            if component is None:
                return sum(len(s) for s in self._unique_reads.values())
            return len(self._unique_reads.get(component, ()))

    def unique_writes(self, component: Optional[str] = None) -> int:
        """Distinct pages written since the window started — the pages a
        final flush would put on disk."""
        with self._lock:
            if component is None:
                return sum(len(s) for s in self._unique_writes.values())
            return len(self._unique_writes.get(component, ()))

    def unique_total(self) -> int:
        """Distinct pages touched (read or written) since the window."""
        return self.unique_reads() + self.unique_writes()

    def reads(self, component: Optional[str] = None) -> int:
        """Reads for one component, or all components if ``None``."""
        with self._lock:
            if component is None:
                return sum(self._reads.values())
            return self._reads[component]

    def writes(self, component: Optional[str] = None) -> int:
        """Writes for one component, or all components if ``None``."""
        with self._lock:
            if component is None:
                return sum(self._writes.values())
            return self._writes[component]

    def total(self) -> int:
        """All I/O operations so far."""
        with self._lock:
            return sum(self._reads.values()) + sum(self._writes.values())

    def reset(self) -> None:
        """Zero every counter, including the unique-page window."""
        with self._lock:
            self._reads.clear()
            self._writes.clear()
            self._unique_reads.clear()
            self._unique_writes.clear()

    def snapshot(self) -> IOSnapshot:
        """Immutable copy of the current counters, taken atomically."""
        with self._lock:
            return IOSnapshot(reads=dict(self._reads), writes=dict(self._writes))
