"""Delivery: one coalescing update queue per subscriber.

A push system must decide what happens when a subscriber consumes slower
than the index mutates.  A subscription holds at most one pending update
per standing query, always the *latest*: a new update for a query
already queued replaces it (updates carry full result snapshots, not
diffs, so the older one is redundant), so a slow subscriber skips
intermediate states and never falls behind by more than one snapshot
per query.  That is also the queue's bound: it never holds more updates
than its subscriber has standing queries, so nothing is ever evicted.

Updates carry the index epoch and (on durable targets) the WAL LSN they
correspond to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.model.results import ScoredDoc

__all__ = ["ResultUpdate", "StreamSubscription"]

# Offer outcomes (also the metric suffixes the service counts).
QUEUED = "queued"
COALESCED = "coalesced"
DROPPED = "dropped"


@dataclass(frozen=True, slots=True)
class ResultUpdate:
    """One incremental notification for one standing query.

    Attributes:
        query_id: The standing query this update belongs to.
        kind: ``"snapshot"`` (registration / resume seed) or
            ``"update"`` (incremental change).
        epoch: Index mutation epoch the results correspond to.
        lsn: WAL LSN the results correspond to (``None`` on non-durable
            targets).
        seq: Per-subscription monotone sequence number.
        results: The query's full current top-k, best first.  Full
            snapshots (not diffs) make updates trivially coalescable.
    """

    query_id: int
    kind: str
    epoch: int
    lsn: Optional[int]
    seq: int
    results: Tuple[ScoredDoc, ...]


class StreamSubscription:
    """A coalescing, thread-safe update queue for one subscriber.

    Producers (the mutating thread, via the streaming service) call
    :meth:`offer`; the subscriber calls :meth:`poll` — from any thread,
    no index or service lock required.
    """

    def __init__(self, subscriber_id: str) -> None:
        self.subscriber_id = subscriber_id
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._pending: "OrderedDict[int, ResultUpdate]" = OrderedDict()
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def offer(self, update: ResultUpdate) -> str:
        """Enqueue one update; returns what happened to it.

        ``"queued"`` — appended; ``"coalesced"`` — replaced a pending
        update of the same query (and moved to the back, as the newest);
        ``"dropped"`` — the subscription is closed.
        """
        with self._lock:
            if self._closed:
                return DROPPED
            self._seq += 1
            outcome = QUEUED
            if self._pending.pop(update.query_id, None) is not None:
                outcome = COALESCED
            self._pending[update.query_id] = replace(update, seq=self._seq)
            self._ready.notify_all()
            return outcome

    # ------------------------------------------------------------------
    # Subscriber side
    # ------------------------------------------------------------------
    def poll(
        self,
        max_items: Optional[int] = None,
        timeout: Optional[float] = 0.0,
    ) -> List[ResultUpdate]:
        """Take pending updates, oldest first.

        ``timeout`` bounds how long to wait for the first update
        (``0.0`` = non-blocking, ``None`` = wait until one arrives or
        the subscription closes).  Returns an empty list on timeout or
        when closed with nothing pending.
        """
        with self._lock:
            if timeout != 0.0:
                self._ready.wait_for(
                    lambda: len(self._pending) > 0 or self._closed,
                    timeout=timeout,
                )
            taken: List[ResultUpdate] = []
            limit = max_items if max_items is not None else len(self._pending)
            while len(taken) < limit and self._pending:
                taken.append(self._pending.popitem(last=False)[1])
            return taken

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending updates not yet polled."""
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting updates and wake any blocked poller."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()
