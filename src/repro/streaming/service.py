"""The streaming service: standing queries, live maintenance, delivery.

This is the façade tying the subsystem together.  A
:class:`StreamingService` hangs off one
:class:`~repro.service.QueryService` —
:meth:`~repro.service.QueryService.streams` builds it — and from then
on:

1. clients :meth:`subscribe` and :meth:`register` standing top-k
   queries (per-query ``k``, ``alpha`` and semantics); registration
   runs the query once and delivers the initial snapshot;
2. every mutation of the served index flows through the
   :class:`~repro.streaming.registry.QueryRegistry` and
   :class:`~repro.streaming.matcher.IncrementalMatcher`, and each
   standing query whose top-k actually changed produces one
   epoch/LSN-stamped :class:`~repro.streaming.delivery.ResultUpdate`
   on its owner's coalescing subscription queue;
3. a disconnected subscriber reconnects with :meth:`resume`, which
   re-registers its standing queries under their old ids and re-runs
   each one against the live index.

All registry/collector mutations run under the service's exclusive
lock (mutation events already fire inside it), so standing-query
maintenance is serialised with writes exactly like queries are;
:meth:`StreamSubscription.poll` needs no lock at all.  When the service
swaps the index it serves (:meth:`~repro.service.QueryService.recover`,
a database target's ``reweigh``) it moves the stream along with it
(:meth:`rebind`).  ``stream.*`` metrics land in the service's
:class:`~repro.service.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.index import MutationEvent
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.streaming.delivery import ResultUpdate, StreamSubscription
from repro.streaming.matcher import IncrementalMatcher
from repro.streaming.registry import QueryRegistry, StandingQuery

__all__ = ["StreamingService"]


class StreamingService:
    """Continuous top-k queries over the index a
    :class:`~repro.service.QueryService` serves."""

    def __init__(self, service) -> None:
        self._service = service
        self._index = service.index
        self.metrics = service.metrics
        self.registry = QueryRegistry(self._index.space)
        self.matcher = IncrementalMatcher(
            self._index, self.registry, metrics=self.metrics, emit=self._changed
        )
        self._subs: Dict[str, StreamSubscription] = {}
        self._owner: Dict[int, str] = {}
        self._next_query_id = 1
        self._next_subscriber = 1
        self._closed = False
        self._index.add_mutation_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # Target plumbing
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The index currently being observed."""
        return self._index

    def _with_write(self, fn):
        """Run ``fn`` exclusively with respect to index mutations.

        A closed service mutates nothing anymore, so running ``fn``
        directly is race-free there — that path lets teardown (e.g. a
        cluster router unregistering from a killed replica) proceed.
        """
        if not self._service.closed:
            return self._service.mutate(lambda _target: fn())
        return fn()

    def _on_mutation(self, event: MutationEvent) -> None:
        self.matcher.handle(event)

    def _changed(self, sq: StandingQuery) -> None:
        self._notify(sq, "update")

    def _notify(self, sq: StandingQuery, kind: str) -> None:
        sub = self._subs.get(sq.subscriber_id)
        if sub is None:
            return
        durable = self._service.durable
        outcome = sub.offer(
            ResultUpdate(
                query_id=sq.query_id,
                kind=kind,
                epoch=self._index.epoch,
                lsn=durable.last_lsn if durable is not None else None,
                seq=0,  # stamped by the subscription
                results=tuple(sq.results()),
            )
        )
        self.metrics.counter(f"stream.delivery.{outcome}").inc()

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, subscriber_id: Optional[str] = None) -> StreamSubscription:
        """Open a subscription (an id already in use replaces the old
        subscription, closing it)."""
        if self._closed:
            raise ValueError("streaming service is closed")
        if subscriber_id is None:
            subscriber_id = f"sub-{self._next_subscriber}"
            self._next_subscriber += 1
        sub = StreamSubscription(subscriber_id)
        return self._with_write(lambda: self._attach(sub))

    def _attach(self, sub: StreamSubscription) -> StreamSubscription:
        old = self._subs.get(sub.subscriber_id)
        if old is not None:
            old.close()
        self._subs[sub.subscriber_id] = sub
        self.metrics.gauge("stream.subscriptions").set(len(self._subs))
        return sub

    def unsubscribe(self, subscription: StreamSubscription) -> None:
        """Close a subscription and unregister its standing queries."""

        def do() -> None:
            subscription.close()
            if self._subs.get(subscription.subscriber_id) is subscription:
                del self._subs[subscription.subscriber_id]
            for query_id, owner in list(self._owner.items()):
                if owner == subscription.subscriber_id:
                    self.registry.remove(query_id)
                    del self._owner[query_id]
            self.metrics.gauge("stream.subscriptions").set(len(self._subs))
            self.metrics.gauge("stream.standing_queries").set(len(self.registry))

        self._with_write(do)

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def register(
        self,
        subscription: StreamSubscription,
        query: TopKQuery,
        alpha: float = 0.5,
        ranker: Optional[Ranker] = None,
    ) -> int:
        """Register a standing query; delivers its initial snapshot.

        Returns the query id (use it to :meth:`unregister` and to match
        incoming :class:`~repro.streaming.delivery.ResultUpdate`\\ s).
        """
        if self._closed:
            raise ValueError("streaming service is closed")
        resolved = ranker if ranker is not None else Ranker(self._index.space, alpha)

        def do() -> int:
            query_id = self._next_query_id
            self._start(
                StandingQuery(query_id, query, resolved, subscription.subscriber_id)
            )
            self.metrics.counter("stream.registered").inc()
            return query_id

        return self._with_write(do)

    def _start(self, sq: StandingQuery) -> None:
        """Seed ``sq`` from the live index, index it, deliver its
        snapshot.  Runs under the write lock, so it queries the index
        directly: going through the service's lane would deadlock."""
        sq.seed(self._index.query(sq.query, sq.ranker))
        self.registry.add(sq)
        self._owner[sq.query_id] = sq.subscriber_id
        self._next_query_id = max(self._next_query_id, sq.query_id + 1)
        self.metrics.gauge("stream.standing_queries").set(len(self.registry))
        self._notify(sq, "snapshot")

    def unregister(self, query_id: int) -> bool:
        """Remove a standing query; True if it was registered."""

        def do() -> bool:
            removed = self.registry.remove(query_id)
            self._owner.pop(query_id, None)
            self.metrics.gauge("stream.standing_queries").set(len(self.registry))
            return removed is not None

        return self._with_write(do)

    def results(self, query_id: int):
        """The standing query's current top-k (None if unregistered)."""
        sq = self.registry.get(query_id)
        return sq.results() if sq is not None else None

    # ------------------------------------------------------------------
    # Reconnect
    # ------------------------------------------------------------------
    def resume(
        self,
        subscriber_id: str,
        queries: Mapping[int, Tuple[TopKQuery, float]],
    ) -> StreamSubscription:
        """Reconnect a subscriber and re-run its standing queries.

        ``queries`` maps each query id the subscriber held to its
        ``(query, alpha)``.  Every one is re-registered under its old id
        and seeded by one query of the live index, so the subscriber's
        first updates are ``"snapshot"``\\ s stamped with the live epoch
        and LSN — exact whatever it missed while away.
        """
        if self._closed:
            raise ValueError("streaming service is closed")
        sub = StreamSubscription(subscriber_id)

        def do() -> None:
            self._attach(sub)
            for query_id, (query, alpha) in queries.items():
                self.registry.remove(query_id)
                self._start(
                    StandingQuery(
                        query_id, query, Ranker(self._index.space, alpha),
                        subscriber_id,
                    )
                )
                self.metrics.counter("stream.resume_requeries").inc()

        self._with_write(do)
        return sub

    # ------------------------------------------------------------------
    # Index swap
    # ------------------------------------------------------------------
    def rebind(self, index) -> None:
        """Follow the service onto the index it now serves.

        Called by the :class:`~repro.service.QueryService` under its
        write lock after every mutation and recovery; a no-op unless the
        served instance was swapped (recovery, a database's
        ``reweigh``) under an open stream.  Every standing query is then
        re-run against the new index and subscribers are notified of any
        resulting changes.
        """
        if index is self._index or self._closed:
            return
        self._index.remove_mutation_listener(self._on_mutation)
        self._index = index
        self.matcher.index = index
        index.add_mutation_listener(self._on_mutation)
        self.matcher.refresh_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the index and close every subscription."""
        if self._closed:
            return
        self._closed = True
        self._index.remove_mutation_listener(self._on_mutation)
        for sub in self._subs.values():
            sub.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "StreamingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
