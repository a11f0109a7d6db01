"""The streaming service: standing queries, live maintenance, delivery.

This is the façade tying the subsystem together.  A
:class:`StreamingService` hangs off one served target — a
:class:`~repro.service.QueryService` or a
:class:`~repro.cluster.ClusterService`, whose ``streams()`` builds it —
and from then on:

1. clients :meth:`subscribe` and :meth:`register` standing top-k
   queries (per-query ``k``, ``alpha`` and semantics); registration
   runs the query once and delivers the initial snapshot;
2. every mutation of the target flows through the
   :class:`~repro.streaming.registry.QueryRegistry` and
   :class:`~repro.streaming.matcher.IncrementalMatcher`, and each
   standing query whose top-k actually changed produces one
   epoch/LSN-stamped :class:`~repro.streaming.delivery.ResultUpdate`
   on its owner's coalescing subscription queue;
3. a disconnected subscriber reconnects with :meth:`resume`, which
   re-registers its standing queries under their old ids and re-runs
   each one against the live target.

The stream asks nothing about what kind of target it serves.  The
target hands it what it needs: its data space and metrics, an
``answer(query, ranker)`` giving the exact top-k (raising a
:class:`~repro.service.errors.ServiceError` when it cannot), the
``ranker(alpha)`` a standing query scores with (raising ``ValueError``
for an alpha the target cannot rank with), the ``stamp()`` an update
carries — ``(epoch, lsn)`` — and ``exclusive(fn)``, which runs ``fn``
with the target's writes held off.  The target feeds mutations in
through :attr:`matcher` from inside that same exclusive section: a
single index by its mutation listener (:meth:`rebind`), a cluster after
each write has landed.  So standing-query maintenance is serialised
with writes exactly like queries are; :meth:`StreamSubscription.poll`
needs no lock at all.  ``stream.*`` metrics land in the target's
:class:`~repro.service.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc
from repro.model.scoring import Ranker
from repro.service.metrics import MetricsRegistry
from repro.spatial.geometry import Rect
from repro.streaming.delivery import ResultUpdate, StreamSubscription
from repro.streaming.matcher import IncrementalMatcher
from repro.streaming.registry import QueryRegistry, StandingQuery

__all__ = ["StreamingService"]


class StreamingService:
    """Continuous top-k queries over one served target."""

    def __init__(
        self,
        space: Rect,
        metrics: MetricsRegistry,
        answer: Callable[[TopKQuery, Ranker], List[ScoredDoc]],
        ranker: Callable[[float], Ranker],
        stamp: Callable[[], Tuple[int, Optional[int]]],
        exclusive: Callable[[Callable], object],
    ) -> None:
        self.metrics = metrics
        self._ranker = ranker
        self._stamp = stamp
        self._exclusive = exclusive
        self.registry = QueryRegistry(space)
        self.matcher = IncrementalMatcher(
            answer, self.registry, metrics=metrics,
            emit=lambda sq: self._notify(sq, "update"),
        )
        self.index = None  # the index whose listener feeds us (rebind)
        self._subs: Dict[str, StreamSubscription] = {}
        self._next_query_id = 1
        self._next_subscriber = 1
        self._closed = False

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _notify(self, sq: StandingQuery, kind: str) -> None:
        sub = self._subs.get(sq.subscriber_id)
        if sub is None:
            return
        epoch, lsn = self._stamp()
        outcome = sub.offer(
            ResultUpdate(
                query_id=sq.query_id,
                kind=kind,
                epoch=epoch,
                lsn=lsn,
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
        return self._exclusive(lambda: self._attach(sub))

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
            for sq in self.registry.queries():
                if sq.subscriber_id == subscription.subscriber_id:
                    self._remove(sq.query_id)
            self.metrics.gauge("stream.subscriptions").set(len(self._subs))

        self._exclusive(do)

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def register(
        self,
        subscription: StreamSubscription,
        query: TopKQuery,
        alpha: float = 0.5,
    ) -> int:
        """Register a standing query; delivers its initial snapshot.

        Returns the query id (use it to :meth:`unregister` and to match
        incoming :class:`~repro.streaming.delivery.ResultUpdate`\\ s).
        Raises whatever the target's answer raises when it cannot seed
        the query exactly; nothing is registered then.
        """
        if self._closed:
            raise ValueError("streaming service is closed")
        ranker = self._ranker(alpha)

        def do() -> int:
            query_id = self._next_query_id
            self._start(
                StandingQuery(query_id, query, ranker, subscription.subscriber_id)
            )
            self.metrics.counter("stream.registered").inc()
            return query_id

        return self._exclusive(do)

    def _start(self, sq: StandingQuery) -> None:
        """Seed ``sq`` from the live target, index it, deliver its
        snapshot.  Runs in the exclusive section, so no write lands
        between the seed and the registry add."""
        sq.seed(self.matcher.answer(sq.query, sq.ranker))
        self.registry.add(sq)
        self._next_query_id = max(self._next_query_id, sq.query_id + 1)
        self.metrics.gauge("stream.standing_queries").set(len(self.registry))
        self._notify(sq, "snapshot")

    def _remove(self, query_id: int) -> bool:
        self.matcher.forget(query_id)
        removed = self.registry.remove(query_id)
        self.metrics.gauge("stream.standing_queries").set(len(self.registry))
        return removed is not None

    def unregister(self, query_id: int) -> bool:
        """Remove a standing query; True if it was registered."""
        return self._exclusive(lambda: self._remove(query_id))

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
        and seeded by one answer of the live target, so the subscriber's
        first updates are ``"snapshot"``\\ s stamped with the live epoch
        and LSN — exact whatever it missed while away.
        """
        if self._closed:
            raise ValueError("streaming service is closed")
        sub = StreamSubscription(subscriber_id)
        rankers = {qid: self._ranker(alpha) for qid, (_q, alpha) in queries.items()}

        def do() -> None:
            self._attach(sub)
            for query_id, (query, _alpha) in queries.items():
                self._remove(query_id)
                self._start(
                    StandingQuery(query_id, query, rankers[query_id], subscriber_id)
                )
                self.metrics.counter("stream.resume_requeries").inc()

        self._exclusive(do)
        return sub

    # ------------------------------------------------------------------
    # Index swap
    # ------------------------------------------------------------------
    def rebind(self, index) -> None:
        """Listen to ``index``'s mutation events from now on.

        A :class:`~repro.service.QueryService` calls this in its
        exclusive section when it builds the stream and after every
        mutation and recovery; a no-op unless the served instance was
        swapped (recovery, a database's ``reweigh``) under an open
        stream.  Every standing query is then re-run against the new
        index and subscribers are notified of any resulting changes.
        """
        if index is self.index or self._closed:
            return
        if self.index is not None:
            self.index.remove_mutation_listener(self.matcher.handle)
        self.index = index
        index.add_mutation_listener(self.matcher.handle)
        self.matcher.refresh_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the index and close every subscription."""
        if self._closed:
            return
        self._closed = True
        if self.index is not None:
            self.index.remove_mutation_listener(self.matcher.handle)
        for sub in self._subs.values():
            sub.close()

    @property
    def closed(self) -> bool:
        return self._closed
