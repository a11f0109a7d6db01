"""The streaming service: standing queries, live maintenance, delivery.

This is the façade tying the subsystem together.  A
:class:`StreamingService` attaches to a target — a raw
:class:`~repro.core.index.I3Index`, a WAL-backed
:class:`~repro.core.recovery.DurableIndex`, or a whole
:class:`~repro.service.QueryService` — and from then on:

1. clients :meth:`subscribe` and :meth:`register` standing top-k
   queries (per-query ``k``, ``alpha`` and semantics); registration
   runs the query once and delivers the initial snapshot;
2. every index mutation flows through the
   :class:`~repro.streaming.registry.QueryRegistry` and
   :class:`~repro.streaming.matcher.IncrementalMatcher`, and each
   standing query whose top-k actually changed produces one
   epoch/LSN-stamped :class:`~repro.streaming.delivery.ResultUpdate`
   on its owner's bounded subscription queue;
3. a disconnected subscriber reconnects with :meth:`resume`, replaying
   the WAL tail after its last acknowledged LSN
   (:mod:`repro.streaming.tail`) instead of re-running every query —
   falling back to full re-queries only when a checkpoint truncated
   the needed history.

On a :class:`~repro.service.QueryService` target all registry/collector
mutations run under the service's exclusive lock (mutation events
already fire inside it), so standing-query maintenance is serialised
with writes exactly like queries are; :meth:`StreamSubscription.poll`
needs no lock at all.  ``stream_*`` metrics land in the shared
:class:`~repro.service.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.index import I3Index, MutationEvent
from repro.core.recovery import DurableIndex
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.service.metrics import MetricsRegistry
from repro.service.service import QueryService
from repro.streaming.delivery import ResultUpdate, StreamSubscription
from repro.streaming.matcher import IncrementalMatcher
from repro.streaming.registry import (
    DEFAULT_GRID_LEVEL,
    QueryRegistry,
    StandingQuery,
)
from repro.streaming.tail import StreamCheckpoint, read_wal_tail

__all__ = ["StreamConfig", "StreamingService"]


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs of a :class:`StreamingService`.

    Attributes:
        grid_level: Registry spatial-grid depth (4^level cells).
        queue_capacity: Bounded depth of each subscription queue.
        policy: Overflow policy — ``"coalesce"`` or ``"drop_oldest"``
            (see :mod:`repro.streaming.delivery`).
    """

    grid_level: int = DEFAULT_GRID_LEVEL
    queue_capacity: int = 256
    policy: str = "coalesce"

    def __post_init__(self) -> None:
        if self.grid_level < 0:
            raise ValueError(f"grid_level must be >= 0, got {self.grid_level}")
        if self.queue_capacity <= 0:
            raise ValueError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )


class StreamingService:
    """Continuous top-k queries over one live index."""

    def __init__(
        self,
        target: Union[I3Index, DurableIndex, QueryService],
        config: Optional[StreamConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self._service: Optional[QueryService] = None
        self._durable: Optional[DurableIndex] = None
        if isinstance(target, QueryService):
            self._service = target
            self._durable = target.durable
            self._index = target.index
            default_metrics = target.metrics
        elif isinstance(target, DurableIndex):
            self._durable = target
            self._index = target.index
            default_metrics = None
        else:
            self._index = target
            default_metrics = None
        self.metrics = (
            metrics
            if metrics is not None
            else (default_metrics if default_metrics is not None else MetricsRegistry())
        )
        self.registry = QueryRegistry(
            self._index.space, grid_level=self.config.grid_level
        )
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
    def index(self) -> I3Index:
        """The index currently being observed."""
        return self._index

    def _with_write(self, fn):
        """Run ``fn`` exclusively with respect to index mutations.

        A closed service mutates nothing anymore, so running ``fn``
        directly is race-free there — that path lets teardown (e.g. a
        cluster router unregistering from a killed replica) proceed.
        """
        if self._service is not None and not self._service.closed:
            return self._service.mutate(lambda _target: fn())
        return fn()

    def _lsn(self) -> Optional[int]:
        return self._durable.last_lsn if self._durable is not None else None

    def _on_mutation(self, event: MutationEvent) -> None:
        self.matcher.handle(event)

    def _changed(self, sq: StandingQuery) -> None:
        self._notify(sq, "update")

    def _notify(self, sq: StandingQuery, kind: str) -> None:
        sub = self._subs.get(sq.subscriber_id)
        if sub is None:
            return
        outcome = sub.offer(
            ResultUpdate(
                query_id=sq.query_id,
                kind=kind,
                epoch=self._index.epoch,
                lsn=self._lsn(),
                seq=0,  # stamped by the subscription
                results=tuple(sq.results()),
            )
        )
        self.metrics.counter(f"stream.delivery.{outcome}").inc()

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscriber_id: Optional[str] = None,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> StreamSubscription:
        """Open a subscription (an id already in use replaces the old
        subscription, closing it)."""
        if self._closed:
            raise ValueError("streaming service is closed")
        if subscriber_id is None:
            subscriber_id = f"sub-{self._next_subscriber}"
            self._next_subscriber += 1
        sub = StreamSubscription(
            subscriber_id,
            capacity=capacity if capacity is not None else self.config.queue_capacity,
            policy=policy if policy is not None else self.config.policy,
        )

        def do() -> StreamSubscription:
            old = self._subs.get(subscriber_id)
            if old is not None:
                old.close()
            self._subs[subscriber_id] = sub
            self.metrics.gauge("stream.subscriptions").set(len(self._subs))
            return sub

        return self._with_write(do)

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
            self._next_query_id += 1
            sq = StandingQuery(
                query_id, query, resolved, subscription.subscriber_id
            )
            # Seed directly against the index: on a QueryService target
            # we already hold the write lock, so going through the
            # service's queue would deadlock.
            sq.seed(self._index.query(query, resolved))
            self.registry.add(sq)
            self._owner[query_id] = subscription.subscriber_id
            self.metrics.counter("stream.registered").inc()
            self.metrics.gauge("stream.standing_queries").set(len(self.registry))
            self._notify(sq, "snapshot")
            return query_id

        return self._with_write(do)

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
    # Reconnect: WAL-tail replay
    # ------------------------------------------------------------------
    def resume(
        self,
        checkpoint: StreamCheckpoint,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> StreamSubscription:
        """Reconnect a subscriber from its :class:`StreamCheckpoint`.

        Re-registers every checkpointed standing query under its old
        query id and brings it to the exact live state: on a durable
        target whose log still covers ``checkpoint.acked_lsn``, by
        replaying only the missed mutations through a private matcher
        (deletion evictions re-query the live index, so replay converges
        on the live top-k); otherwise by re-running each query.  Either
        way the subscriber's first updates are ``"snapshot"``\\ s stamped
        with the live epoch and LSN.
        """
        sub = self.subscribe(checkpoint.subscriber_id, capacity, policy)

        def do() -> None:
            tail = None
            if self._durable is not None:
                tail = read_wal_tail(self._durable, checkpoint.acked_lsn)
            restored: List[StandingQuery] = []
            for query_id, entry in checkpoint.entries.items():
                if query_id in self.registry:
                    self.registry.remove(query_id)
                sq = StandingQuery(
                    query_id,
                    entry.query,
                    Ranker(self._index.space, entry.alpha),
                    sub.subscriber_id,
                )
                self._next_query_id = max(self._next_query_id, query_id + 1)
                restored.append(sq)
            # A checkpoint entry is a valid replay seed only if at least
            # one update was actually delivered for it (``synced``): a
            # query tracked but never polled has ``results = ()``, which
            # is not its state at the acknowledged LSN when the store
            # was seeded from a snapshot — replaying the tail on top of
            # that empty seed would lose every snapshot-resident result.
            # (Found by the simulation harness: seed 2 shrank to
            # register -> kill -> resume.)
            replayable = []
            requery = []
            for sq, entry in zip(restored, checkpoint.entries.values()):
                if tail is not None and tail.covered and entry.synced:
                    replayable.append((sq, entry))
                else:
                    requery.append(sq)
            if replayable:
                replay_registry = QueryRegistry(
                    self._index.space, grid_level=self.config.grid_level
                )
                for sq, entry in replayable:
                    sq.seed(list(entry.results))
                    replay_registry.add(sq)
                replayer = IncrementalMatcher(
                    self._index, replay_registry, metrics=self.metrics
                )
                for mutation in tail.mutations:
                    if mutation.kind == "insert":
                        replayer.apply_insert(mutation.doc)
                    else:
                        replayer.apply_delete(mutation.doc)
                self.metrics.counter("stream.resume_replayed").inc(
                    len(tail.mutations)
                )
            for sq in requery:
                sq.seed(self._index.query(sq.query, sq.ranker))
                self.metrics.counter("stream.resume_requeries").inc()
            for sq in restored:
                self.registry.add(sq)
                self._owner[sq.query_id] = sub.subscriber_id
                self._notify(sq, "snapshot")
            self.metrics.gauge("stream.standing_queries").set(len(self.registry))

        self._with_write(do)
        return sub

    # ------------------------------------------------------------------
    # Index swap (service recovery)
    # ------------------------------------------------------------------
    def rebind(self, index: I3Index) -> None:
        """Re-attach to a replacement index after recovery.

        Called by :meth:`repro.service.QueryService.recover` (under its
        write lock) when the served index instance is swapped; every
        standing query is refreshed against the recovered state and
        subscribers are notified of any resulting changes.
        """
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
