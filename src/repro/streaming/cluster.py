"""Cluster streaming: standing queries fanned out across the shards.

A document lives whole on exactly one shard, so any document in the
*global* top-k of a standing query is necessarily in the *local* top-k
of the standing query registered on its owning shard.  The router
therefore registers every cluster standing query on every shard's
:class:`~repro.streaming.service.StreamingService` (attached to the
shard's first-alive replica), keeps the latest per-shard top-k as
notifications arrive, and merges them through one
:class:`~repro.model.results.TopKCollector` — the merged list is
byte-identical to a standing query over one monolithic index.

Delivery is pull-based at the cluster level: callers pump
:meth:`ClusterStreamRouter.poll`, which drains each shard's internal
subscription and emits one merged :class:`~repro.streaming.delivery.ResultUpdate`
per cluster query whose global top-k actually changed, stamped with the
sum of the shard epochs the merge reflects.

The router binds each shard's stream to the replica that was first
alive at attach time; if that replica later dies its stream goes quiet
(mutations keep flowing to the surviving replicas' indexes, but no
standing-query maintenance runs there).  Re-attach by building a new
router — the registration snapshot then reflects the surviving state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.streaming.delivery import ResultUpdate

__all__ = ["ClusterStreamRouter"]


class _ClusterQuery:
    """Router-side state of one cluster-wide standing query."""

    __slots__ = (
        "query", "alpha", "shard_qids", "shard_results", "shard_epochs",
        "merged", "seq",
    )

    def __init__(self, query: TopKQuery, alpha: float) -> None:
        self.query = query
        self.alpha = alpha
        self.shard_qids: Dict[int, int] = {}
        self.shard_results: Dict[int, Tuple[ScoredDoc, ...]] = {}
        self.shard_epochs: Dict[int, int] = {}
        self.merged: List[ScoredDoc] = []
        self.seq = 0

    def merge(self) -> List[ScoredDoc]:
        collector = TopKCollector(self.query.k)
        for results in self.shard_results.values():
            for hit in results:
                collector.offer(hit.doc_id, hit.score)
        return collector.results()

    def epoch(self) -> int:
        return sum(self.shard_epochs.values())


class ClusterStreamRouter:
    """Standing top-k queries over a :class:`~repro.cluster.ClusterService`."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.metrics = cluster.metrics
        self._streams = []
        self._subs = []
        # per shard: shard-local query id -> cluster query id
        self._by_shard_qid: List[Dict[int, int]] = []
        for sid in range(cluster.num_shards):
            rep = cluster._first_alive(sid) or cluster.replica(sid, 0)
            stream = rep.service.streams()
            self._streams.append(stream)
            self._subs.append(
                stream.subscribe(f"cluster-router-shard{sid}")
            )
            self._by_shard_qid.append({})
        self._queries: Dict[int, _ClusterQuery] = {}
        self._next_id = 1
        self._closed = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, query: TopKQuery, alpha: float = 0.5) -> int:
        """Register one standing query on every shard; returns its
        cluster query id.  The merged initial snapshot is available via
        :meth:`results` immediately."""
        if self._closed:
            raise ValueError("cluster stream router is closed")
        cqid = self._next_id
        self._next_id += 1
        entry = _ClusterQuery(query, alpha)
        for sid, stream in enumerate(self._streams):
            qid = stream.register(self._subs[sid], query, alpha=alpha)
            entry.shard_qids[sid] = qid
            self._by_shard_qid[sid][qid] = cqid
            results = stream.results(qid)
            entry.shard_results[sid] = tuple(results if results else ())
            entry.shard_epochs[sid] = stream.index.epoch
        entry.merged = entry.merge()
        self._queries[cqid] = entry
        self.metrics.counter("cluster.stream.registered").inc()
        self.metrics.gauge("cluster.stream.standing_queries").set(
            len(self._queries)
        )
        return cqid

    def unregister(self, cqid: int) -> bool:
        """Remove one cluster standing query from every shard."""
        entry = self._queries.pop(cqid, None)
        if entry is None:
            return False
        for sid, qid in entry.shard_qids.items():
            self._streams[sid].unregister(qid)
            self._by_shard_qid[sid].pop(qid, None)
        self.metrics.gauge("cluster.stream.standing_queries").set(
            len(self._queries)
        )
        return True

    def results(self, cqid: int) -> Optional[List[ScoredDoc]]:
        """The current merged global top-k (None if unregistered).

        Reflects notifications absorbed so far — call :meth:`poll`
        first for the freshest view."""
        entry = self._queries.get(cqid)
        return list(entry.merged) if entry is not None else None

    # ------------------------------------------------------------------
    # Notification pump
    # ------------------------------------------------------------------
    def poll(self) -> List[ResultUpdate]:
        """Drain every shard subscription and emit merged updates.

        Returns one update per cluster query whose *global* top-k
        changed — a shard-local change that doesn't alter the merge
        (e.g. a far-away document entering one shard's local top-k)
        produces nothing."""
        changed: Dict[int, _ClusterQuery] = {}
        for sid, sub in enumerate(self._subs):
            for update in sub.poll():
                cqid = self._by_shard_qid[sid].get(update.query_id)
                entry = self._queries.get(cqid) if cqid is not None else None
                if entry is None:
                    continue
                entry.shard_results[sid] = update.results
                entry.shard_epochs[sid] = update.epoch
                changed[cqid] = entry
        emitted: List[ResultUpdate] = []
        for cqid, entry in changed.items():
            merged = entry.merge()
            if merged == entry.merged:
                continue
            entry.merged = merged
            entry.seq += 1
            emitted.append(
                ResultUpdate(
                    query_id=cqid,
                    kind="update",
                    epoch=entry.epoch(),
                    lsn=None,
                    seq=entry.seq,
                    results=tuple(merged),
                )
            )
        if emitted:
            self.metrics.counter("cluster.stream.updates").inc(len(emitted))
        return emitted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queries)

    def close(self) -> None:
        """Unregister everything and close the shard subscriptions."""
        if self._closed:
            return
        self._closed = True
        for cqid in list(self._queries):
            self.unregister(cqid)
        for sid, sub in enumerate(self._subs):
            self._streams[sid].unsubscribe(sub)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ClusterStreamRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
