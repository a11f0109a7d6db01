"""The cluster layer: scatter-gather top-k over partitioned I³ shards.

One :class:`~repro.service.QueryService` serves one index; this module
serves many.  A :class:`ClusterService` owns ``num_shards`` replica
sets (each replica a full :class:`~repro.core.index.I3Index` behind its
own query service, so admission control and turn-taking are per
shard), routes mutations through the partitioner, and answers top-k
queries by scatter-gather with two correctness-preserving shortcuts:

* **bound-based shard skipping** — every shard advertises, per query
  keyword, the ``max_s`` upper bound the paper stores in its summary
  nodes (:meth:`repro.core.index.I3Index.keyword_bounds`).  Combined
  with the spatial upper bound of the shard's nearest region (one
  ``shard_min_dists`` question to the partitioner per query, about the
  shards that hold a query keyword) this
  bounds the best score any of its documents can reach; shards are
  visited one at a time in bound order, on the caller's thread, and
  skipped once their bound falls strictly below the current k-th best
  score — they could neither beat nor tie it, so the merged answer is
  byte-identical to querying one monolithic index;
* **replica failover** — a failed attempt (dead replica, injected
  fault, attempt timeout, shed query) moves to the next replica,
  healthy first, with exponential backoff between retry rounds.  A
  shard degrades the answer only when *no* replica survives, and the
  result is then explicitly flagged (:attr:`ClusterAnswer.degraded`) —
  partial answers are never silently passed off as complete.

Results are cached cluster-wide, stamped with the sum of shard epochs,
so a mutation on any shard invalidates exactly like the single-index
epoch cache.

This is the only scatter-gather: nothing on the query path asks what
kind of index a replica serves or what kind of query it carries.
Replica sets of ``QueryService(TemporalIndex)`` handed to the
constructor make a time-sliced cluster (``docs/temporal.md``,
"Sharding × slicing") — a :class:`~repro.temporal.TemporalQuery` is
routed by the same bound, which stays admissible because recency only
multiplies a score by a weight in (0, 1] and a time range only removes
candidates — and :meth:`ClusterService.advance` /
:meth:`ClusterService.expire` fan the time controls out.

Every shard/replica read — the per-attempt ``search`` and the router's
``keyword_bounds`` lookup — goes through a :class:`ShardChannel`, the
shard-transport seam: production uses the default in-process channel,
and the simulation harness swaps in
:class:`~repro.net.sim.SimShardChannel` to inject per-shard drops,
resets, truncated frames, deadline-burning delays, and whole-group
network partitions under virtual time (see ``docs/testing.md``,
"Chaos & partition fuzzing").
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.manifest import ShardManifest
from repro.cluster.partition import build_manifest
from repro.cluster.replica import ShardReplica
from repro.core.index import I3Index, MutationEvent
from repro.core.recovery import DurableIndex, RecoveryReport
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker
from repro.service.cache import QueryResultCache
from repro.service.errors import AnswerDegraded, ServiceClosed
from repro.service.metrics import MetricsRegistry
from repro.service.service import QueryService, ServiceConfig, _ReadWriteLock

__all__ = [
    "ClusterConfig",
    "ClusterAnswer",
    "ClusterService",
    "ShardChannel",
    "attempt_budget",
    "slice_remaining",
]


def slice_remaining(deadline_at: Optional[float], now: float) -> Optional[float]:
    """Seconds left in the cluster deadline (``None`` = unbounded)."""
    if deadline_at is None:
        return None
    return deadline_at - now


def attempt_budget(
    deadline_at: Optional[float],
    now: float,
    attempt_timeout: Optional[float],
) -> Tuple[bool, Optional[float]]:
    """One shard attempt's slice of the cluster deadline.

    Returns ``(expired, timeout)``: ``expired`` is True once the
    deadline has passed (the attempt must fail its slice — degrading
    the answer — instead of stretching the query), otherwise
    ``timeout`` is the attempt's budget in seconds — the configured
    per-attempt timeout capped by the time remaining, ``None`` when
    both are unbounded.  Pure arithmetic, kept free of clocks so the
    property tests can drive it with arbitrary times (and so the
    ``stuck-scatter`` canary has a single seam to sabotage).

    Invariants (checked by ``tests/test_scatter_properties.py``):
    a non-expired slice is always positive, consumed slices can never
    sum past the deadline, and once expired a slice stays expired for
    every later ``now``.
    """
    remaining = slice_remaining(deadline_at, now)
    if remaining is None:
        return False, attempt_timeout
    if remaining <= 0:
        return True, 0.0
    if attempt_timeout is None:
        return False, remaining
    return False, min(attempt_timeout, remaining)


class ShardChannel:
    """The shard-transport seam: every replica read goes through here.

    The default implementation is a direct in-process call.  Tests and
    the simulation harness subclass it to interpose faults between the
    router/gatherer and the replicas (drop, reset, truncation, delay,
    partition — see :class:`repro.net.sim.SimShardChannel`) without
    touching the scatter-gather logic itself.  A channel failure is
    any raised exception: the gatherer treats it exactly like a dead
    replica (failover, then a failed shard slice and a degraded
    answer).
    """

    def search(
        self,
        replica: ShardReplica,
        query: TopKQuery,
        timeout: Optional[float],
    ) -> List[ScoredDoc]:
        """One top-k attempt against one replica."""
        return replica.search(query, timeout=timeout)

    def keyword_bounds(
        self,
        replica: ShardReplica,
        words: Tuple[str, ...],
    ) -> Dict[str, float]:
        """Per-keyword ``max_s`` upper bounds from one replica (words
        the shard has never stored are omitted)."""
        return replica.read(
            lambda _t, _rep=replica: _rep.index.keyword_bounds(words)
        )


def _require_non_negative(name: str, value: Optional[float]) -> None:
    if value is None:
        return
    if math.isnan(value) or value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs of a :class:`ClusterService`.

    Attributes:
        replicas: Replicas per shard (1 = primary only, no failover).
        attempt_timeout: Per-attempt budget in seconds against one
            replica (``None`` = wait for the replica's own deadline).
        deadline: Whole-query budget in seconds from the start of the
            query (routing included), sliced across the shard
            attempts: every attempt is capped by the time remaining,
            and shards reached after the budget runs out fail their
            slice (degrading the answer) instead of stretching the
            query (``None`` = no cluster deadline).
        retry_rounds: Extra passes over the replica set after the first
            all-replicas sweep fails.
        backoff: Base seconds slept before retry round ``n`` (doubles
            each round); 0 disables sleeping.
        failure_threshold: Consecutive failures that mark a replica
            unhealthy (demoted in the attempt order).
        cache_capacity: Cluster-wide result-cache entries; 0 disables.
        shard_config: The :class:`~repro.service.ServiceConfig` given to
            every replica's query service (per-shard admission limits
            live here).
        metrics_seed: Seed for metric histogram reservoirs.
    """

    replicas: int = 1
    attempt_timeout: Optional[float] = None
    deadline: Optional[float] = None
    retry_rounds: int = 1
    backoff: float = 0.005
    failure_threshold: int = 2
    cache_capacity: int = 128
    shard_config: ServiceConfig = field(default_factory=ServiceConfig)
    metrics_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.attempt_timeout is not None and not (
            0 < self.attempt_timeout < math.inf
        ):
            # The chained comparison also rejects NaN, like
            # ServiceConfig.timeout; "no budget" is spelled None.
            raise ValueError(
                "attempt_timeout must be positive and finite, "
                f"got {self.attempt_timeout}"
            )
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise ValueError(
                f"deadline must be positive and finite, got {self.deadline}"
            )
        _require_non_negative("backoff", self.backoff)
        if self.retry_rounds < 0:
            raise ValueError(
                f"retry_rounds must be >= 0, got {self.retry_rounds}"
            )
        if self.failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {self.failure_threshold}"
            )
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )


@dataclass(frozen=True)
class ClusterAnswer:
    """One scatter-gather answer plus its completeness provenance.

    Attributes:
        results: The merged top-k, best first — byte-identical to a
            single-index answer whenever ``degraded`` is False.
        degraded: True when at least one shard that might have
            contributed could not be reached on any replica; the
            results are then a correct answer over the *surviving*
            shards only.
        failed_shards: Shard ids that contributed nothing (no replica
            survived).
        shards_queried: Shards actually executed against.
        shards_skipped: Shards not executed — keyword-absent plus
            bound-pruned (the scatter-gather saving).
        from_cache: Served from the cluster result cache.
    """

    results: List[ScoredDoc]
    degraded: bool
    failed_shards: Tuple[int, ...] = ()
    shards_queried: int = 0
    shards_skipped: int = 0
    from_cache: bool = False


class ClusterService:
    """Scatter-gather top-k search over partitioned, replicated shards.

    Construct with :meth:`build` (partition a corpus, build every
    replica index) or directly from prebuilt replica sets.  Use as a
    context manager or call :meth:`close` when done.
    """

    def __init__(
        self,
        shards: List[List[ShardReplica]],
        partitioner,
        config: Optional[ClusterConfig] = None,
        ranker: Optional[Ranker] = None,
        manifest: Optional[ShardManifest] = None,
        clock: Optional[Any] = None,
        executor: Optional[Any] = None,
        channel: Optional[ShardChannel] = None,
    ) -> None:
        """``clock``/``executor`` are the deterministic-simulation seams
        (see :mod:`repro.simtest` and the same seams on
        :class:`~repro.service.QueryService`): the clock times routing,
        deadlines and backoff, and the executor is only handed on to
        the replica services :meth:`recover` rebuilds — the scatter
        never asks for it, so a simulated cluster runs the same
        statements as a production one.  ``channel`` is the
        shard-transport seam (default: direct in-process
        :class:`ShardChannel`).  Leave all three ``None`` in
        production."""
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.config = config if config is not None else ClusterConfig()
        self._now = clock if clock is not None else time.monotonic
        self._sleep = clock.sleep if clock is not None else time.sleep
        self._clock = clock
        self._executor = executor
        self._shards = shards
        self.partitioner = partitioner
        self.ranker = (
            ranker if ranker is not None else Ranker(partitioner.space)
        )
        self.manifest = manifest
        self.metrics = MetricsRegistry(seed=self.config.metrics_seed)
        self.cache: Optional[QueryResultCache] = (
            QueryResultCache(self.config.cache_capacity)
            if self.config.cache_capacity
            else None
        )
        self._closed = False
        self._close_lock = threading.Lock()
        # Topology lock: queries and mutations hold the read side, so
        # rebalance() can swap the partitioner (documents and routing
        # geometry both) under the write side without a query racing a
        # half-moved corpus.
        self._topology = _ReadWriteLock()
        # Per-shard rotation counters: healthy replicas serve reads
        # round-robin instead of failover-only, spreading load.
        self._rotation = [itertools.count() for _ in shards]
        self._channel = channel if channel is not None else ShardChannel()
        # Router bounds cache: per shard, the keyword bounds already
        # fetched at that shard's current index epoch (absent words are
        # cached as None so repeat AND queries skip without a read).
        # Any mutation bumps the shard epoch and orphans the entry;
        # rebalance() flushes outright.
        self._bounds_lock = threading.Lock()
        self._bounds_cache: Dict[int, Tuple[int, Dict[str, Optional[float]]]] = {}
        self._recorder = None  # attach_recorder() hook
        self._started = self._now()
        self._streams = None  # lazily built by streams()
        self._writes = threading.Lock()  # the stream's exclusive section
        self.metrics.gauge("cluster.shards").set(len(shards))
        self.metrics.gauge("cluster.replicas").set(self.config.replicas)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        documents: Iterable,
        partitioner,
        config: Optional[ClusterConfig] = None,
        ranker: Optional[Ranker] = None,
        durable_root: Optional[str] = None,
        clock: Optional[Any] = None,
        executor: Optional[Any] = None,
        fs: Optional[Any] = None,
        channel: Optional[ShardChannel] = None,
        **index_kwargs,
    ) -> "ClusterService":
        """Partition ``documents`` and build every shard replica.

        Each replica gets its own :class:`~repro.core.index.I3Index`
        (bulk-loaded with the shard's documents — replicas of one shard
        hold identical data) and its own query service configured from
        ``config.shard_config``.  ``index_kwargs`` (``eta``,
        ``page_size``, ``max_depth``, ...) pass through to every
        shard index.

        With ``durable_root`` each replica is wrapped in a
        :class:`~repro.core.recovery.DurableIndex` stored under
        ``durable_root/shard<sid>-r<rid>/`` — mutations go through its
        write-ahead log, and :meth:`recover` can bring a restarted
        replica back to its exact acknowledged state.
        """
        config = config if config is not None else ClusterConfig()
        space = partitioner.space
        ranker = ranker if ranker is not None else Ranker(space)
        assignment: List[List[Any]] = [
            [] for _ in range(partitioner.num_shards)
        ]
        for doc in documents:
            assignment[partitioner.shard_of(doc)].append(doc)
        shards: List[List[ShardReplica]] = []
        for sid, shard_docs in enumerate(assignment):
            replicas = []
            for rid in range(config.replicas):
                target: Any = I3Index(space, **index_kwargs)
                if durable_root is not None:
                    target = DurableIndex.create(
                        os.path.join(durable_root, f"shard{sid}-r{rid}"),
                        target,
                        fs=fs,
                    )
                if shard_docs:
                    target.bulk_load(shard_docs)
                service = QueryService(
                    target, config.shard_config, ranker=ranker,
                    clock=clock, executor=executor,
                )
                replicas.append(
                    ShardReplica(
                        sid, rid, service,
                        failure_threshold=config.failure_threshold,
                    )
                )
            shards.append(replicas)
        manifest = build_manifest(
            partitioner, config.replicas, [len(d) for d in assignment]
        )
        return cls(
            shards, partitioner, config, ranker, manifest,
            clock=clock, executor=executor, channel=channel,
        )

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def replica(self, shard_id: int, replica_id: int = 0) -> ShardReplica:
        """The addressed replica (fault injection, inspection)."""
        return self._shards[shard_id][replica_id]

    def _first_alive(self, shard_id: int) -> Optional[ShardReplica]:
        for rep in self._shards[shard_id]:
            if rep.alive:
                return rep
        return None

    @property
    def epoch(self) -> int:
        """Sum of per-shard mutation epochs — the cross-shard cache
        stamp.  Any mutation on any shard changes it, so cached merged
        answers self-invalidate exactly like single-index results."""
        total = 0
        for sid in range(self.num_shards):
            rep = self._first_alive(sid) or self._shards[sid][0]
            total += rep.index.epoch
        return total

    @property
    def temporal(self):
        """The shards' temporal handle, as the ``Backend`` protocol
        reads it: the first replica's (every replica serves the same
        kind of index).  ``None`` over I3 shards, which have no time
        axis — front ends then refuse a temporal query rather than
        ignore its time range."""
        return self._shards[0][0].service.temporal

    def _provably_empty(self, sid: int) -> bool:
        """Whether the manifest counts no document on shard ``sid``: an
        unreachable shard that holds nothing has nothing to lose, so it
        is skipped without degrading the answer."""
        return (
            self.manifest is not None
            and self.manifest.shards[sid].num_documents == 0
        )

    def streams(self):
        """The cluster's :class:`~repro.streaming.StreamingService`, the
        one :meth:`repro.service.QueryService.streams` builds, holding
        each standing query once, here at the router.

        Built lazily; :meth:`insert`/:meth:`delete` feed its matcher
        once the write has landed, so no replica's death silences it.
        Seeds and evicting deletes re-answer through :meth:`search`; a
        degraded seed raises :class:`~repro.service.errors.AnswerDegraded`
        and a degraded re-answer waits, stale, for the next mutation or
        :meth:`recover`.  A standing query's alpha must be
        ``ranker.alpha``: the cluster ranks with one ranker.
        """
        if self._closed:
            raise ServiceClosed("cluster service is closed")
        if self._streams is None:
            from repro.streaming.service import StreamingService

            self._streams = StreamingService(
                self.ranker.space,
                self.metrics,
                answer=self._exact_answer,
                ranker=self._ranker_at,
                stamp=lambda: (self.epoch, None),
                exclusive=self._exclusive,
            )
        return self._streams

    def _exact_answer(self, query: TopKQuery, _ranker: Ranker) -> List[ScoredDoc]:
        answer = self.search(query)
        if answer.degraded:
            raise AnswerDegraded(answer.failed_shards)
        return answer.results

    def _ranker_at(self, alpha: float) -> Ranker:
        if alpha != self.ranker.alpha:
            raise ValueError(
                f"a cluster ranks with alpha {self.ranker.alpha}; a "
                f"standing query cannot ask for {alpha}"
            )
        return self.ranker

    def _exclusive(self, fn):
        # Never taken inside the topology lock: stream work searches,
        # and a search queued behind a waiting rebalance (the lock
        # prefers writers) would wait on a read side it holds itself.
        with self._writes:
            return fn()

    def recover(self, shard_id: int, replica_id: int = 0) -> "RecoveryReport":
        """Recover one replica from its durable store and rejoin it.

        Works on a live replica (in-place recovery under its service's
        write lock) and on a killed one (its closed service is replaced
        by a fresh one over the recovered index — the cluster analogue
        of restarting the shard process).  Either way the replica comes
        back at the exact acknowledged epoch and re-enters the failover
        rotation healthy.
        """
        if self._closed:
            raise ServiceClosed("cluster service is closed")
        rep = self.replica(shard_id, replica_id)
        durable = rep.service.durable
        if durable is None:
            raise ValueError(
                f"shard {shard_id} replica {replica_id} was built without "
                "a durable store (pass durable_root= to build())"
            )
        if rep.alive:
            report = rep.service.recover()
        else:
            report = durable.recover()
            rep.service = QueryService(
                durable, self.config.shard_config, ranker=self.ranker,
                clock=self._clock, executor=self._executor,
            )
        rep.revive()
        self.metrics.counter("cluster.recoveries").inc()
        if self._streams is not None:
            self._exclusive(self._streams.matcher.retry_stale)
        return report

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def search(
        self, query: TopKQuery, timeout: Optional[float] = None
    ) -> ClusterAnswer:
        """Scatter-gather top-k across the shards.

        Never raises for shard failures — unreachable shards surface as
        :attr:`ClusterAnswer.degraded` (with the ids in
        ``failed_shards``) so callers can distinguish a complete answer
        from a partial one.  ``timeout`` is the caller's own remaining
        deadline in seconds: the gather runs under the tighter of it and
        ``config.deadline``, and running out degrades the answer like
        any other unreachable shard.
        """
        return self.search_many([query], timeout)[0]

    def search_many(
        self,
        queries: Sequence[TopKQuery],
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Answer a batch of queries; one slot per query, in input order.

        Each query is answered exactly as :meth:`search` would answer it
        alone (scatter-gather, cache, degraded accounting; ``timeout``
        spans the whole batch); duplicates within the batch are
        scattered once and share the (immutable) :class:`ClusterAnswer`.
        A slot is the query's answer or the exception it raised: with
        ``return_exceptions=False`` (default) the first failed slot is
        raised, after the whole batch ran.  Per-shard batch amortization
        happens one level down: shard services run their local work
        through the engine seam, so the cluster tier stays a pure router.
        """
        if self._closed:
            raise ServiceClosed("cluster service is closed")
        give_up_at = None if timeout is None else self._now() + timeout
        memo: Dict[TopKQuery, ClusterAnswer] = {}
        slots: List[Any] = []
        for query in queries:
            answer = memo.get(query)
            if answer is None:
                try:
                    answer = self._search(query, give_up_at)
                except Exception as exc:  # noqa: BLE001 - its slot
                    answer = exc
                else:
                    if not answer.degraded:
                        # A degraded answer is retried for later
                        # duplicates — same contract as the cluster cache.
                        memo[query] = answer
            slots.append(answer)
        if not return_exceptions:
            for slot in slots:
                if isinstance(slot, BaseException):
                    raise slot
        return slots

    def _search(
        self, query: TopKQuery, give_up_at: Optional[float]
    ) -> ClusterAnswer:
        """One query: cluster cache, else scatter-gather."""
        if self._recorder is not None:
            self._recorder.record(query)
        self.metrics.counter("cluster.queries").inc()
        self._topology.acquire_read()
        try:
            epoch = self.epoch
            key = (query, self.ranker.alpha)
            if self.cache is not None:
                cached = self.cache.get(key, epoch)
                if cached is not None:
                    return replace(cached, from_cache=True)
            started = self._now()
            answer = self._scatter_gather(query, give_up_at)
            self.metrics.histogram("cluster.latency_ms").observe(
                (self._now() - started) * 1000.0
            )
            if answer.degraded:
                self.metrics.counter("cluster.degraded").inc()
            elif self.cache is not None:
                # Degraded answers are never cached: the next attempt may
                # reach a recovered replica and must not be short-circuited.
                self.cache.put(key, epoch, answer)
            return answer
        finally:
            self._topology.release_read()

    def _scatter_gather(
        self, query: TopKQuery, give_up_at: Optional[float]
    ) -> ClusterAnswer:
        started = self._now()
        # The tighter of this query's own budget and the caller's; both
        # run from the start of the query, so routing (which can wait
        # behind a shard's writer) spends from them too.
        deadline_at = give_up_at
        if self.config.deadline is not None:
            deadline_at = started + self.config.deadline
            if give_up_at is not None:
                deadline_at = min(deadline_at, give_up_at)
        ranked, absent, dead_upfront = self._route(query)
        self.metrics.histogram("cluster.route_ms").observe(
            (self._now() - started) * 1000.0
        )
        collector = TopKCollector(query.k)
        failed: List[int] = list(dead_upfront)
        queried = 0
        pruned = 0
        # Algorithm 4 one level up: one shard at a time in bound order,
        # delta checked before each.  The attempt runs on this thread;
        # without a deadline slice, on a shard with nothing queued or
        # running, so does the shard's traversal (no hop to its lane).
        for i, (bound, sid) in enumerate(ranked):
            if bound < collector.delta:
                # Bounds are sorted descending: nothing from here on can
                # beat (or tie) the current k-th score.
                pruned = len(ranked) - i
                break
            queried += 1
            result = self._query_shard(sid, query, deadline_at)
            if result is None:
                failed.append(sid)
                continue
            for doc in result:
                collector.offer(doc.doc_id, doc.score)
        self.metrics.counter("cluster.shards_queried").inc(queried)
        self.metrics.counter("cluster.shards_pruned").inc(pruned)
        self.metrics.counter("cluster.shards_no_candidates").inc(absent)
        return ClusterAnswer(
            results=collector.results(),
            degraded=bool(failed),
            failed_shards=tuple(sorted(failed)),
            shards_queried=queried,
            shards_skipped=absent + pruned,
        )

    def _route(
        self, query: TopKQuery
    ) -> Tuple[List[Tuple[float, int]], int, List[int]]:
        """Score every shard's best-case contribution.

        Returns ``(ranked, absent, dead)``: shards with a finite upper
        bound sorted bound-descending (ties by shard id), the number of
        shards holding no query keyword (safely skipped — a document
        there can never be a candidate), and shards with no alive
        replica at routing time (already-degraded).  A shard whose
        bounds read fails on the channel joins ``dead`` too: with no
        admissible bound the router can neither rank nor safely skip
        it, so the only honest outcome is a degraded answer.
        """
        textual: List[Tuple[int, float]] = []
        absent = 0
        dead: List[int] = []
        need_all = query.semantics is Semantics.AND
        for sid in range(self.num_shards):
            rep = self._first_alive(sid)
            bounds = None
            if rep is not None:
                try:
                    bounds = self._shard_bounds(sid, rep, query.words)
                except Exception:
                    rep.mark_failure()
                    self.metrics.counter("cluster.route_failures").inc()
            if bounds is None:
                # No live replica, or its bounds read failed.
                if self._provably_empty(sid):
                    absent += 1
                else:
                    dead.append(sid)
                continue
            if not bounds or (need_all and len(bounds) < len(query.words)):
                # Documents live whole on one shard, so a shard missing
                # a required keyword cannot hold any AND candidate (nor
                # any OR candidate when every keyword is missing).
                absent += 1
                continue
            textual.append((sid, sum(bounds.values())))
        # One spatial question, about the shards that hold a keyword.
        min_dists = self.partitioner.shard_min_dists(
            query.x, query.y, sum(1 << sid for sid, _ in textual)
        )
        diagonal = self.ranker.space.diagonal
        ranked: List[Tuple[float, int]] = []
        for sid, phi_t in textual:
            dist = min_dists[sid]
            # Ranker.spatial_upper_bound over the shard's nearest region
            # (the regions farther away can only bound lower).
            phi_s = 0.0 if dist is None else max(0.0, 1.0 - dist / diagonal)
            ranked.append((self.ranker.combine(phi_s, phi_t), sid))
        ranked.sort(key=lambda entry: (-entry[0], entry[1]))
        return ranked, absent, dead

    def _shard_bounds(
        self, sid: int, rep: ShardReplica, words: Tuple[str, ...]
    ) -> Dict[str, float]:
        """``keyword_bounds`` for one shard through the epoch-validated
        router cache.

        A cache entry is ``(epoch, {word: bound-or-None})`` — ``None``
        records that the shard had never stored the word, so repeat
        AND routing skips the shard without a read.  The entry is only
        trusted at the shard's *current* index epoch: any mutation
        (insert, delete, recovery replay) bumps the epoch and the next
        route refetches, which is what keeps a cached low bound from
        wrongly pruning a shard that just gained a high-weight
        document.  Reads go through the shard channel, so a faulted
        channel surfaces here (and the failure is never cached).
        """
        epoch = rep.index.epoch
        missing: Tuple[str, ...] = words
        cached: Dict[str, Optional[float]] = {}
        with self._bounds_lock:
            entry = self._bounds_cache.get(sid)
            if entry is not None and entry[0] == epoch:
                cached = entry[1]
                missing = tuple(w for w in words if w not in cached)
                if not missing:
                    self.metrics.counter("cluster.bounds_cache_hits").inc()
                    return {
                        w: cached[w] for w in words if cached[w] is not None
                    }
        # Fetch outside the lock: the channel may block (or fault).
        fetched = self._channel.keyword_bounds(rep, missing)
        self.metrics.counter("cluster.bounds_cache_misses").inc()
        with self._bounds_lock:
            entry = self._bounds_cache.get(sid)
            if entry is None or entry[0] != epoch:
                entry = (epoch, {})
                self._bounds_cache[sid] = entry
            store = entry[1]
            for w in missing:
                store[w] = fetched.get(w)
            bounds = {}
            for w in words:
                value = store.get(w, cached.get(w))
                if value is not None:
                    bounds[w] = value
        return bounds

    def _attempt_budget(
        self, deadline_at: Optional[float]
    ) -> Tuple[bool, Optional[float]]:
        """This instant's :func:`attempt_budget` — an instance method so
        fault-injection tests can sabotage the slice arithmetic on one
        cluster without touching the pure function."""
        return attempt_budget(
            deadline_at, self._now(), self.config.attempt_timeout
        )

    def _query_shard(
        self,
        shard_id: int,
        query: TopKQuery,
        deadline_at: Optional[float] = None,
    ) -> Optional[List[ScoredDoc]]:
        """One shard's top-k with round-robin reads and failover;
        ``None`` if every replica failed every round (or the cluster
        deadline ran out first)."""
        replicas = self._shards[shard_id]
        rotation = next(self._rotation[shard_id])
        attempts = 0
        for round_no in range(self.config.retry_rounds + 1):
            if round_no > 0 and self.config.backoff > 0:
                # Check the budget BEFORE sleeping and cap the pause by
                # the time remaining: an expired slice must fail now,
                # not after one more nap past the cluster deadline
                # (found by the scatter-no-hang simtest invariant).
                expired, _ = self._attempt_budget(deadline_at)
                if expired:
                    return None
                pause = self.config.backoff * (2 ** (round_no - 1))
                remaining = slice_remaining(deadline_at, self._now())
                if remaining is not None:
                    pause = min(pause, remaining)
                self._sleep(pause)
            ordered = sorted(
                replicas, key=lambda r: (not r.healthy, r.replica_id)
            )
            healthy = sum(1 for r in ordered if r.healthy)
            all_healthy = healthy == len(replicas)
            if healthy > 1:
                # Healthy replicas serve reads round-robin; unhealthy
                # ones stay at the tail as failover targets only.
                rot = rotation % healthy
                ordered = (
                    ordered[rot:healthy] + ordered[:rot] + ordered[healthy:]
                )
            for rep in ordered:
                if not rep.alive:
                    continue
                expired, timeout = self._attempt_budget(deadline_at)
                if expired:
                    # Budget exhausted: fail the slice rather than
                    # stretch the query past its cluster deadline.
                    return None
                attempts += 1
                try:
                    result = self._channel.search(rep, query, timeout)
                except Exception:
                    rep.mark_failure()
                    self.metrics.counter("cluster.attempt_failures").inc()
                    self.metrics.counter(
                        f"shard.{shard_id}.attempt_failures"
                    ).inc()
                    continue
                rep.mark_success()
                self.metrics.counter(f"shard.{shard_id}.queries").inc()
                if attempts > 1 or not all_healthy:
                    # This read either retried past a failure or ran
                    # while the shard was short a replica: failover
                    # absorbed a fault without degrading the answer.
                    # (A round-robin read on an all-healthy shard is
                    # normal load spreading, not a failover.)
                    self.metrics.counter("cluster.failovers").inc()
                    self.metrics.counter(f"shard.{shard_id}.failovers").inc()
                return result
        return None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, doc) -> int:
        """Route ``doc`` to its shard and insert on every live replica.

        Returns the shard id.  Each replica applies the write under its
        service's exclusive lock and bumps its index epoch, so cached
        cluster answers (stamped with the epoch sum) go stale at once.
        A dead replica misses the write — reviving one requires a
        rebuild from the manifest, not a restart (no anti-entropy).
        """
        return self._write("insert", doc)[0]

    def delete(self, doc) -> bool:
        """Route a delete to the owning shard's live replicas; True when
        the primary-path replica found every tuple."""
        return self._write("delete", doc)[1]

    def _write(self, kind: str, doc) -> Tuple[int, bool]:
        """``insert``/``delete`` ``doc`` on its shard's live replicas,
        then hand it to the standing queries: both in the cluster write
        lock, the stream work after the topology read side is released.
        Returns ``(shard id, whether a replica found the document)``."""
        if self._closed:
            raise ServiceClosed("cluster service is closed")
        with self._writes:
            self._topology.acquire_read()
            try:
                sid = self.partitioner.shard_of(doc)
                found = any(self._on_live(sid, lambda svc: getattr(svc, kind)(doc)))
                self.metrics.counter("cluster.mutations").inc()
                if kind == "insert" or found:
                    self._count(sid, 1 if kind == "insert" else -1)
            finally:
                self._topology.release_read()
            if self._streams is not None:
                # Standing queries are plain top-k: a temporal document
                # is scored as the document it stamps.
                plain = getattr(doc, "doc", doc)
                self._streams.matcher.handle(MutationEvent(kind, self.epoch, plain))
        return sid, found

    def _on_live(self, sid: int, call) -> List[Any]:
        """``call(service)`` on every live replica of shard ``sid``;
        what each returned."""
        returned = [call(rep.service) for rep in self._shards[sid] if rep.alive]
        if not returned:
            raise ServiceClosed(f"shard {sid} has no live replica to write")
        return returned

    def _count(self, sid: int, delta: int) -> None:
        if self.manifest is not None:
            info = self.manifest.shards[sid]
            info.num_documents = max(0, info.num_documents + delta)

    # ------------------------------------------------------------------
    # Time control (temporal shards only)
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Advance the temporal watermark of every live replica
        (:meth:`repro.service.QueryService.advance`, which refuses an
        I3 shard with ``ValueError``)."""
        self._each_live_service(lambda service: service.advance(now))

    def expire(self, now: Optional[float] = None) -> Dict[int, List[int]]:
        """Rolling retention on every live replica; returns ``{shard
        id: dropped slice ids}``.  A drop bumps that replica's index
        epoch, which is all it takes to retire cached cluster answers
        (stamped with the epoch sum) and the shard's router bounds; a
        drop re-answers every standing query."""
        with self._writes:
            dropped = self._each_live_service(lambda service: service.expire(now))
            if self._streams is not None and any(dropped.values()):
                self._streams.matcher.refresh_all()
        return dropped

    def _each_live_service(self, call) -> Dict[int, Any]:
        """``call(service)`` on every live replica under the topology
        read lock; ``{shard id: what its first live replica returned}``."""
        if self._closed:
            raise ServiceClosed("cluster service is closed")
        self._topology.acquire_read()
        try:
            returned: Dict[int, Any] = {}
            for sid, replicas in enumerate(self._shards):
                for rep in replicas:
                    if rep.alive:
                        result = call(rep.service)
                        returned.setdefault(sid, result)
            return returned
        finally:
            self._topology.release_read()

    # ------------------------------------------------------------------
    # Workload planning (repro.planner)
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Fold every subsequent query into ``recorder`` (a
        :class:`~repro.planner.QueryLogRecorder`); pass ``None`` to
        detach.  Recording is O(1) per query and never changes answers,
        so a production cluster can run with the recorder always on and
        feed ``repro plan`` / :meth:`rebalance` from live traffic."""
        self._recorder = recorder

    def rebalance(self, partitioner) -> Dict[str, Any]:
        """Re-partition the live cluster onto ``partitioner``.

        Runs under the topology write lock: queries and mutations drain
        first and block for the duration, so no query ever observes a
        half-moved corpus.  Documents are enumerated from each shard's
        first live replica (:meth:`~repro.core.index.I3Index.documents`
        reconstructs them with their exact stored f32 weights), moved
        by delete+insert on every live replica of the source and target
        shards (each move bumps the shard epochs, so cached answers
        stamped with the old epoch sum invalidate), and the partitioner
        (which carries the routing geometry) and manifest are swapped
        atomically at the end.
        Answers are byte-identical before and after — the
        ``planner-equivalence`` simtest invariant.

        The new partitioner must keep the shard count and data space;
        returns ``{"moved", "shards", "epoch"}``.
        """
        if self._closed:
            raise ServiceClosed("cluster service is closed")
        if partitioner.num_shards != self.num_shards:
            raise ValueError(
                f"rebalance cannot change the shard count "
                f"({self.num_shards} -> {partitioner.num_shards})"
            )
        if partitioner.space != self.partitioner.space:
            raise ValueError("rebalance cannot change the data space")
        if self.temporal is not None:
            # A move is delete + insert of the *timestamped* document,
            # and the retention horizon may refuse the insert half.
            raise ValueError("rebalance cannot move temporal shards")
        self._topology.acquire_write()
        try:
            moves: List[Tuple[Any, int, int]] = []
            for sid in range(self.num_shards):
                rep = self._first_alive(sid)
                if rep is None:
                    if self._provably_empty(sid):
                        continue  # empty and dead: nothing to move
                    raise ServiceClosed(
                        f"shard {sid} has no live replica to rebalance from"
                    )
                docs = rep.read(
                    lambda _t, _rep=rep: _rep.index.documents()
                )
                for doc in docs:
                    dst = partitioner.shard_of(doc)
                    if dst != sid:
                        moves.append((doc, sid, dst))
            for doc, src, dst in moves:
                self._on_live(dst, lambda service: service.insert(doc))
                self._on_live(src, lambda service: service.delete(doc))
                self._count(src, -1)
                self._count(dst, 1)
            self.partitioner = partitioner
            with self._bounds_lock:
                # Epoch validation would catch moved shards on its own,
                # but a rebalance that moves nothing still swaps the
                # routing geometry — flush outright.
                self._bounds_cache.clear()
            if self.manifest is not None:
                self.manifest.partitioner = partitioner.kind
                self.manifest.params = partitioner.manifest_params()
            self.metrics.counter("cluster.rebalances").inc()
            self.metrics.counter("cluster.docs_moved").inc(len(moves))
            return {
                "moved": len(moves),
                "shards": self.num_shards,
                "epoch": self.epoch,
            }
        finally:
            self._topology.release_write()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """Cluster metrics plus a per-shard rollup.

        The rollup aggregates every replica service's counters twice:
        summed across the cluster (``rollup.totals``) and labelled per
        shard (``rollup.per_shard``, names like
        ``queries.completed{shard=3}``) — the flat label form a metrics
        pipeline ingests directly.
        """
        snapshot = self.metrics.as_dict()
        uptime = self._now() - self._started
        snapshot["cluster"] = {
            "num_shards": self.num_shards,
            "replicas": self.config.replicas,
            "partitioner": getattr(self.partitioner, "kind", "unknown"),
            "uptime_s": uptime,
            "closed": self._closed,
        }
        if self.cache is not None:
            snapshot["cache"] = self.cache.stats()
        totals: Dict[str, float] = {}
        per_shard: Dict[str, float] = {}
        shards: Dict[str, Any] = {}
        for sid, replicas in enumerate(self._shards):
            shard_counters: Dict[str, float] = {}
            for rep in replicas:
                for name, value in rep.service.metrics.as_dict()[
                    "counters"
                ].items():
                    shard_counters[name] = shard_counters.get(name, 0) + value
            for name, value in sorted(shard_counters.items()):
                per_shard[f"{name}{{shard={sid}}}"] = value
                totals[name] = totals.get(name, 0) + value
            shards[str(sid)] = {
                "documents": (
                    self.manifest.shards[sid].num_documents
                    if self.manifest is not None
                    else None
                ),
                "replicas": [rep.describe() for rep in replicas],
            }
        snapshot["shards"] = shards
        snapshot["rollup"] = {"totals": totals, "per_shard": per_shard}
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def save_manifest(self, path: str) -> None:
        """Persist the shard manifest (see ``docs/format_i3ix.md``)."""
        if self.manifest is None:
            raise ValueError("this cluster was built without a manifest")
        self.manifest.save(path)

    def close(self) -> None:
        """Close every replica service. Idempotent."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._streams is not None:
            self._streams.close()
        for replicas in self._shards:
            for rep in replicas:
                rep.service.close()
                if rep.service.durable is not None:
                    rep.service.durable.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
