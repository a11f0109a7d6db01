"""The concurrent query service: a serving tier above the I3 index.

The library below this module is a single-caller embedding; a
production search tier (the ROADMAP's north star, and what FAST
(arXiv:1709.02529) builds for spatio-textual data) needs the layer this
module provides:

* **one turn at a time** — a single traversal thread per service, fed
  by a FIFO queue, so queries take turns in the order they were
  admitted (under one interpreter lock a second traversal thread only
  adds hand-offs: DESIGN.md "Taking turns"); an unbudgeted
  ``search``/``search_many`` that finds the service idle takes its turn
  on the caller's thread instead of handing it to the lane;
* **admission control** — a configurable pending limit with load
  shedding (:class:`~repro.service.errors.ServiceOverloaded`) for
  interactive callers and blocking backpressure for batch callers;
* **per-query deadlines** — queries that expire while queued are never
  executed, and waiters stop waiting
  (:class:`~repro.service.errors.QueryTimeout`);
* a **result cache** (epoch-invalidated on insert/delete), read at
  admission: a task it answers whole takes no turn on the lane;
* **serving metrics** — counters, queue-depth gauges and reservoir
  latency histograms exported by
  :meth:`QueryService.metrics_snapshot` and, as a Prometheus page, by
  ``repro serve``.

The lane and out-of-band readers (:meth:`QueryService.read`) hold the
shared side of one lock; mutations submitted through
:meth:`QueryService.insert` / :meth:`QueryService.delete` /
:meth:`QueryService.mutate` take the exclusive side, so queries never
observe a half-applied update.  Results are exactly those of calling
``I3Index.query`` sequentially — how many callers there are changes
who waits for whom, never answers.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.index import I3Index
from repro.core.recovery import DurableIndex, RecoveryReport
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.service.admission import AdmissionController
from repro.service.cache import QueryResultCache
from repro.service.errors import (
    QueryTimeout,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.service.metrics import MetricsRegistry
from repro.temporal.index import TemporalIndex

__all__ = ["ServiceConfig", "QueryService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`QueryService`.

    Attributes:
        max_pending: Admission limit — queued plus running queries; a
            non-blocking submit beyond it is shed.
        timeout: Per-query deadline in seconds (``None`` = no deadline):
            enforced both while queued (expired queries are never run)
            and while the caller waits for the result.
        cache_capacity: Result-cache entries; ``0`` disables the cache.
        metrics_seed: Seed for the histogram reservoirs (reproducible
            quantiles in tests/benchmarks); ``None`` = nondeterministic.
    """

    max_pending: int = 64
    timeout: Optional[float] = None
    cache_capacity: int = 256
    metrics_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ValueError(
                f"max_pending must be positive, got {self.max_pending}"
            )
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            # The chained comparison also rejects NaN, which would
            # otherwise slip through and disarm every deadline, and
            # infinity, which no lock can wait for ("never" is None).
            raise ValueError(
                f"timeout must be positive and finite, got {self.timeout}"
            )
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )


class _ReadWriteLock:
    """Writer-preferring shared/exclusive lock.

    Queries hold the shared side; mutations the exclusive side.  A
    waiting writer blocks new readers, so a steady query stream cannot
    starve updates.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self, blocking: bool = True) -> bool:
        """Take the shared side; ``blocking=False`` takes it only if no
        writer holds or waits for the lock, and says whether it did."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: not self._writer and not self._writers_waiting,
                None if blocking else 0,
            ):
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                self._cond.wait_for(lambda: not self._writer and self._readers == 0)
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class _PageReads:
    """An ``IOStats.tee`` sink that sums the pages read (a rewrite reads
    them too): all a task's ``io.reads_per_query`` needs."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages = 0

    def record_read(self, component: str, pages: int = 1, key=None) -> None:
        self.pages += pages

    record_rewrite = record_read

    def record_write(self, component: str, pages: int = 1, key=None) -> None:
        pass


class _Task:
    """One admitted unit of work waiting in (or leaving) the queue.

    Always a batch: ``queries`` is a list, of length one when ``single``
    — the future then resolves to that query's result (or raises its
    exception) instead of to the list of slots.  ``deadline`` is
    ``enqueued + timeout`` (``None`` without a timeout).  ``hits`` are
    the result-cache answers admission found, read at ``stamp`` (the
    served index and its epoch).
    """

    __slots__ = ("queries", "future", "enqueued", "timeout", "deadline",
                 "single", "hits", "stamp")

    def __init__(
        self, queries: List[Any], enqueued: float,
        timeout: Optional[float], single: bool,
    ) -> None:
        self.queries = queries
        self.future: "Future" = Future()
        self.enqueued = enqueued
        self.timeout = timeout
        self.deadline = None if timeout is None else enqueued + timeout
        self.single = single
        self.hits: Dict[TopKQuery, List[Any]] = {}
        self.stamp: Any = None


_SHUTDOWN = object()


def _lock_wait(timeout: Optional[float]) -> Optional[float]:
    """``timeout`` as a lock accepts it.  A caller's budget may be any
    positive float (a wire peer's ``deadline_ms: 1e300``, an unbounded
    cluster slice spelled ``inf``); a lock waits TIMEOUT_MAX at most."""
    return None if timeout is None else min(timeout, threading.TIMEOUT_MAX)


class QueryService:
    """A query service over one index: many callers, one turn at a time.

    Every query — ``submit``, ``search``, a ``search_many`` batch — is
    first looked up in the result cache on the caller's thread; a task
    the cache answers whole resolves there.  The rest are admitted.  An
    unbudgeted ``search``/``search_many`` that finds nothing queued or
    running takes its turn on the caller's thread; every other task
    joins one FIFO queue executed by the service's single traversal
    thread, so the queue *is* the turn order and the ``queue_wait_ms``
    histogram is the time a query waited for its turn.

    ``target`` is anything with the index shape — ``query``, ``epoch``,
    ``stats``, ``space`` and ``insert_document``/``delete_document``:
    an :class:`~repro.core.index.I3Index` (results are
    :class:`~repro.model.results.ScoredDoc` lists), the :mod:`repro.db`
    raw-text facade (results are :class:`~repro.db.SearchHit` lists) or a
    :class:`~repro.temporal.TemporalIndex` — or a
    :class:`~repro.core.recovery.DurableIndex`, whose current ``index``
    answers queries while mutations go through the write-ahead log and
    :meth:`recover`/:meth:`checkpoint` are available.  Either way the
    lane shares the target's decoded-cell cache and I/O counters with
    :meth:`read` callers, streams and anyone using the index directly —
    the storage layer's locks (see :mod:`repro.storage`) make that safe.

    Use as a context manager or call :meth:`close` when done.
    """

    def __init__(
        self,
        target: Any,
        config: Optional[ServiceConfig] = None,
        ranker: Optional[Ranker] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        executor: Optional[Any] = None,
    ) -> None:
        """``clock`` and ``executor`` are the deterministic-simulation
        seams (:mod:`repro.simtest`): ``clock`` replaces
        ``time.monotonic`` and ``executor`` (a
        :class:`~repro.simtest.SimScheduler`) replaces the lane's
        thread — queries then execute as cooperatively scheduled steps
        whose interleaving is a pure function of the scheduler's seed.
        Leave both ``None`` in production."""
        self.config = config if config is not None else ServiceConfig()
        self._now = clock if clock is not None else time.monotonic
        self._executor = executor
        self._durable: Optional[DurableIndex] = (
            target if isinstance(target, DurableIndex) else None
        )
        # The temporal handle only feeds slice gauges and the temporal
        # lifecycle methods; queries take the one index-shaped path.
        self._temporal: Optional[TemporalIndex] = (
            target if isinstance(target, TemporalIndex) else None
        )
        self._index = target.index if self._durable is not None else target
        self.target = target
        self._ranker = (
            ranker if ranker is not None else Ranker(self._index.space)
        )
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(seed=self.config.metrics_seed)
        )
        self.cache: Optional[QueryResultCache] = (
            QueryResultCache(self.config.cache_capacity)
            if self.config.cache_capacity
            else None
        )
        self._admission = AdmissionController(self.config.max_pending)
        self._streams = None  # lazily built by streams()
        self._rwlock = _ReadWriteLock()
        self._queue: "SimpleQueue" = SimpleQueue()
        # The turn: whoever runs _process holds it — the lane, or an
        # unbudgeted caller that found the service idle (_enqueue).
        self._turn = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._started = self._now()
        # The cache _collect_decoded_cells last copied, the counters' values
        # when it was first seen, and what it copied.
        self._decoded_cells = None
        self._decoded_base: Dict[str, int] = {}
        self._decoded_stats: Optional[Dict[str, int]] = None
        self._decoded_lock = threading.Lock()
        self._collect_decoded_cells()
        self.metrics.on_collect(self._collect_decoded_cells)
        if self._temporal is not None:
            self._temporal.bind_metrics(self.metrics, self.read)
        self._lane: Optional[threading.Thread] = None
        if executor is None:
            self._lane = threading.Thread(
                target=self._lane_loop, name="repro-query", daemon=True
            )
            self._lane.start()

    # ------------------------------------------------------------------
    # Query submission
    # ------------------------------------------------------------------
    def submit(self, query: TopKQuery, block: bool = False) -> "Future":
        """Enqueue a query; returns a future resolving to its results.

        With ``block=False`` (the default, for interactive traffic) a
        full service sheds the query by raising
        :class:`ServiceOverloaded`.  With ``block=True`` (batch
        traffic) the call waits for admission instead — backpressure,
        not failure.
        """
        return self._enqueue([query], block, self.config.timeout, single=True)

    def search(
        self, query: TopKQuery, timeout: Optional[float] = None
    ) -> List[Any]:
        """Submit one query and wait for its results.

        ``timeout`` is the caller's own remaining deadline in seconds (a
        wire request's ``deadline_ms``, a shard attempt's slice of the
        cluster deadline); the query's budget is the tighter of it and
        the configured per-query timeout.  The budget bounds the wait —
        a caller never blocks longer than the deadline it was promised,
        even if the lane is still grinding on its query — and a query
        still queued when it runs out is never executed.  Without a
        budget there is nothing to stop waiting at: if nothing is queued
        or running, the query takes its turn on this thread.
        """
        budget = self._budget(timeout)
        return self._wait(
            self._enqueue(
                [query], False, budget, single=True, inline=budget is None
            ),
            budget,
        )

    def search_many(
        self,
        queries: Sequence[TopKQuery],
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Answer a batch as ONE unit of work; one slot per query, in
        input order.

        The batch occupies one admission slot (waiting for it rather
        than shedding, so arbitrarily large batches flow through the
        bounded queue) and takes one turn under one
        read-lock acquisition — one epoch for every answer, identical
        queries executed once.  The wait for the slot is charged to the
        budget: a batch the gate never admitted in time raises
        :class:`QueryTimeout` (``queued=True``) from this call, whatever
        ``return_exceptions`` says — that flag governs the slots of an
        admitted batch.  Failures are isolated per slot, never poisoning
        the rest of the batch: a slot is the query's result list or the
        exception it raised (:class:`QueryTimeout` for queries the
        budget — see :meth:`search` — expired on).  With
        ``return_exceptions=False`` (default) the first failed slot is
        raised, after the whole batch ran; with ``True`` the slots are
        returned as they are.
        """
        queries = list(queries)
        if not queries:
            return []
        budget = self._budget(timeout)
        slots = self._wait(
            self._enqueue(queries, True, budget, inline=budget is None), budget
        )
        if not return_exceptions:
            for slot in slots:
                if isinstance(slot, BaseException):
                    raise slot
        return slots

    def _budget(self, timeout: Optional[float]) -> Optional[float]:
        """The tighter of the configured timeout and the caller's."""
        own = self.config.timeout
        if timeout is None or (own is not None and own < timeout):
            return own
        return timeout

    def _enqueue(
        self,
        queries: List[TopKQuery],
        block: bool,
        timeout: Optional[float],
        single: bool = False,
        inline: bool = False,
    ) -> "Future":
        """Admit ``queries`` as one task and queue it — unless the result
        cache answers all of them (:meth:`_lookup`), or ``inline`` (an
        unbudgeted ``search``/``search_many``, whose caller waits for the
        answer anyway) finds the service idle and takes its turn right
        here (DESIGN.md §8, "Who takes the turn").  The task's clock
        starts before admission, so a blocking wait for a slot spends
        (and is bounded by) the same ``timeout`` the queue checks."""
        if self._closed:
            raise ServiceClosed("service is closed")
        self.metrics.counter("queries.submitted").inc(len(queries))
        if not single:
            self.metrics.counter("batches.submitted").inc()
        task = _Task(queries, self._now(), timeout, single)
        if self._lookup(task):
            return task.future
        if not block:
            if not self._admission.try_acquire():
                self.metrics.counter("queries.shed").inc(len(queries))
                raise ServiceOverloaded(self._admission.pending, self.config.max_pending)
        elif not self._admission.acquire(_lock_wait(timeout)):
            self.metrics.counter("queries.timed_out").inc()
            raise QueryTimeout(timeout, queued=True)
        if self._closed:  # closed while we waited for admission
            self._admission.release()
            raise ServiceClosed("service is closed")
        if inline and self._turn.acquire(blocking=False):
            # Read under the turn, ``pending == 1`` means this task is
            # alone: nothing queued, nothing the lane dequeued and has yet
            # to start.  The turn is never waited for here, so the queue
            # alone still orders everyone who is not alone.
            try:
                if self._admission.pending == 1:
                    self._process(task)
                    return task.future
            finally:
                self._turn.release()
        self.metrics.gauge("queue.depth").inc()
        self._queue.put(task)
        if self._executor is not None:
            # Sim mode: one scheduler thunk stands in for one dequeue by
            # the lane — it runs when the seeded scheduler picks it.
            self._executor.spawn(self._step_once)
        return task.future

    def _lookup(self, task: _Task) -> bool:
        """The service's one result-cache read, on the caller's thread
        (DESIGN.md §8, "One cache read, at admission").

        Every distinct query is looked up at one epoch under the shared
        lock, so an entry of an index :meth:`recover` replaced cannot
        pass for the new one.  The lock is never waited for: during a
        write (possibly this thread's own, submitting from inside
        :meth:`mutate`) the task skips the lookup and queues.  A task
        that hits whole resolves here — completed, one 0.0 observed in
        ``io.reads_per_query``, no slot, no queue, no turn, hence no
        ``queue_wait_ms`` or ``latency_ms``.  Otherwise its hits ride
        along for the lane.  Returns whether the task resolved.
        """
        cache = self.cache
        try:
            distinct = dict.fromkeys(task.queries)
        except TypeError:  # unhashable: the lane fails it in its own slot
            return False
        if cache is None or not self._rwlock.acquire_read(blocking=False):
            return False
        try:
            epoch = self._index.epoch
            task.stamp = (self._index, epoch)
            for query in distinct:
                hit = cache.get((query, self._ranker.alpha), epoch)
                if hit is not None:
                    task.hits[query] = hit
        finally:
            self._rwlock.release_read()
        if len(task.hits) < len(distinct):
            return False
        slots = [list(task.hits[query]) for query in task.queries]
        self.metrics.counter("queries.completed").inc(len(slots))
        self.metrics.histogram("io.reads_per_query").observe(0.0)
        task.future.set_result(slots[0] if task.single else slots)
        return True

    def _wait(self, future: "Future", timeout: Optional[float]) -> Any:
        """Block until ``future`` resolves, for at most ``timeout`` seconds.

        The one place that knows how to wait: on a thread in production;
        under the simulation executor by driving the cooperative
        scheduler, so the future is resolved (or left unresolved) by
        simulated work alone.  Running out of time is a
        :class:`QueryTimeout`, counted under ``queries.timed_out`` here
        and — the future being cancelled if its task is still queued —
        not a second time when the lane later dequeues it.
        """
        wait = _lock_wait(timeout)
        if self._executor is not None:
            self._executor.run_until(future.done)
            wait = 0
        try:
            return future.result(wait)
        except FutureTimeout:
            future.cancel()
            self.metrics.counter("queries.timed_out").inc()
            raise QueryTimeout(timeout or 0.0, queued=False) from None

    # ------------------------------------------------------------------
    # Mutations (exclusive with respect to queries)
    # ------------------------------------------------------------------
    def insert(self, *args, **kwargs):
        """``target.insert_document(*args, **kwargs)`` under the write
        lock (a database target takes ``doc_id, x, y, text``).

        The index epoch bump makes every cached result stale (the
        cache validates epochs), so queries after the insert always
        see it.  On a durable target the mutation is logged to the WAL
        before the index is touched.
        """
        return self.mutate(lambda t: t.insert_document(*args, **kwargs))

    def delete(self, *args, **kwargs):
        """``target.delete_document(*args, **kwargs)`` under the write
        lock (a database target takes ``doc_id``)."""
        return self.mutate(lambda t: t.delete_document(*args, **kwargs))

    def mutate(self, fn):
        """Run ``fn(target)`` holding the exclusive lock.

        The escape hatch for compound mutations (move, reweigh, bulk
        import): no query runs while ``fn`` does.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        self._rwlock.acquire_write()
        try:
            result = fn(self.target)
            if self._streams is not None:
                self._streams.rebind(self.index)
        finally:
            self._rwlock.release_write()
        self.metrics.counter("mutations").inc()
        return result

    def read(self, fn):
        """Run ``fn(target)`` holding the shared lock.

        For out-of-band consistent reads of index metadata — the cluster
        router reads per-keyword score bounds and the mutation epoch this
        way, so a concurrent :meth:`mutate` can never expose a
        half-applied update to routing decisions.
        """
        self._rwlock.acquire_read()
        try:
            return fn(self.target)
        finally:
            self._rwlock.release_read()

    # ------------------------------------------------------------------
    # Durability (durable targets only)
    # ------------------------------------------------------------------
    @property
    def durable(self) -> Optional[DurableIndex]:
        """The durable target, or ``None`` for in-memory targets."""
        return self._durable

    @property
    def index(self) -> I3Index:
        """The index currently being served (changes on :meth:`recover`,
        and on a database target's ``reweigh``, whose live ``index`` this
        is)."""
        return getattr(self._index, "index", self._index)

    @property
    def epoch(self) -> int:
        """The served index's mutation epoch."""
        return self._index.epoch

    # ------------------------------------------------------------------
    # Streaming (standing queries)
    # ------------------------------------------------------------------
    def streams(self):
        """The service's :class:`~repro.streaming.StreamingService`.

        Built lazily on first call; later calls return the same
        instance.  Standing-query maintenance runs inside the same
        exclusive lock as the mutation that triggered it, so subscribers
        never observe a top-k computed against a half-applied update,
        and the stream follows the service onto every index it swaps in
        (:meth:`recover`, a database target's ``reweigh``).  On a closed
        service (which mutates nothing) the stream's exclusive section
        runs directly, so teardown still proceeds.
        """
        if self._streams is None:
            from repro.streaming.service import StreamingService

            stream = StreamingService(
                self.index.space, self.metrics,
                answer=lambda query, ranker: self.index.query(query, ranker),
                ranker=lambda alpha: Ranker(self.index.space, alpha),
                stamp=lambda: (self.index.epoch, getattr(self._durable, "last_lsn", None)),
                exclusive=lambda fn: fn() if self._closed else self.mutate(lambda _t: fn()),
            )
            stream.rebind(self.index)
            self._streams = stream
        return self._streams

    def recover(self) -> RecoveryReport:
        """Rebuild the served index from disk, under the write lock.

        No query observes a half-recovered index: readers drain first,
        the snapshot+WAL replay runs exclusively, the service swaps to
        the recovered index and invalidates the result cache, then
        reads resume.  Restarted shards call this to rejoin with their
        mutation epoch exactly where the acknowledged history left it.
        """
        if self._durable is None:
            raise ValueError("recover() requires a DurableIndex target")
        if self._closed:
            raise ServiceClosed("service is closed")
        self._rwlock.acquire_write()
        try:
            report = self._durable.recover()
            self._index = self._durable.index
            if self.cache is not None:
                self.cache.invalidate()
            if self._streams is not None:
                self._streams.rebind(self.index)
        finally:
            self._rwlock.release_write()
        self.metrics.counter("service.recoveries").inc()
        return report

    def checkpoint(self) -> None:
        """Snapshot the durable target under the write lock, resetting
        its log (bounds replay work after the next crash).  On a
        temporal target with a durable root, persists every slice."""
        if self._temporal is not None and self._temporal.durable_root is not None:
            store: Any = self._temporal
        elif self._durable is not None:
            store = self._durable
        else:
            raise ValueError("checkpoint() requires a DurableIndex target")
        if self._closed:
            raise ServiceClosed("service is closed")
        self._rwlock.acquire_write()
        try:
            store.checkpoint()
        finally:
            self._rwlock.release_write()
        self.metrics.counter("service.checkpoints").inc()

    # ------------------------------------------------------------------
    # Temporal lifecycle (temporal targets only)
    # ------------------------------------------------------------------
    @property
    def temporal(self) -> Optional[TemporalIndex]:
        """The temporal target, or ``None``."""
        return self._temporal

    def advance(self, now: float) -> None:
        """Advance the temporal watermark under the write lock."""
        if self._temporal is None:
            raise ValueError("advance() requires a TemporalIndex target")
        self.mutate(lambda _target: self._temporal.advance(now))

    def expire(self, now: Optional[float] = None) -> List[int]:
        """Apply rolling retention under the write lock.

        Returns the dropped slice ids.  The epoch bump inside
        :meth:`TemporalIndex.expire` invalidates cached results, and
        standing queries observe the per-document delete events the
        drop emits, so subscribers age results out consistently.
        """
        if self._temporal is None:
            raise ValueError("expire() requires a TemporalIndex target")
        return self.mutate(lambda _target: self._temporal.expire(now))

    # ------------------------------------------------------------------
    # The lane
    # ------------------------------------------------------------------
    def _lane_loop(self) -> None:
        while True:
            task = self._queue.get()
            with self._turn:
                if task is _SHUTDOWN:
                    # Taking the turn first lets close() join a caller's
                    # task still running inline, like any admitted task.
                    return
                self.metrics.gauge("queue.depth").dec()
                self._process(task)

    def _step_once(self) -> None:
        """Sim-mode lane step: dequeue and process at most one task."""
        try:
            task = self._queue.get_nowait()
        except Empty:
            return
        with self._turn:
            self.metrics.gauge("queue.depth").dec()
            self._process(task)

    def _process(self, task: _Task) -> None:
        """Take one turn: deadline check, execute, resolve.  The caller
        holds ``_turn``: the lane for a dequeued task, ``_enqueue`` for
        an unbudgeted one that found the service idle."""
        now = self._now()
        if not task.future.set_running_or_notify_cancel():
            # Abandoned while queued, by a waiter that counted the expiry.
            self._admission.release()
            return
        if task.deadline is not None and now >= task.deadline:
            # Expired while queued: shed the work, fail the waiter.
            self.metrics.counter("queries.timed_out").inc(len(task.queries))
            self._admission.release()
            task.future.set_exception(QueryTimeout(task.timeout, queued=True))
            return
        self.metrics.histogram("queue_wait_ms").observe(
            (now - task.enqueued) * 1000.0
        )
        self.metrics.gauge("queries.inflight").inc()
        try:
            started = self._now()
            slots = self._run(task)
            self.metrics.histogram("latency_ms").observe(
                (self._now() - started) * 1000.0
            )
            if not task.single:
                task.future.set_result(slots)
            elif isinstance(slots[0], BaseException):
                task.future.set_exception(slots[0])
            else:
                task.future.set_result(slots[0])
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiter
            self.metrics.counter("queries.failed").inc(len(task.queries))
            task.future.set_exception(exc)
        finally:
            self.metrics.gauge("queries.inflight").dec()
            self._admission.release()

    def _run(self, task: _Task) -> List[Any]:
        """Answer a task's queries; one slot per query, in order.

        The whole task runs under ONE shared-lock acquisition, so every
        answer sees the same index epoch.  Per slot: the deadline guard
        (a query the task's deadline expires on becomes a
        :class:`QueryTimeout` while earlier queries keep their results),
        then the answer — admission's cache hit, else computed once per
        distinct query, each occurrence getting its own copy of the
        list — or the exception the query raised.  If the epoch moved
        since admission the hits are dropped and every query computed.
        Failures are never remembered: a later duplicate of a failed
        query is attempted again.
        """
        slots: List[Any] = []
        timed_out = failed = 0
        local = _PageReads()
        self._rwlock.acquire_read()
        try:
            epoch = self._index.epoch
            answered = task.hits if task.stamp == (self._index, epoch) else {}
            with self._index.stats.tee(local):
                for query in task.queries:
                    try:
                        if (
                            task.deadline is not None
                            and self._now() >= task.deadline
                        ):
                            raise QueryTimeout(task.timeout, queued=False)
                        hit = answered.get(query)
                        if hit is None:
                            hit = answered[query] = self._answer(query, epoch)
                        slots.append(list(hit))
                    except QueryTimeout as exc:
                        timed_out += 1
                        slots.append(exc)
                    except Exception as exc:  # noqa: BLE001 - its slot
                        failed += 1
                        slots.append(exc)
        finally:
            self._rwlock.release_read()
        counter = self.metrics.counter
        counter("queries.completed").inc(len(slots) - timed_out - failed)
        if timed_out:
            counter("queries.timed_out").inc(timed_out)
        if failed:
            counter("queries.failed").inc(failed)
        self.metrics.histogram("io.reads_per_query").observe(
            local.pages / len(slots)
        )
        return slots

    def _answer(self, query: TopKQuery, epoch: int) -> List[Any]:
        """One query against the target, stored in the result cache.

        Keyed by ``(query, alpha)`` and stamped with ``epoch``, so a
        lookup after any mutation misses.  The lane only writes the
        cache: :meth:`_lookup` is its one read.
        """
        answer = self._index.query(query, self._ranker)
        if self.cache is not None:
            self.cache.put((query, self._ranker.alpha), epoch, answer)
        return answer

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _collect_decoded_cells(self) -> None:
        """Copy the served data file's decoded-cell cache onto the registry.

        The registry runs this whenever it is read, so a snapshot, the
        Prometheus exposition and the cluster's per-shard rollup see
        ``decoded_cells.{hits,misses,evictions}`` (counters) and
        ``decoded_cells.{bytes,entries}`` (gauges) as of that read, and a
        query pays nothing for them.  The cache is the *current* index's
        (absent on temporal stores and index-shaped test doubles): a
        rebuilt or recovered index brings a fresh cache, and the counters
        carry on from the retired cache's last counts.
        """
        cells = getattr(getattr(self._index, "data", None), "cells", None)
        if cells is None:
            return
        with self._decoded_lock:
            if cells is not self._decoded_cells:
                if self._decoded_cells is not None:
                    self._copy_decoded_cells(self._decoded_cells)
                self._decoded_cells = cells
                self._decoded_base = {
                    name: self.metrics.counter(f"decoded_cells.{name}").value
                    for name in ("hits", "misses", "evictions")
                }
            self._decoded_stats = self._copy_decoded_cells(cells)

    def _copy_decoded_cells(self, cells) -> Dict[str, int]:
        """Set ``decoded_cells.*`` to ``cells``' counts (plus the base)."""
        stats = cells.stats()
        for name, base in self._decoded_base.items():
            stats[name] += base
            counter = self.metrics.counter(f"decoded_cells.{name}")
            counter.inc(stats[name] - counter.value)
        for name in ("bytes", "entries"):
            self.metrics.gauge(f"decoded_cells.{name}").set(stats[name])
        return stats

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Everything observable about the service, as one plain dict.

        Merges the metrics registry (counters/gauges/histograms), the
        result-cache counters, the data file's decoded-cell counters
        (when the index has them) and derived service-level figures
        (uptime, completed queries per second).
        ``decoded_cells.hits + decoded_cells.misses`` is the number of
        keyword cells the vector engine asked for; only the misses read
        pages, so ``io.reads_per_query`` counts warm queries' head-file
        reads plus the cells they were first to touch.
        """
        snapshot = self.metrics.as_dict()
        uptime = self._now() - self._started
        completed = snapshot["counters"].get("queries.completed", 0)
        snapshot["service"] = {
            "max_pending": self.config.max_pending,
            "timeout_s": self.config.timeout,
            "uptime_s": uptime,
            "qps": completed / uptime if uptime > 0 else 0.0,
            "closed": self._closed,
        }
        snapshot["admission"] = self._admission.snapshot()
        if self.cache is not None:
            snapshot["cache"] = self.cache.stats()
        if self._temporal is not None:  # what the read just collected
            snapshot["temporal"] = self._temporal.collected_stats
        if self._decoded_stats is not None:
            snapshot["decoded_cells"] = self._decoded_stats
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service.

        With ``drain=True`` (default) already-admitted queries finish
        first; with ``drain=False`` queued queries fail with
        :class:`ServiceClosed` without executing.  ``timeout`` bounds
        the join of the lane's thread.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._streams is not None:
            self._streams.close()
        if not drain:
            # Fail everything still queued; the sentinel goes in behind.
            while True:
                try:
                    task = self._queue.get_nowait()
                except Empty:
                    break
                self.metrics.gauge("queue.depth").dec()
                self._admission.release()
                if task.future.set_running_or_notify_cancel():
                    task.future.set_exception(ServiceClosed("service closed"))
        if self._lane is not None:
            self._queue.put(_SHUTDOWN)
            self._lane.join(timeout)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
