"""How queries take turns: a ``QueryService`` takes one turn at a time.

One traversal thread per service, fed by the admission-bounded FIFO
queue — the queue is the turn order (DESIGN.md "Taking turns").  These
tests pin the lane itself (who owns which thread, the order of
execution, what a long task does to the one behind it, that a writer
still gets in), the one hole the policy made reachable — a batch
caller's budget must bound, and be charged for, its wait at the gate —
what a result-cache hit skips (the cache is read once, at admission, on
the caller's thread, so a task it answers whole takes no admission
slot, no queue entry and no turn), and who takes the turn: an
unbudgeted ``search``/``search_many`` that finds the service idle runs
on its caller's thread, everything else on the lane.
"""

import random
import sys
import threading
import time

import pytest

from repro.cluster import ClusterConfig, ClusterService, HashPartitioner
from repro.core.index import I3Index
from repro.model.query import TopKQuery
from repro.service import (
    QueryService,
    QueryTimeout,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
)
from repro.simtest.clock import SimClock, SimScheduler
from repro.spatial.geometry import UNIT_SQUARE
from tests.helpers import make_documents, stub_index, wait_for


def _query(k=3):
    return TopKQuery(0.5, 0.5, ("spicy",), k=k)


def _recording_index(gate=None, gated_k=1, hold=0.0):
    """A stub index that records every query it executes, in order, and
    the most it ever had inside at once.  The query with ``k ==
    gated_k`` blocks on ``gate``; every query holds for ``hold``
    seconds.  ``insert_document`` records how many queries had started
    when the write ran."""
    stub = stub_index()
    stub.order, stub.inside, stub.most, stub.writes = [], 0, 0, []
    stub.threads = []  # the thread each query ran on, in order
    lock = threading.Lock()

    def query(q, ranker=None, io_sink=None):
        with lock:
            stub.order.append(q.k)
            stub.threads.append(threading.get_ident())
            stub.inside += 1
            stub.most = max(stub.most, stub.inside)
        if gate is not None and q.k == gated_k:
            gate.wait(timeout=10)
        time.sleep(hold)
        with lock:
            stub.inside -= 1
        return [q.k]

    stub.query = query
    stub.insert_document = lambda doc: stub.writes.append(len(stub.order))
    return stub


def _lanes(before):
    return [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith("repro-query")
    ]


class TestOneLane:
    def test_a_running_service_owns_exactly_one_thread(self):
        before = set(threading.enumerate())
        service = QueryService(stub_index(), ServiceConfig())
        try:
            (lane,) = _lanes(before)
            callers = [
                threading.Thread(
                    target=lambda: [service.search(_query()) for _ in range(20)]
                )
                for _ in range(4)
            ]
            for t in callers:
                t.start()
            for t in callers:
                t.join()
            assert _lanes(before) == [lane]  # load grows the queue, not the pool
        finally:
            service.close()
        assert not lane.is_alive()  # close() joined it
        assert _lanes(before) == []

    def test_a_simulated_service_owns_no_thread(self):
        before = set(threading.enumerate())
        clock = SimClock()
        with QueryService(
            stub_index(), clock=clock, executor=SimScheduler(seed=0, clock=clock)
        ) as service:
            assert service.search(_query()) == [3]
            assert _lanes(before) == []

    def test_a_cluster_owns_one_lane_per_replica_and_no_other_thread(self):
        """The scatter visits shards on the caller's thread: the only
        threads a 4-shard cluster starts are its 4 shard lanes."""
        before = set(threading.enumerate())
        docs = make_documents(80, random.Random(3))
        with ClusterService.build(
            docs, HashPartitioner(4, UNIT_SQUARE), ClusterConfig()
        ) as cluster:
            for i in range(30):
                cluster.search(TopKQuery(0.1 * (i % 10), 0.5, ("spicy", "bar"), k=5))
            lanes = _lanes(before)
            assert len(lanes) == 4
            assert set(threading.enumerate()) - before == set(lanes)
        assert _lanes(before) == []

    def test_tasks_execute_in_admission_order_one_at_a_time(self):
        """``submit``, ``search`` and ``search_many`` share the queue:
        whatever verb admitted a task, it runs after everything admitted
        before it and never beside anything.  An unbudgeted ``search``
        that finds the turn held queues like the rest and is answered
        by the lane; once the service is idle again, the next one runs
        on its caller's thread."""
        gate = threading.Event()
        stub = _recording_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=16))
        waiters = []

        def admitted():
            return service.metrics_snapshot()["admission"]["admitted"]

        def in_a_thread(call, *args):
            count = admitted()
            thread = threading.Thread(target=call, args=args)
            thread.start()
            waiters.append(thread)
            wait_for(lambda: admitted() == count + 1)

        try:
            futures = [service.submit(_query(k=1))]       # holds the lane
            wait_for(lambda: stub.order == [1])
            futures.append(service.submit(_query(k=2)))
            in_a_thread(service.search, _query(k=3))
            in_a_thread(service.search_many, [_query(k=4), _query(k=5), _query(k=4)])
            futures.append(service.submit(_query(k=6), block=True))
            in_a_thread(service.search, _query(k=7))
            assert stub.order == [1]  # nobody overtook the running task
            gate.set()
            for thread in waiters:
                thread.join(timeout=5)
            assert [f.result(timeout=5) for f in futures] == [[1], [2], [6]]
            assert not any(thread.is_alive() for thread in waiters)
            (lane,) = set(stub.threads)  # every queued task: the lane's
            assert lane != threading.get_ident()
            assert service.search(_query(k=8)) == [8]
        finally:
            gate.set()
            service.close()
        # (the batch's duplicate k=4 is answered once: one execution)
        assert stub.order == [1, 2, 3, 4, 5, 6, 7, 8]
        assert stub.threads[-1] == threading.get_ident()
        assert stub.most == 1

    def test_a_single_queued_behind_a_long_batch_expires_unexecuted(self):
        """What a long task does to the one behind it: the single's own
        deadline still holds — it fails as ``queued`` the moment the
        lane reaches it, and is never run late."""
        gate = threading.Event()
        stub = _recording_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=8, timeout=0.05))
        batch_outcome = []

        def batch():
            try:
                service.search_many([_query(k=1), _query(k=2)])
            except QueryTimeout as exc:
                batch_outcome.append(exc)

        caller = threading.Thread(target=batch)
        try:
            caller.start()
            wait_for(lambda: stub.order == [1])  # the batch has the lane
            single = service.submit(_query(k=9))
            caller.join(timeout=5)  # its waiter gave up at the budget
            time.sleep(0.06)        # ...and the single's deadline lapsed
            gate.set()
            with pytest.raises(QueryTimeout) as err:
                single.result(timeout=5)
            assert err.value.queued
        finally:
            gate.set()
            service.close()
        assert len(batch_outcome) == 1 and not batch_outcome[0].queued
        assert 9 not in stub.order

    def test_a_writer_gets_in_while_callers_keep_the_queue_full(self):
        """Writer preference survives the lane: an ``insert`` waits for
        the task that is running, not for the queue to drain."""
        stub = _recording_index(hold=0.003)
        service = QueryService(stub, ServiceConfig(max_pending=4, cache_capacity=0))
        stop = threading.Event()
        errors = []

        def caller():
            try:
                while not stop.is_set():
                    assert service.submit(_query(), block=True).result(5) == [3]
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        callers = [threading.Thread(target=caller) for _ in range(8)]
        try:
            for t in callers:
                t.start()
            wait_for(lambda: len(stub.order) >= 20)
            wait_for(
                lambda: service.metrics_snapshot()["admission"]["pending"] == 4
            )
            started = len(stub.order)
            service.insert(object())
            # The task running when the insert was issued, at most one
            # more that took its turn before the writer had queued up.
            assert stub.writes[0] - started <= 2
        finally:
            stop.set()
            for t in callers:
                t.join(timeout=5)
            service.close()
        assert errors == [] and stub.most == 1


class _LaneWaitsFor:
    """A turn whose blocking acquire (the lane's) first waits for ``go``,
    holding the lane in the gap between dequeuing a task and starting
    it; a caller's non-blocking try is served at once."""

    def __init__(self, go):
        self._lock = threading.Lock()
        self._go = go

    def acquire(self, blocking=True):
        if blocking:
            self._go.wait(timeout=10)
        return self._lock.acquire(blocking)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class TestWhoTakesTheTurn:
    """An unbudgeted ``search``/``search_many`` that finds its service
    idle takes its turn on the caller's thread; a budgeted one, a
    ``submit`` and anything that finds someone ahead of it queue for
    the lane (DESIGN.md §8, "Who takes the turn")."""

    def test_an_unbudgeted_search_on_an_idle_service_runs_on_its_caller(self):
        stub = _recording_index()
        with QueryService(stub, ServiceConfig(cache_capacity=0)) as service:
            assert service.search(_query(k=1)) == [1]
            assert service.search_many([_query(k=2), _query(k=3)]) == [[2], [3]]
        assert stub.threads == [threading.get_ident()] * 3

    def test_a_budgeted_search_and_every_submit_run_on_the_lane(self):
        before = set(threading.enumerate())
        stub = _recording_index()
        with QueryService(stub, ServiceConfig(cache_capacity=0)) as service:
            (lane,) = _lanes(before)
            assert service.search(_query(k=1), timeout=5.0) == [1]
            assert service.search_many([_query(k=2)], timeout=5.0) == [[2]]
            assert service.submit(_query(k=3)).result(timeout=5) == [3]
            assert service.submit(_query(k=4), block=True).result(5) == [4]
        with QueryService(
            stub, ServiceConfig(cache_capacity=0, timeout=5.0)
        ) as configured:
            (other,) = _lanes(before | {lane})
            assert configured.search(_query(k=5)) == [5]  # the config's budget
        assert stub.threads == [lane.ident] * 4 + [other.ident]

    def test_a_search_does_not_overtake_a_task_the_lane_has_dequeued(self):
        """``pending`` is read under the turn: a task the lane has taken
        off the queue but not yet started still counts, so a caller that
        wins the turn in that gap queues behind it instead of running."""
        stub = _recording_index()
        service = QueryService(stub, ServiceConfig(cache_capacity=0))
        go = threading.Event()
        service._turn = _LaneWaitsFor(go)
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(service.search(_query(k=2)))
        )
        depth = service.metrics.gauge("queue.depth")
        try:
            held = service.submit(_query(k=1))
            wait_for(service._queue.empty)  # dequeued, waiting for `go`
            caller.start()  # finds the turn free, and k=1 ahead of it
            wait_for(lambda: depth.value == 2 or bool(stub.order))
            go.set()
            caller.join(timeout=5)
            assert not caller.is_alive()
            assert held.result(timeout=5) == [1]
        finally:
            go.set()
            service.close()
        assert answers == [[2]] and stub.order == [1, 2]

    def test_a_simulated_search_queues_behind_a_submit(self):
        """The same rule under the simulation executor: a submitted task
        not yet stepped is ahead of the search, which therefore queues
        and is answered second."""
        stub = _recording_index()
        clock = SimClock()
        with QueryService(
            stub, ServiceConfig(cache_capacity=0), clock=clock,
            executor=SimScheduler(seed=0, clock=clock),
        ) as service:
            held = service.submit(_query(k=1))
            assert service.search(_query(k=2)) == [2]
            assert held.result(timeout=0) == [1]
            assert service.search(_query(k=3)) == [3]  # idle: inline
        assert stub.order == [1, 2, 3]

    def test_an_inline_turn_keeps_the_metrics_contract(self):
        """A turn taken on the caller's thread is a turn: it completes
        its queries and observes ``latency_ms``, and leaves the in-flight
        gauge and the admission gate as it found them.  Never queued, it
        touches neither side of ``queue.depth``; a queued task after it
        brings the gauge back to 0."""
        with QueryService(
            _recording_index(), ServiceConfig(cache_capacity=0)
        ) as service:
            service.search(_query(k=1))
            service.search_many([_query(k=2), _query(k=3)])
            inline = service.metrics_snapshot()
            assert service.submit(_query(k=4)).result(timeout=5) == [4]
            queued = service.metrics_snapshot()
        assert inline["counters"]["queries.completed"] == 3
        assert inline["histograms"]["latency_ms"]["count"] == 2
        assert inline["histograms"]["io.reads_per_query"]["count"] == 2
        assert "queue.depth" not in inline["gauges"]
        assert inline["gauges"]["queries.inflight"] == 0
        assert inline["admission"]["pending"] == 0
        assert inline["admission"]["admitted"] == 2
        assert queued["gauges"]["queue.depth"] == 0
        assert queued["histograms"]["latency_ms"]["count"] == 3

    def test_mixed_callers_never_overlap_and_match_sequential(self):
        """Eight callers mixing ``search``, ``search_many`` and
        ``submit`` on one real index, switching threads every 10 µs:
        no two traversals ever overlap, and every answer is the
        sequential one."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for doc in make_documents(150, random.Random(7)):
            index.insert_document(doc)
        words = ("spicy", "bar", "cafe", "pizza")
        queries = [
            TopKQuery(x / 4, y / 4, (words[(x + y) % 4],), k=4)
            for x in range(5) for y in range(5)
        ]
        service = QueryService(index, ServiceConfig(cache_capacity=0))
        expected = {q: index.query(q, service._ranker) for q in queries}
        inside, overlaps, guard = [0], [], threading.Lock()
        real_query = index.query

        def query(q, ranker=None):
            with guard:
                inside[0] += 1
                if inside[0] > 1:
                    overlaps.append(q)
            try:
                time.sleep(0.0002)  # hand the interpreter to the others
                return real_query(q, ranker)
            finally:
                with guard:
                    inside[0] -= 1

        index.query = query
        errors = []

        def caller(slot):
            rng = random.Random(slot)
            try:
                for _ in range(15):
                    picked = rng.sample(queries, 3)
                    verb = rng.randrange(3)
                    if verb == 0:
                        assert service.search(picked[0]) == expected[picked[0]]
                    elif verb == 1:
                        assert service.search_many(picked) == [
                            expected[q] for q in picked
                        ]
                    else:
                        future = service.submit(picked[0], block=True)
                        assert future.result(timeout=30) == expected[picked[0]]
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and overlaps == []
        snap = service.metrics_snapshot()
        assert snap["gauges"]["queue.depth"] == 0
        assert snap["admission"]["pending"] == 0


class TestBatchWaitsAtTheGateOnItsBudget:
    def test_a_never_admitted_batch_fails_within_its_budget(self):
        gate = threading.Event()
        service = QueryService(stub_index(gate), ServiceConfig(max_pending=1))
        try:
            running = service.submit(_query(k=1))  # fills the gate
            for return_exceptions in (False, True):
                started = time.monotonic()
                with pytest.raises(QueryTimeout) as err:
                    service.search_many(
                        [_query(k=2), _query(k=3)], timeout=0.05,
                        return_exceptions=return_exceptions,
                    )
                assert err.value.queued
                assert time.monotonic() - started < 2.0
            snap = service.metrics_snapshot()
            # Counted once per refused batch, like any abandoned wait.
            assert snap["counters"]["queries.timed_out"] == 2
            assert snap["admission"]["rejected"] == 2
            assert snap["admission"]["pending"] == 1
            gate.set()
            assert running.result(timeout=5) == [1]
            assert service.search_many([_query(k=2)], timeout=5.0) == [[2]]
        finally:
            gate.set()
            service.close()
        assert service.metrics_snapshot()["admission"]["pending"] == 0

    def test_a_blocking_submit_is_bounded_by_the_configured_timeout(self):
        gate = threading.Event()
        service = QueryService(
            stub_index(gate), ServiceConfig(max_pending=1, timeout=0.05)
        )
        try:
            service.submit(_query(k=1))
            with pytest.raises(QueryTimeout) as err:
                service.submit(_query(k=2), block=True)
            assert err.value.queued
        finally:
            gate.set()
            service.close()

    def test_the_wait_at_the_gate_is_charged_to_the_budget(self):
        """The task's clock starts before admission: a batch admitted
        after its deadline (here on an injected clock, so no margin) is
        shed from the queue instead of running on a fresh budget."""
        gate = threading.Event()
        stub = _recording_index(gate)
        now = [0.0]
        service = QueryService(
            stub, ServiceConfig(max_pending=1), clock=lambda: now[0]
        )
        outcome = []

        def batch():
            try:
                outcome.append(service.search_many([_query(k=2)], timeout=10.0))
            except QueryTimeout as exc:
                outcome.append(exc)

        caller = threading.Thread(target=batch)
        try:
            service.submit(_query(k=1))
            wait_for(lambda: stub.order == [1])
            caller.start()
            wait_for(
                lambda: service.metrics.counter("batches.submitted").value == 1
            )
            time.sleep(0.05)  # the caller is now waiting outside the gate
            now[0] = 20.0
            gate.set()
            caller.join(timeout=5)
        finally:
            gate.set()
            service.close()
        (exc,) = outcome
        assert isinstance(exc, QueryTimeout) and exc.queued
        assert stub.order == [1]


def _epoch_index(gate=None):
    """A recording stub whose answer names the epoch it was computed at."""
    stub = _recording_index(gate)
    query = stub.query
    stub.query = lambda q, ranker=None: [(query(q)[0], stub.epoch)]
    return stub


class TestACacheHitTakesNoTurn:
    def test_a_hit_is_answered_while_the_lane_is_held(self):
        gate = threading.Event()
        stub = _recording_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=8))
        try:
            assert service.search(_query(k=2)) == [2]  # now cached
            held = service.submit(_query(k=1))
            wait_for(lambda: stub.order == [2, 1])  # the lane is held
            assert service.search(_query(k=2), timeout=1.0) == [2]
            miss = service.submit(_query(k=3))
            assert service.metrics_snapshot()["gauges"]["queue.depth"] == 1
            time.sleep(0.05)
            assert not miss.done() and stub.order == [2, 1]
            gate.set()
            assert held.result(timeout=5) == [1]
            assert miss.result(timeout=5) == [3]
        finally:
            gate.set()
            service.close()
        assert stub.order == [2, 1, 3]

    def test_a_full_gate_sheds_misses_and_answers_hits(self):
        gate = threading.Event()
        service = QueryService(stub_index(gate), ServiceConfig(max_pending=1))
        try:
            gate.set()
            assert service.search(_query(k=2)) == [2]  # now cached
            gate.clear()
            service.submit(_query(k=1))  # fills the gate
            assert service.search(_query(k=2)) == [2]
            assert service.search_many([_query(k=2), _query(k=2)]) == [[2], [2]]
            with pytest.raises(ServiceOverloaded):
                service.search(_query(k=3))
            snap = service.metrics_snapshot()
            assert snap["counters"]["queries.shed"] == 1
            assert snap["admission"]["rejected"] == 1
            assert snap["admission"]["admitted"] == 2
        finally:
            gate.set()
            service.close()

    def test_a_hit_waits_for_a_writer_and_sees_its_write(self):
        """The lookup holds the shared lock: a hit cannot slip past a
        write in progress and answer from the epoch it is replacing —
        it queues behind the write and is answered after it."""
        stub = _epoch_index()
        service = QueryService(stub, ServiceConfig())
        inside, release = threading.Event(), threading.Event()
        answers = []

        def write(target):
            inside.set()
            release.wait(timeout=10)
            target.epoch += 1

        writer = threading.Thread(target=service.mutate, args=(write,))
        reader = threading.Thread(
            target=lambda: answers.append(service.search(_query()))
        )
        try:
            assert service.search(_query()) == [(3, 0)]  # now cached
            writer.start()
            assert inside.wait(timeout=5)
            reader.start()
            time.sleep(0.05)
            assert answers == []  # blocked behind the writer
            release.set()
            writer.join(timeout=5)
            reader.join(timeout=5)
        finally:
            release.set()
            service.close()
        assert answers == [[(3, 1)]]

    def test_a_submit_from_inside_a_write_queues_behind_it(self):
        """The lookup never waits for the lock, so a caller holding the
        exclusive side (submitting from inside ``mutate``) cannot
        deadlock on its own write."""
        stub = _epoch_index()
        with QueryService(stub, ServiceConfig()) as service:
            assert service.search(_query()) == [(3, 0)]  # now cached

            def write(target):
                target.epoch += 1
                return service.submit(_query())

            assert service.mutate(write).result(timeout=5) == [(3, 1)]

    def test_an_unhashable_query_fails_in_its_slot_and_frees_the_lock(self):
        """The admission lookup cannot key a query whose words are a
        list; the lane fails that slot alone, as it always did, and no
        lock is left held for the next writer to wait on."""
        with QueryService(stub_index(), ServiceConfig()) as service:
            unhashable = TopKQuery(0.5, 0.5, ["spicy"], k=3)
            good, bad = service.search_many(
                [_query(), unhashable], return_exceptions=True
            )
            assert good == [3] and isinstance(bad, TypeError)
            writer = threading.Thread(target=service.mutate, args=(lambda t: t,))
            writer.start()
            writer.join(timeout=5)
            assert not writer.is_alive()

    def test_a_closed_service_refuses_a_hit(self):
        service = QueryService(stub_index(), ServiceConfig())
        assert service.search(_query()) == [3]  # now cached
        service.close()
        with pytest.raises(ServiceClosed):
            service.search(_query())
        with pytest.raises(ServiceClosed):
            service.search_many([_query()])

    def test_a_batch_a_write_overtakes_is_answered_at_one_epoch(self):
        """Hits read at admission are stamped with their epoch; a write
        between admission and the lane's turn makes the lane recompute
        the whole batch instead of mixing two epochs."""
        gate = threading.Event()
        stub = _epoch_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=8))
        batch = []
        try:
            assert service.search(_query(k=2)) == [(2, 0)]  # now cached
            held = service.submit(_query(k=1))
            wait_for(lambda: stub.order == [2, 1])  # the lane is held
            caller = threading.Thread(target=lambda: batch.append(
                service.search_many([_query(k=2), _query(k=3), _query(k=2)])
            ))
            caller.start()
            wait_for(
                lambda: service.metrics_snapshot()["gauges"]["queue.depth"] == 1
            )  # admitted at epoch 0, with k=2 a hit
            writer = threading.Thread(
                target=service.mutate,
                args=(lambda t: setattr(t, "epoch", t.epoch + 1),),
            )
            writer.start()
            wait_for(lambda: service._rwlock._writers_waiting == 1)
            gate.set()
            assert held.result(timeout=5) == [(1, 0)]
            caller.join(timeout=5)
            writer.join(timeout=5)
        finally:
            gate.set()
            service.close()
        assert batch == [[[(2, 1)], [(3, 1)], [(2, 1)]]]
        assert stub.order == [2, 1, 2, 3]

    def test_hits_keep_the_metrics_contract(self):
        """N hits complete N queries and observe ``io.reads_per_query``
        N times, reading nothing; taking no turn, they observe neither
        ``queue_wait_ms`` nor ``latency_ms``."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for doc in make_documents(60, random.Random(4)):
            index.insert_document(doc)
        with QueryService(index, ServiceConfig()) as service:
            metrics = service.metrics

            def state():
                reads = metrics.histogram("io.reads_per_query")
                return (
                    reads.count, reads.total,
                    metrics.counter("queries.completed").value,
                    metrics.histogram("queue_wait_ms").count,
                    metrics.histogram("latency_ms").count,
                )

            first = service.search(_query(k=5))
            count, total, completed, waits, latencies = state()
            assert total > 0  # the miss read pages
            for _ in range(5):
                assert service.search(_query(k=5)) == first
            assert state() == (count + 5, total, completed + 5, waits, latencies)
