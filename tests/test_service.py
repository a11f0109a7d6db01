"""Unit tests for the serving layer: metrics, cache, admission, service."""

import random
import threading
import time

import pytest

from repro.cluster import ReplicaFault, ShardReplica
from repro.core.index import I3Index
from repro.db import SpatialKeywordDatabase
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.service import (
    AdmissionController,
    Gauge,
    Histogram,
    MetricCounter,
    MetricsRegistry,
    QueryResultCache,
    QueryService,
    QueryTimeout,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
)
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.iostats import IOStats
from tests.helpers import make_documents, results_as_pairs, stub_index as _stub_index


class TestMetrics:
    def test_counter_increments(self):
        c = MetricCounter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricCounter().inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.inc(3)
        g.dec()
        assert g.value == 2
        g.set(7.5)
        assert g.value == 7.5

    def test_histogram_exact_when_reservoir_fits(self):
        h = Histogram(reservoir_size=2000, seed=0)
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.count == 1000
        assert h.quantile(0.5) == pytest.approx(500, abs=1)
        assert h.quantile(0.99) == pytest.approx(990, abs=1)
        summary = h.summary()
        assert summary["min"] == 1.0 and summary["max"] == 1000.0
        assert summary["mean"] == pytest.approx(500.5)

    def test_histogram_reservoir_is_bounded(self):
        h = Histogram(reservoir_size=64, seed=1)
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000  # exact count survives sampling
        assert len(h._reservoir) == 64
        # The sampled p50 stays a sane estimate of the true median.
        assert 2_000 < h.quantile(0.5) < 8_000

    def test_histogram_concurrent_observations_none_lost(self):
        h = Histogram(reservoir_size=128, seed=2)

        def pump():
            for _ in range(5_000):
                h.observe(1.0)

        threads = [threading.Thread(target=pump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 40_000
        assert h.total == pytest.approx(40_000.0)

    def test_registry_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_registry_export_shape(self):
        reg = MetricsRegistry(seed=0)
        reg.counter("queries").inc(2)
        reg.gauge("depth").set(3)
        reg.histogram("lat").observe(1.5)
        out = reg.as_dict()
        assert out["counters"] == {"queries": 2}
        assert out["gauges"] == {"depth": 3}
        assert set(out["histograms"]["lat"]) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert "queries" in reg.to_json()


class TestQueryResultCache:
    def test_read_through(self):
        """A miss is computed by its caller and put; the next get hits."""
        cache = QueryResultCache(capacity=4)
        assert cache.get("k", 0) is None
        cache.put("k", 0, [1, 2])
        assert cache.get("k", 0) == [1, 2]
        assert cache.hits == 1 and cache.misses == 1

    def test_epoch_mismatch_invalidates(self):
        cache = QueryResultCache(capacity=4)
        cache.put("k", 0, "old")
        assert cache.get("k", 0) == "old"
        assert cache.get("k", 1) is None  # stale after a mutation
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = QueryResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh a; b is now LRU
        cache.put("c", 0, 3)
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1 and cache.get("c", 0) == 3

    def test_bulk_invalidate_and_stats(self):
        cache = QueryResultCache(capacity=4)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.invalidate()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["invalidations"] == 2
        assert 0.0 <= stats["hit_ratio"] <= 1.0

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)


class TestAdmissionController:
    def test_sheds_at_limit(self):
        gate = AdmissionController(limit=2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_blocking_acquire_waits_for_release(self):
        gate = AdmissionController(limit=1)
        assert gate.try_acquire()
        acquired = threading.Event()

        def blocked():
            assert gate.acquire(timeout=5)
            acquired.set()

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        gate.release()
        t.join(timeout=5)
        assert acquired.is_set()

    def test_acquire_timeout(self):
        gate = AdmissionController(limit=1)
        assert gate.try_acquire()
        assert not gate.acquire(timeout=0.01)

    def test_release_requires_acquire(self):
        with pytest.raises(RuntimeError):
            AdmissionController(limit=1).release()

    def test_acquire_rejects_negative_and_nan_timeout(self):
        gate = AdmissionController(limit=1)
        with pytest.raises(ValueError):
            gate.acquire(timeout=-0.5)
        with pytest.raises(ValueError):
            gate.acquire(timeout=float("nan"))
        # A rejected timeout must not leak an admission slot.
        assert gate.pending == 0
        assert gate.acquire(timeout=0)  # zero-wait poll stays legal


def _query(words=("spicy",), k=3, x=0.5, y=0.5):
    return TopKQuery(x, y, tuple(words), k=k)


class TestQueryServiceBasics:
    def setup_method(self):
        rng = random.Random(11)
        self.index = I3Index(UNIT_SQUARE, page_size=256)
        for doc in make_documents(120, rng):
            self.index.insert_document(doc)
        self.ranker = Ranker(UNIT_SQUARE)

    def test_results_match_direct_query(self):
        queries = [
            _query(("spicy", "restaurant"), k=5, x=0.2, y=0.8),
            _query(("bar",), k=3, x=0.9, y=0.1),
        ]
        expected = [results_as_pairs(self.index.query(q, self.ranker)) for q in queries]
        with QueryService(self.index, ServiceConfig()) as service:
            got = [results_as_pairs(r) for r in service.search_many(queries)]
        assert got == expected

    def test_cache_hit_skips_execution(self):
        query = _query(("spicy",), k=4)
        with QueryService(self.index, ServiceConfig()) as service:
            first = service.search(query)
            before = self.index.stats.reads()
            second = service.search(query)
            after = self.index.stats.reads()
            assert results_as_pairs(first) == results_as_pairs(second)
            assert after == before  # served from the result cache
            assert service.cache.hits == 1

    def test_insert_invalidates_cached_results(self):
        from repro.model.document import SpatialDocument

        query = _query(("spicy",), k=50)
        with QueryService(self.index, ServiceConfig()) as service:
            before = service.search(query)
            service.insert(SpatialDocument(5000, 0.5, 0.5, {"spicy": 0.99}))
            after = service.search(query)
            assert 5000 not in {doc_id for doc_id, _ in results_as_pairs(before)}
            assert 5000 in {doc_id for doc_id, _ in results_as_pairs(after)}

    def test_mutations_bump_epoch_and_evict_stale_entries(self):
        from repro.model.document import SpatialDocument

        doc = SpatialDocument(6000, 0.4, 0.6, {"noodle": 0.8})
        query = _query(("noodle",), k=50, x=0.4, y=0.6)
        with QueryService(self.index, ServiceConfig()) as service:
            before = service.search(query)
            epoch0 = self.index.epoch

            service.insert(doc)
            assert self.index.epoch > epoch0  # insert bumped the epoch
            after_insert = service.search(query)
            assert service.cache.invalidations == 1  # stale entry evicted
            assert 6000 in {d for d, _ in results_as_pairs(after_insert)}

            epoch1 = self.index.epoch
            service.delete(doc)
            assert self.index.epoch > epoch1  # delete bumped it again
            after_delete = service.search(query)
            assert service.cache.invalidations == 2
            assert results_as_pairs(after_delete) == results_as_pairs(before)

    def test_database_target_returns_hits(self):
        db = SpatialKeywordDatabase()
        db.add(1, 0.2, 0.3, "spicy noodle bar")
        db.add(2, 0.8, 0.8, "quiet tea house")
        expected = [(h.doc_id, round(h.score, 9)) for h in db.search(0.2, 0.3, "spicy bar")]
        with QueryService(db, ServiceConfig()) as service:
            got = service.search(_query(("spicy", "bar"), k=10, x=0.2, y=0.3))
        assert [(h.doc_id, round(h.score, 9)) for h in got] == expected

    def test_database_target_survives_reweigh(self):
        # reweigh() replaces db.index; the service must follow the live
        # index, or the cache keeps validating against a dead epoch.
        db = SpatialKeywordDatabase()
        db.add(1, 0.2, 0.3, "spicy noodle bar")
        db.add(2, 0.8, 0.8, "quiet tea house")
        q = _query(("spicy",), k=10, x=0.2, y=0.3)
        with QueryService(db) as service:
            service.search(q)  # warm the cache
            service.mutate(lambda d: d.reweigh())
            service.insert(3, 0.21, 0.31, "spicy spicy ramen")
            got = [(h.doc_id, h.score) for h in service.search(q)]
            snap = service.metrics_snapshot()
        expected = [(h.doc_id, h.score) for h in db.search(0.2, 0.3, ["spicy"], k=10)]
        assert got == expected
        assert 3 in {doc_id for doc_id, _ in got}
        live = db.index.data.cells.stats()
        assert live["entries"] > 0
        for name in ("bytes", "entries"):
            assert snap["gauges"][f"decoded_cells.{name}"] == live[name]
            assert snap["decoded_cells"][name] == live[name]
        for name in ("hits", "misses", "evictions"):
            assert snap["decoded_cells"][name] == snap["counters"][f"decoded_cells.{name}"]

    def test_metrics_snapshot_schema(self):
        with QueryService(self.index, ServiceConfig(metrics_seed=0)) as service:
            service.search(_query())
            snap = service.metrics_snapshot()
        assert snap["counters"]["queries.completed"] == 1
        assert {"p50", "p95", "p99"} <= set(snap["histograms"]["latency_ms"])
        assert "buffer_pool" not in snap  # the data file keeps one cache
        assert set(snap["service"]) == {
            "max_pending", "timeout_s", "uptime_s", "qps", "closed"
        }
        assert "service.workers" not in snap["gauges"]
        assert snap["cache"]["capacity"] == 256

    def test_query_error_propagates(self):
        with QueryService(self.index, ServiceConfig()) as service:
            future = service.submit("not a query")  # type: ignore[arg-type]
            with pytest.raises(AttributeError):
                future.result(timeout=5)
            assert service.metrics.counter("queries.failed").value == 1


class TestAdmissionAndTimeouts:
    def test_overload_sheds_with_typed_error(self):
        gate = threading.Event()
        stub = _stub_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=1))
        try:
            first = service.submit(_query())
            time.sleep(0.05)  # worker has dequeued and is blocked on the gate
            with pytest.raises(ServiceOverloaded) as err:
                service.submit(_query())
            assert isinstance(err.value, ServiceError)
            assert service.metrics.counter("queries.shed").value == 1
            gate.set()
            assert first.result(timeout=5) == [3]
        finally:
            gate.set()
            service.close()

    def test_blocking_submit_applies_backpressure(self):
        index = _stub_index()
        with QueryService(index, ServiceConfig(max_pending=2)) as service:
            futures = [
                service.submit(_query(k=i + 1), block=True) for i in range(20)
            ]
            results = [future.result(timeout=5) for future in futures]
        assert [r[0] for r in results] == [i + 1 for i in range(20)]

    def test_queued_deadline_expires_without_executing(self):
        gate = threading.Event()
        stub = _stub_index(gate)
        service = QueryService(
            stub, ServiceConfig(max_pending=8, timeout=0.05)
        )
        try:
            blocker = service.submit(_query())
            time.sleep(0.02)
            queued = service.submit(_query())
            time.sleep(0.1)  # let the queued deadline lapse
            gate.set()
            assert blocker.result(timeout=5) == [3]
            with pytest.raises(QueryTimeout) as err:
                queued.result(timeout=5)
            assert err.value.queued
            assert service.metrics.counter("queries.timed_out").value == 1
        finally:
            gate.set()
            service.close()

    def test_search_stops_waiting_at_deadline(self):
        gate = threading.Event()
        stub = _stub_index(gate)
        service = QueryService(stub, ServiceConfig(timeout=0.05))
        try:
            with pytest.raises(QueryTimeout) as err:
                service.search(_query())
            assert not err.value.queued
            assert service.metrics.counter("queries.timed_out").value == 1
        finally:
            gate.set()
            service.close()

    def test_abandoned_queued_query_counts_once_and_never_runs(self):
        """The waiter's expiry and the worker's later dequeue of the
        same, still queued query are one timeout, not two."""
        gate = threading.Event()
        stub = _stub_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=4))
        try:
            blocker = service.submit(_query(k=1))
            time.sleep(0.05)  # worker has dequeued and is blocked on the gate
            with pytest.raises(QueryTimeout):
                service.search(_query(k=2), timeout=0.05)
            gate.set()
            assert blocker.result(timeout=5) == [1]
        finally:
            gate.set()
            service.close()  # drains: the abandoned task is dequeued
        counters = service.metrics_snapshot()["counters"]
        assert counters["queries.timed_out"] == 1
        assert counters["queries.completed"] == 1
        assert service.metrics_snapshot()["admission"]["pending"] == 0

    def test_callers_deadline_tightens_the_configured_one(self):
        """``search(query, timeout)`` waits for the tighter of the
        caller's remaining deadline and the configured timeout, and the
        expiry is counted however the query arrived — here as a shard
        attempt through :class:`ShardReplica`."""
        gate = threading.Event()
        service = QueryService(
            _stub_index(gate), ServiceConfig(timeout=30.0)
        )
        try:
            started = time.monotonic()
            with pytest.raises(ReplicaFault, match="deadline"):
                ShardReplica(0, 0, service).search(_query(), timeout=0.05)
            assert time.monotonic() - started < 5.0
            assert service.metrics.counter("queries.timed_out").value == 1
            gate.set()
            assert service.search(_query(), timeout=60.0) == [3]
        finally:
            gate.set()
            service.close()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            ServiceConfig(max_pending=0)
        with pytest.raises(TypeError):
            ServiceConfig(workers=2)  # the pool size is not an option
        with pytest.raises(ValueError):
            ServiceConfig(timeout=0)
        with pytest.raises(ValueError):
            ServiceConfig(timeout=-1.5)
        with pytest.raises(ValueError):
            ServiceConfig(timeout=float("nan"))
        with pytest.raises(ValueError):
            ServiceConfig(cache_capacity=-1)

    def test_unbounded_is_spelled_none_not_infinity(self):
        """``inf`` is no configured timeout (no lock can wait for it),
        while a caller's own budget may be any positive float: the one
        wait helper caps it at what a lock accepts."""
        with pytest.raises(ValueError, match="finite"):
            ServiceConfig(timeout=float("inf"))
        with QueryService(_stub_index(), ServiceConfig()) as service:
            for budget in (float("inf"), 1e300, threading.TIMEOUT_MAX * 2):
                assert service.search(_query(), timeout=budget) == [3]
                assert service.search_many([_query()], timeout=budget) == [[3]]
            assert service.metrics.counter("queries.failed").value == 0
            assert service.metrics.counter("queries.timed_out").value == 0


class TestLifecycle:
    def test_submit_after_close_raises(self):
        service = QueryService(_stub_index(), ServiceConfig())
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(_query())

    def test_close_drains_pending_queries(self):
        index = _stub_index()
        service = QueryService(index, ServiceConfig())
        futures = [service.submit(_query(k=i + 1)) for i in range(5)]
        service.close(drain=True)
        assert [f.result(timeout=5) for f in futures] == [[i + 1] for i in range(5)]

    def test_close_without_drain_fails_queued(self):
        gate = threading.Event()
        stub = _stub_index(gate)
        service = QueryService(stub, ServiceConfig(max_pending=8))
        running = service.submit(_query())
        time.sleep(0.05)
        queued = [service.submit(_query()) for _ in range(3)]
        # Unblock the running query only after close() has synchronously
        # drained the queue, so no queued task can sneak into execution.
        threading.Timer(0.1, gate.set).start()
        service.close(drain=False)
        assert running.result(timeout=5) == [3]
        for future in queued:
            with pytest.raises(ServiceClosed):
                future.result(timeout=5)

    def test_close_is_idempotent(self):
        service = QueryService(_stub_index(), ServiceConfig())
        service.close()
        service.close()
        assert service.closed

    def test_mutate_after_close_raises(self):
        service = QueryService(_stub_index(), ServiceConfig())
        service.close()
        with pytest.raises(ServiceClosed):
            service.mutate(lambda target: None)


class TestIOStatsThreadSafety:
    def test_no_lost_updates(self):
        stats = IOStats()

        def pump():
            for _ in range(10_000):
                stats.record_read("x")

        threads = [threading.Thread(target=pump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.reads("x") == 80_000

    def test_tee_is_per_thread(self):
        stats = IOStats()
        sink = IOStats()
        seen_by_other = []

        def other():
            stats.record_read("x")
            seen_by_other.append(sink.reads("x"))

        with stats.tee(sink):
            stats.record_read("x", pages=2)
            t = threading.Thread(target=other)
            t.start()
            t.join()
        stats.record_read("x")  # after the tee: not forwarded
        assert stats.reads("x") == 4
        assert sink.reads("x") == 2  # only the teeing thread's I/O
        assert seen_by_other == [2]

    def test_tee_rejects_self(self):
        stats = IOStats()
        with pytest.raises(ValueError):
            with stats.tee(stats):
                pass

    def test_snapshot_is_atomic_copy(self):
        stats = IOStats()
        stats.record_read("a", 3)
        snap = stats.snapshot()
        stats.record_read("a", 2)
        assert snap.reads == {"a": 3}
        assert (stats.snapshot() - snap).reads == {"a": 2}


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class TestBookkeeping:
    """What a query pays for the service's metrics, and that the figures
    stay right when it pays less."""

    def setup_method(self):
        rng = random.Random(23)
        self.index = I3Index(UNIT_SQUARE, page_size=256)
        self.index.bulk_load(make_documents(300, rng))
        self.queries = [
            _query(words, k=5, x=rng.random(), y=rng.random())
            for words in [("spicy",), ("bar", "cafe"), ("restaurant",)] * 8
        ]

    def test_a_warm_query_takes_no_registry_lock(self):
        config = ServiceConfig(cache_capacity=0)
        with QueryService(self.index, config) as service:
            for query in self.queries[:3]:
                service.search(query)
            lock = service.metrics._lock = _CountingLock()
            for query in self.queries:
                service.search(query)
            completed = service.metrics.counter("queries.completed").value
            assert lock.taken == 0
        assert completed == 3 + len(self.queries)

    def test_the_exposition_collects_decoded_cells_unasked(self):
        from repro.net import Client, NetServer

        with QueryService(self.index, ServiceConfig(cache_capacity=0)) as service:
            with NetServer(service) as server, Client(
                server.host, server.port
            ) as client:
                for query in self.queries:
                    client.search(query)
                text = client.metrics_text()
            hits = self.index.data.cells.stats()["hits"]
        assert hits > 0
        assert f"repro_decoded_cells_hits {hits}\n" in text

    def test_reads_per_query_sums_to_the_pages_read(self):
        with QueryService(self.index, ServiceConfig()) as service:
            histogram = service.metrics.histogram("io.reads_per_query")
            observed, read = [], []

            def measure(work, slots):
                before = (histogram.total, self.index.stats.reads())
                work()
                observed.append((histogram.total - before[0]) * slots)
                read.append(self.index.stats.reads() - before[1])

            for query in self.queries[:6]:
                self.index.clear_cache()
                measure(lambda: service.search(query), 1)
            self.index.clear_cache()
            batch = self.queries[6:]
            measure(lambda: service.search_many(batch), len(batch))
            measure(lambda: service.search_many(batch), len(batch))  # cached
            assert histogram.count == 8
        assert read[-1] == 0 < min(read[:-1])
        assert observed == pytest.approx(read, rel=1e-9, abs=0.0)
