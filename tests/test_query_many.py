"""The batch query API: ``I3Index.query_many`` and
``QueryService.search_many``.

The contract, layer by layer: a batch is pure amortization — results
arrive in input order and each equals the single-query answer — while
per-query *failures* stay confined to their slot (a deadline expiry or
a poisoned query never suppresses batch-mates' results).  Cache
interaction follows the single-query rules exactly: entries are
epoch-stamped, duplicates inside one batch collapse to one execution,
and failures are never cached.

``TestOneContract`` states the part every layer shares — index,
service (threads and simulation executor), cluster, wire client and
simulated wire: one single verb, one batch verb, and
``batch([q]) == [single(q)]``.
"""

import contextlib
import random
from types import SimpleNamespace

import pytest

from repro.cluster import ClusterService, HashPartitioner
from repro.core.index import I3Index
from repro.exec import available_engines
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.net import Client, NetServer
from repro.net.sim import SimNetServer, sim_client
from repro.service import QueryService, ServiceConfig
from repro.service.errors import QueryTimeout
from repro.simtest.clock import SimClock, SimScheduler
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.iostats import IOStats
from repro.storage.records import f32

VOCAB = [f"w{i}" for i in range(14)]


def _build(num_docs=400, seed=13, page_size=256):
    rng = random.Random(seed)
    index = I3Index(UNIT_SQUARE, page_size=page_size)
    for doc_id in range(num_docs):
        terms = {
            w: f32(rng.random())
            for w in rng.sample(VOCAB, rng.randint(1, 4))
        }
        index.insert_document(
            SpatialDocument(doc_id, rng.random(), rng.random(), terms)
        )
    return index


def _queries(count, seed=5, words=None):
    rng = random.Random(seed)
    pool = words if words is not None else VOCAB
    return [
        TopKQuery(
            rng.random(),
            rng.random(),
            tuple(rng.sample(pool, rng.randint(1, min(3, len(pool))))),
            k=rng.choice([1, 5, 10]),
            semantics=rng.choice([Semantics.OR, Semantics.AND]),
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Index layer
# ----------------------------------------------------------------------


class TestIndexQueryMany:
    @pytest.mark.parametrize("engine", available_engines())
    def test_order_stable_and_equal_to_singles(self, engine):
        index = _build()
        ranker = Ranker(UNIT_SQUARE, 0.5)
        queries = _queries(30)
        queries[7] = queries[2]  # duplicates collapse but keep their slot
        queries[19] = queries[2]
        singles = [index.query(q, ranker, engine=engine) for q in queries]
        assert index.query_many(queries, ranker, engine=engine) == singles

    def test_empty_and_singleton_batches(self):
        index = _build(num_docs=50)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        assert index.query_many([], ranker) == []
        query = _queries(1)[0]
        assert index.query_many([query], ranker) == [
            index.query(query, ranker)
        ]

    def test_batch_amortizes_page_reads_under_vector(self):
        """The whole point: hot cells are read and decoded once.  A cold
        batch reads each distinct keyword cell once however many of its
        queries traverse it; a second pass reads no data page at all."""
        if "vector" not in available_engines():
            pytest.skip("vector engine unavailable")
        index = _build()
        ranker = Ranker(UNIT_SQUARE, 0.5)
        # A hot-keyword workload: every query hits the same two words.
        queries = _queries(20, seed=3, words=VOCAB[:2])
        tuple_reads = IOStats()
        expected = index.query_many(
            queries, ranker, io_sink=tuple_reads, engine="tuple"
        )
        index.clear_cache()
        before = index.data.cells.stats()
        cold = IOStats()
        assert index.query_many(
            queries, ranker, io_sink=cold, engine="vector"
        ) == expected
        after = index.data.cells.stats()
        # Each distinct cell was decoded exactly once, and asked for
        # more often than that: the batch shared it.
        assert after["misses"] - before["misses"] == after["entries"] > 0
        assert after["hits"] > before["hits"]
        # The tuple engine pays for every visit.
        assert 0 < cold.reads("i3.data") < tuple_reads.reads("i3.data")
        warm = IOStats()
        assert index.query_many(
            queries, ranker, io_sink=warm, engine="vector"
        ) == expected
        assert warm.reads("i3.data") == 0
        assert warm.reads("i3.head") == cold.reads("i3.head")

    def test_results_are_independent_copies(self):
        index = _build(num_docs=60)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = _queries(1, seed=9)[0]
        first, second = index.query_many([query, query], ranker)
        first.append("sentinel")
        assert second == index.query(query, ranker)

    def test_cache_shared_with_single_queries(self):
        index = _build(num_docs=80)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        queries = _queries(6, seed=31)
        config = ServiceConfig(cache_capacity=64)
        with QueryService(index, config, ranker=ranker) as service:
            cache = service.cache
            service.search_many(queries)
            misses_after_batch = cache.stats()["misses"]
            # Singles now hit the batch's entries...
            for query in queries:
                assert service.search(query) is not None
            assert cache.stats()["misses"] == misses_after_batch
            # ...until a mutation bumps the epoch and invalidates them all.
            service.insert(SpatialDocument(10**6, 0.5, 0.5, {VOCAB[0]: f32(0.9)}))
            service.search_many(queries[:1])
            assert cache.stats()["misses"] == misses_after_batch + 1


# ----------------------------------------------------------------------
# Service layer
# ----------------------------------------------------------------------


def _stub_service(query_fn, **config_kwargs):
    """A QueryService over an index-shaped stub (no engine seam), so
    failure injection and timing are deterministic."""
    stub = SimpleNamespace(
        space=UNIT_SQUARE,
        stats=IOStats(),
        epoch=0,
        data=SimpleNamespace(buffer=None),
    )
    stub.query = query_fn
    return QueryService(stub, ServiceConfig(**config_kwargs))


class TestServiceSearchMany:
    def test_matches_singles_and_preserves_order(self):
        index = _build()
        service = QueryService(index, ServiceConfig())
        try:
            queries = _queries(25, seed=41)
            singles = [service.search(q) for q in queries]
            assert service.search_many(queries) == singles
        finally:
            service.close()

    def test_empty_and_singleton(self):
        index = _build(num_docs=40)
        service = QueryService(index, ServiceConfig())
        try:
            assert service.search_many([]) == []
            query = _queries(1)[0]
            assert service.search_many([query]) == [service.search(query)]
        finally:
            service.close()

    def test_batch_occupies_one_admission_slot(self):
        """A 50-query batch must not need 50 queue slots."""
        index = _build(num_docs=60)
        service = QueryService(
            index, ServiceConfig(max_pending=2)
        )
        try:
            outcomes = service.search_many(_queries(50, seed=8))
            assert len(outcomes) == 50
        finally:
            service.close()

    def test_error_isolated_to_its_slot(self):
        """A query whose execution raises becomes an exception outcome;
        every other query in the batch still answers."""
        boom = _queries(1, seed=77)[0]

        def query_fn(q, ranker=None, io_sink=None):
            if q is boom:
                raise RuntimeError("poisoned query")
            return [q.k]

        service = _stub_service(query_fn)
        try:
            queries = _queries(5, seed=78) + [boom] + _queries(3, seed=79)
            outcomes = service.search_many(queries, return_exceptions=True)
            assert len(outcomes) == len(queries)
            assert isinstance(outcomes[5], RuntimeError)
            for i, outcome in enumerate(outcomes):
                if i != 5:
                    assert outcome == [queries[i].k]
            # Without return_exceptions the failure raises -- but only
            # after the whole batch executed.
            with pytest.raises(RuntimeError, match="poisoned"):
                service.search_many(queries)
        finally:
            service.close()

    def test_deadline_expiry_mid_batch_is_per_query(self):
        """When the batch deadline passes mid-run, queries already
        answered keep their results; the rest become QueryTimeout
        outcomes — not a batch-wide failure."""
        clock = [0.0]
        executed = []

        def query_fn(q, ranker=None, io_sink=None):
            executed.append(q)
            clock[0] += 0.4  # each query "takes" 0.4s of virtual time
            return [q.k]

        stub = SimpleNamespace(
            space=UNIT_SQUARE,
            stats=IOStats(),
            epoch=0,
            data=SimpleNamespace(buffer=None),
        )
        stub.query = query_fn
        service = QueryService(
            stub,
            ServiceConfig(timeout=1.0),
            clock=lambda: clock[0],
        )
        try:
            queries = _queries(6, seed=90)
            outcomes = service.search_many(queries, return_exceptions=True)
            # 0.4s per query, 1.0s budget: queries 0-2 run (the guard
            # admits at t=0.0, 0.4, 0.8), the rest time out unexecuted.
            assert [o for o in outcomes if not isinstance(o, BaseException)] \
                == [[q.k] for q in queries[:3]]
            assert all(
                isinstance(o, QueryTimeout) for o in outcomes[3:]
            )
            assert len(executed) == 3
            # Each expired slot is a deadline expiry, not a failure.
            counters = service.metrics_snapshot()["counters"]
            assert counters["queries.timed_out"] == 3
            assert counters["queries.completed"] == 3
            assert counters.get("queries.failed", 0) == 0
        finally:
            service.close()

    def test_failures_never_cached(self):
        """A failed query must be re-attempted on the next batch, and a
        failure must not poison the cache for later successes."""
        fail_once = {"armed": True}
        target = _queries(1, seed=55)[0]

        def query_fn(q, ranker=None, io_sink=None):
            if q == target and fail_once["armed"]:
                fail_once["armed"] = False
                raise RuntimeError("transient")
            return [q.k]

        service = _stub_service(query_fn, cache_capacity=32)
        try:
            first = service.search_many([target], return_exceptions=True)
            assert isinstance(first[0], RuntimeError)
            second = service.search_many([target], return_exceptions=True)
            assert second[0] == [target.k]
        finally:
            service.close()

    def test_cache_interaction_with_singles(self):
        index = _build(num_docs=100)
        service = QueryService(
            index, ServiceConfig(cache_capacity=64)
        )
        try:
            queries = _queries(8, seed=61)
            service.search_many(queries)
            hits_before = service.cache.stats()["hits"]
            service.search_many(queries)
            assert service.cache.stats()["hits"] >= hits_before + len(
                set(queries)
            )
        finally:
            service.close()

    @pytest.mark.parametrize("engine", available_engines())
    def test_engine_config_respected(self, engine):
        index = _build(num_docs=120)
        index.engine = engine
        service = QueryService(index)
        try:
            queries = _queries(10, seed=71)
            ranker = Ranker(UNIT_SQUARE, 0.5)
            expected = [index.query(q, ranker, engine=engine) for q in queries]
            assert service.search_many(queries) == expected
        finally:
            service.close()


# ----------------------------------------------------------------------
# Every layer: one single verb, one batch verb, one contract
# ----------------------------------------------------------------------


def _corpus(count, seed=29):
    rng = random.Random(seed)
    return [
        SpatialDocument(
            doc_id, rng.random(), rng.random(),
            {w: f32(rng.random()) for w in rng.sample(VOCAB, rng.randint(1, 4))},
        )
        for doc_id in range(count)
    ]


def _hexes(results):
    return [(d.doc_id, d.score.hex()) for d in results]


@contextlib.contextmanager
def _layer(name):
    """``(single, batch)`` verbs of one layer over the same 150
    documents, each returning plain ``ScoredDoc`` lists."""
    docs = _corpus(150)
    index = I3Index(UNIT_SQUARE, page_size=256)
    index.bulk_load(docs)
    ranker = Ranker(UNIT_SQUARE, 0.5)
    with contextlib.ExitStack() as stack:
        if name == "index":
            yield (
                lambda q: index.query(q, ranker),
                lambda qs: index.query_many(qs, ranker),
            )
        elif name == "cluster":
            cluster = stack.enter_context(
                ClusterService.build(
                    docs, HashPartitioner(3, UNIT_SQUARE), ranker=ranker,
                    page_size=256,
                )
            )
            yield (
                lambda q: cluster.search(q).results,
                lambda qs: [a.results for a in cluster.search_many(qs)],
            )
        else:
            sim = name in ("service-sim", "simnet")
            clock = SimClock()
            service = stack.enter_context(
                QueryService(
                    index,
                    ServiceConfig(),
                    ranker=ranker,
                    clock=clock if sim else None,
                    executor=SimScheduler(seed=3, clock=clock) if sim else None,
                )
            )
            if name == "client":
                server = stack.enter_context(NetServer(service))
                client = stack.enter_context(Client(server.host, server.port))
            elif name == "simnet":
                client = sim_client(SimNetServer(service, clock=clock))
            else:
                client = service
            yield client.search, client.search_many


LAYERS = (
    "index", "service-threads", "service-sim", "cluster", "client", "simnet",
)


class TestOneContract:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_query_is_a_batch_of_one(self, layer):
        with _layer(layer) as (single, batch):
            for query in _queries(12, seed=97):
                alone = single(query)
                (slot,) = batch([query])
                assert _hexes(slot) == _hexes(alone)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_duplicates_get_equal_independent_lists(self, layer):
        with _layer(layer) as (single, batch):
            query, other = _queries(2, seed=98)
            first, between, second = batch([query, other, query])
            assert _hexes(first) == _hexes(second) == _hexes(single(query))
            assert _hexes(between) == _hexes(single(other))
            if layer != "cluster":
                # Callers may mutate what they were handed.  (A cluster
                # hands duplicates the one frozen ClusterAnswer.)
                assert first is not second
                first.clear()
                assert _hexes(second) == _hexes(single(query))
