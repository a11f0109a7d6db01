"""Service-tier integration of the temporal index: QueryService
composition, per-slice metrics (snapshot + Prometheus), temporal
shards behind ``ClusterService`` (placement, time-control fan-out,
failover, cache invalidation by retention), standing queries aging out
under retention, the wire protocol's temporal fields, and the CLI
surfaces.
"""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    SpatialGridPartitioner,
)
from repro.core.index import I3Index
from repro.cli import main
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.net.errors import ProtocolError
from repro.net.protocol import query_from_args, query_to_args
from repro.net.sim import SimNetServer, sim_client
from repro.service.service import QueryService, ServiceConfig
from repro.simtest.clock import SimClock
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.records import f32
from repro.model.document import SpatialDocument
from repro.temporal import (
    NaiveTemporalIndex,
    RecencySpec,
    TemporalConfig,
    TemporalDocument,
    TemporalIndex,
    TemporalQuery,
    TimeRange,
)

from tests.helpers import results_as_pairs, temporal_cluster


def tdoc(doc_id, ts, words=("cafe",), x=0.5, y=0.5):
    return TemporalDocument(
        SpatialDocument(doc_id, x, y, {w: f32(0.5) for w in words}), ts
    )


def temporal_index(retention=None, n=12):
    return TemporalIndex.build(
        UNIT_SQUARE,
        [tdoc(i, float(i * 5)) for i in range(n)],
        TemporalConfig(slice_width=10.0, retention_age=retention, page_size=256),
    )


@pytest.fixture()
def service():
    with QueryService(
        temporal_index(retention=30.0),
        ServiceConfig(metrics_seed=0),
    ) as svc:
        yield svc


class TestQueryService:
    def test_plain_search_over_temporal_target(self, service):
        results = service.search(TopKQuery(0.5, 0.5, ("cafe",), k=5))
        assert len(results) == 5

    def test_temporal_search_through_the_service(self, service):
        tq = TemporalQuery(
            TopKQuery(0.5, 0.5, ("cafe",), k=5),
            TimeRange(0.0, 20.0),
            RecencySpec(10.0, 60.0),
        )
        got = results_as_pairs(service.search(tq))
        direct = results_as_pairs(
            service.temporal.query(tq, Ranker(UNIT_SQUARE, alpha=0.5))
        )
        assert got == direct
        assert {p[0] for p in got} <= {0, 1, 2, 3}

    def test_advance_and_expire_lifecycle(self, service):
        assert service.temporal is not None
        service.advance(100.0)
        dropped = service.expire()
        assert dropped  # slices ending <= 70 are gone
        assert service.temporal.get(0) is None

    def test_metrics_snapshot_carries_slice_stats(self, service):
        snapshot = service.metrics_snapshot()
        stats = snapshot["temporal"]
        assert stats["slices"] == service.temporal.slice_stats()["slices"]
        assert {"sealed_slices", "hot_docs", "sealed_bytes",
                "retention_drops", "skip_ratio"} <= set(stats)

    def test_prometheus_gauges(self, service):
        service.advance(100.0)
        service.expire()
        text = service.metrics.render_prometheus()
        assert "repro_temporal_slices" in text
        assert "repro_temporal_retention_drops" in text
        assert "repro_temporal_skip_ratio" in text

    def test_checkpoint_persists_durable_temporal_target(self, tmp_path):
        root = str(tmp_path / "troot")
        index = TemporalIndex.build(
            UNIT_SQUARE,
            [tdoc(i, float(i * 5)) for i in range(8)],
            TemporalConfig(slice_width=10.0, page_size=256),
            durable_root=root,
        )
        with QueryService(
            index, ServiceConfig(metrics_seed=0)
        ) as svc:
            svc.checkpoint()
        reopened = TemporalIndex.open(root)
        assert reopened.num_documents == 8


def spread(n=24):
    """Documents on a diagonal, one every 5 time units."""
    return [
        tdoc(i, float(i * 5), x=(i % 12) / 12.0, y=((i * 7) % 12) / 12.0)
        for i in range(n)
    ]


def sharded(tdocs, partitioner=None, retention=None, **config):
    return temporal_cluster(
        tdocs,
        partitioner or HashPartitioner(3, UNIT_SQUARE),
        TemporalConfig(slice_width=10.0, retention_age=retention, page_size=256),
        ClusterConfig(shard_config=ServiceConfig(), **config),
    )


CAFES = TemporalQuery(
    TopKQuery(0.5, 0.5, ("cafe",), k=6), recency=RecencySpec(40.0, 120.0)
)


class TestTemporalShards:
    """``ClusterService`` over ``QueryService(TemporalIndex)`` replicas:
    the one scatter-gather serves them with no code of their own."""

    def test_the_temporal_handle_is_the_shards(self):
        with sharded(spread()) as cluster:
            assert cluster.temporal is cluster.replica(0).service.temporal
            assert cluster.temporal is not None
        docs = [t.doc for t in spread()]
        with ClusterService.build(
            docs, HashPartitioner(2, UNIT_SQUARE)
        ) as plain:
            assert plain.temporal is None
            with pytest.raises(ValueError, match="TemporalIndex"):
                plain.advance(10.0)
            with pytest.raises(ValueError, match="TemporalIndex"):
                plain.expire()

    def test_spatial_placement_reads_the_timestamped_document(self):
        """``SpatialGridPartitioner.shard_of(tdoc)`` reads ``.x``/``.y``
        off the temporal document, so routed inserts and deletes work
        under a spatial placement, not only under hash."""
        tdocs = spread()
        partitioner = SpatialGridPartitioner.from_documents(
            3, UNIT_SQUARE, tdocs, leaf_capacity=4
        )
        with sharded(tdocs, partitioner) as cluster:
            for t in tdocs:
                home = partitioner.shard_of_point(t.doc.x, t.doc.y)
                for sid in range(3):
                    held = cluster.replica(sid).index.get(t.doc_id)
                    assert (held is not None) == (sid == home)
            assert cluster.delete(tdocs[3])
            oracle = NaiveTemporalIndex(UNIT_SQUARE, 10.0)
            for t in tdocs[:3] + tdocs[4:]:
                oracle.insert(t)
            answer = cluster.search(CAFES)
            assert not answer.degraded
            assert results_as_pairs(answer.results) == results_as_pairs(
                oracle.query(CAFES, cluster.ranker)
            )

    def test_killing_a_primary_keeps_answers_exact(self):
        tdocs = spread()
        oracle = NaiveTemporalIndex(UNIT_SQUARE, 10.0)
        for t in tdocs:
            oracle.insert(t)
        expected = results_as_pairs(oracle.query(CAFES, Ranker(UNIT_SQUARE)))
        with sharded(tdocs, replicas=2) as cluster:
            failovers = cluster.metrics.counter("cluster.failovers")
            assert results_as_pairs(cluster.search(CAFES).results) == expected
            for sid in range(cluster.num_shards):
                cluster.replica(sid, 0).kill()
            # Same epoch, same key: the cluster cache answers, no shard
            # is asked and so no failover is counted ...
            cached = cluster.search(CAFES)
            assert cached.from_cache and failovers.value == 0
            assert results_as_pairs(cached.results) == expected
            # ... until a query the cache has not seen reaches the shards.
            other = TemporalQuery(CAFES.base, TimeRange(0.0, 200.0), CAFES.recency)
            fresh = cluster.search(other)
            assert not fresh.from_cache and not fresh.degraded
            assert results_as_pairs(fresh.results) == expected
            assert failovers.value == cluster.num_shards

    def test_expire_retires_cached_answers_and_router_bounds(self):
        tdocs = spread()
        oracle = NaiveTemporalIndex(UNIT_SQUARE, 10.0, retention_age=60.0)
        for t in tdocs:
            oracle.insert(t)
        with sharded(tdocs, retention=60.0, replicas=2) as cluster:
            plain = CAFES.base  # no decay: the oldest documents compete
            before = cluster.search(plain)
            assert cluster.search(plain).from_cache
            misses = cluster.metrics.counter("cluster.bounds_cache_misses")
            fetched, epoch = misses.value, cluster.epoch

            cluster.advance(150.0)  # seals slices; answers unchanged
            assert cluster.epoch == epoch
            assert cluster.search(plain).from_cache

            dropped = cluster.expire()
            gone = set(oracle.expire(150.0))
            assert gone and set(dropped) == set(range(cluster.num_shards))
            assert any(dropped.values())
            for sid, replicas in enumerate(cluster._shards):
                # Every live replica dropped the same slices.
                assert len({tuple(sorted(
                    rep.index.live_slice_ids())) for rep in replicas}) == 1
            # The epoch bump inside each replica's expire() is the whole
            # invalidation: the cached answer held dropped documents and
            # must not be served again, and the router refetches bounds.
            assert cluster.epoch > epoch
            assert gone & {sd.doc_id for sd in before.results}
            after = cluster.search(plain)
            assert not after.from_cache and not after.degraded
            assert misses.value > fetched
            assert results_as_pairs(after.results) == results_as_pairs(
                oracle.query(plain, cluster.ranker)
            )
            assert not gone & {sd.doc_id for sd in after.results}

    def test_rebalance_refuses_temporal_shards_before_moving_anything(self):
        tdocs = spread()
        with sharded(tdocs) as cluster:
            epoch = cluster.epoch
            with pytest.raises(ValueError, match="temporal"):
                cluster.rebalance(
                    SpatialGridPartitioner.from_documents(3, UNIT_SQUARE, tdocs)
                )
            assert cluster.epoch == epoch
            assert isinstance(cluster.partitioner, HashPartitioner)
            assert not cluster.search(CAFES).degraded


class TestStandingQueriesAgeOut:
    def test_expire_removes_expired_docs_from_standing_topk(self):
        with QueryService(
            temporal_index(retention=30.0),
            ServiceConfig(metrics_seed=0),
        ) as svc:
            streams = svc.streams()
            sub = streams.subscribe("aging")
            qid = streams.register(
                sub, TopKQuery(0.5, 0.5, ("cafe",), k=4), alpha=0.5
            )
            before = {p[0] for p in results_as_pairs(streams.results(qid))}
            assert 0 in before or len(before) == 4
            svc.advance(100.0)  # horizon 70: slices [0,10)...[60,70) expire
            svc.expire()
            after = results_as_pairs(streams.results(qid))
            live_ids = {p[0] for p in after}
            # Docs 0..13 at ts 0..55 within dropped slices are gone from
            # the maintained top-k without any per-doc delete call.
            assert all(svc.temporal.get(i) is not None for i in live_ids)
            expected = results_as_pairs(
                svc.temporal.query(
                    TopKQuery(0.5, 0.5, ("cafe",), k=4),
                    Ranker(UNIT_SQUARE, alpha=0.5),
                )
            )
            assert after == expected


class TestWire:
    def test_args_round_trip_plain(self):
        base = TopKQuery(0.25, 0.75, ("cafe", "bar"), k=7, semantics=Semantics.AND)
        args = query_to_args(base)
        assert "time_range" not in args and "recency" not in args
        assert query_from_args(args) == base

    def test_args_round_trip_temporal(self):
        tq = TemporalQuery(
            TopKQuery(0.25, 0.75, ("cafe",), k=3),
            TimeRange(1.5, 9.25),
            RecencySpec(12.0, 100.0),
        )
        encoded = json.loads(json.dumps(query_to_args(tq)))
        decoded = query_from_args(encoded)
        assert decoded == tq  # byte-identical floats via shortest repr

    def test_bad_temporal_args_are_protocol_errors(self):
        good = query_to_args(TopKQuery(0.5, 0.5, ("cafe",), k=1))
        for bad in (
            {**good, "time_range": [3.0]},
            {**good, "time_range": [3.0, 3.0]},
            {**good, "time_range": ["a", "b"]},
            {**good, "recency": {"half_life": -1.0, "origin": 0.0}},
            {**good, "recency": {"origin": 0.0}},
        ):
            with pytest.raises(ProtocolError):
                query_from_args(bad)

    def test_temporal_query_over_the_sim_wire(self):
        clock = SimClock()
        with QueryService(
            temporal_index(), ServiceConfig(metrics_seed=0)
        ) as svc:
            server = SimNetServer(svc, clock=clock)
            tq = TemporalQuery(
                TopKQuery(0.5, 0.5, ("cafe",), k=5),
                TimeRange(0.0, 30.0),
                RecencySpec(20.0, 60.0),
            )
            client = sim_client(server)
            try:
                got = results_as_pairs(client.search(tq))
            finally:
                client.close()
            direct = results_as_pairs(
                svc.temporal.query(tq, Ranker(UNIT_SQUARE, alpha=0.5))
            )
            assert got == direct

    def test_non_temporal_backend_refuses_temporal_queries(self):
        """Silently ignoring the temporal axis would serve wrong
        answers, so a plain-index backend must refuse outright."""
        clock = SimClock()
        index = I3Index(UNIT_SQUARE, page_size=256)
        index.insert_document(SpatialDocument(1, 0.5, 0.5, {"cafe": f32(0.5)}))
        with QueryService(
            index, ServiceConfig(metrics_seed=0)
        ) as svc:
            server = SimNetServer(svc, clock=clock)
            tq = TemporalQuery(
                TopKQuery(0.5, 0.5, ("cafe",), k=1), TimeRange(0.0, 1.0)
            )
            client = sim_client(server, retries=0)
            try:
                with pytest.raises(ProtocolError, match="temporal"):
                    client.search(tq)
            finally:
                client.close()

    def test_standing_registration_refuses_temporal_queries(self):
        clock = SimClock()
        with QueryService(
            temporal_index(), ServiceConfig(metrics_seed=0)
        ) as svc:
            svc.streams()
            server = SimNetServer(svc, clock=clock)
            tq = TemporalQuery(
                TopKQuery(0.5, 0.5, ("cafe",), k=1), TimeRange(0.0, 1.0)
            )
            client = sim_client(server, retries=0)
            try:
                with pytest.raises(ProtocolError, match="standing"):
                    client.register(tq)
            finally:
                client.close()


class TestCLI:
    @pytest.fixture
    def temporal_corpus(self, tmp_path):
        path = tmp_path / "temporal.jsonl"
        assert main([
            "generate", "--scenario", "time-skewed", "--docs", "80",
            "--seed", "3", "--horizon", "5000", "--out", str(path),
        ]) == 0
        return path

    def test_generate_scenario_stamps_timestamps(self, temporal_corpus):
        records = [
            json.loads(line)
            for line in temporal_corpus.read_text().strip().splitlines()
        ]
        assert len(records) == 80
        assert all("ts" in r for r in records)
        assert all(0.0 <= r["ts"] <= 5000.0 for r in records)

    def test_build_temporal_dir_and_reopen(self, tmp_path, temporal_corpus):
        root = tmp_path / "tix"
        assert main([
            "build", "--corpus", str(temporal_corpus),
            "--temporal-dir", str(root), "--slice-width", "500",
        ]) == 0
        index = TemporalIndex.open(str(root))
        assert index.num_documents == 80
        index.check_invariants()

    def test_build_temporal_dir_requires_timestamps(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        assert main(["generate", "--docs", "10", "--out", str(plain)]) == 0
        with pytest.raises(SystemExit):
            main(["build", "--corpus", str(plain),
                  "--temporal-dir", str(tmp_path / "x")])

    def test_temporal_bench_smoke(self):
        """The two temporal headline behaviours on the ``burst``
        scenario: hot-window queries skip sealed slices, and retention
        drops whole slices."""
        import random

        from repro.datasets.generators import TEMPORAL_SCENARIOS

        horizon, width, hot_slices = 5000.0, 250.0, 2.0
        corpus = TEMPORAL_SCENARIOS["burst"](300, seed=1, horizon=horizon)
        index = TemporalIndex.build(
            corpus.space,
            corpus.temporal_documents(),
            TemporalConfig(
                slice_width=width,
                retention_age=hot_slices * width,
                page_size=1024,
            ),
        )
        index.advance(horizon)  # everything before "now" seals
        ranker = Ranker(corpus.space, alpha=0.5)
        rng = random.Random(1)
        keywords = corpus.most_frequent_keywords(60)
        window = TimeRange(horizon - hot_slices * width, horizon)
        for x, y in corpus.sample_locations(rng, 30):
            words = tuple(rng.sample(keywords, rng.randint(1, 3)))
            index.query(
                TemporalQuery(
                    TopKQuery(x, y, words, k=10),
                    time_range=window,
                    recency=RecencySpec(width, horizon),
                ),
                ranker,
            )
        assert 0.0 <= index.slice_stats()["skip_ratio"] <= 1.0
        documents = index.num_documents
        assert len(index.expire()) > 0
        assert index.num_documents < documents
