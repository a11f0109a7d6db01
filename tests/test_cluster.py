"""Tests for the sharded cluster layer.

The load-bearing property: a sharded cluster answers every top-k query
byte-identically to one monolithic index — partitioning, bound-based
shard skipping, replication, and failover must never change results,
only availability and cost.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    ReplicaFault,
    ShardChannel,
    ShardManifest,
    SpatialGridPartitioner,
    build_manifest,
    partitioner_from_manifest,
)
from repro.core.index import I3Index
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.service import ServiceConfig
from repro.service.errors import ServiceClosed
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import make_documents, results_as_pairs

VOCAB_EXTRA = ["tea", "ramen", "vegan", "tapas", "deli", "bakery"]


@pytest.fixture(autouse=True)
def _engines(engine):
    """The whole module runs under both execution engines (shared
    ``engine`` fixture): scatter-gather equivalence, failover and
    caching must hold identically whichever engine the shard services
    score with."""


def _corpus(rng, count=250):
    from tests.helpers import DEFAULT_VOCAB

    return make_documents(
        count, rng, vocab=list(DEFAULT_VOCAB) + VOCAB_EXTRA, max_words=5
    )


def _random_queries(rng, docs, count):
    words = sorted({w for d in docs for w in d.terms})
    queries = []
    for _ in range(count):
        qn = rng.randint(1, 3)
        queries.append(
            TopKQuery(
                rng.random(),
                rng.random(),
                tuple(rng.sample(words, qn)),
                k=rng.randint(1, 12),
                semantics=rng.choice([Semantics.AND, Semantics.OR]),
            )
        )
    return queries


def _partitioner(kind, shards, docs):
    if kind == "hash":
        return HashPartitioner(shards, UNIT_SQUARE)
    if kind == "spatial":
        return SpatialGridPartitioner.from_documents(
            shards, UNIT_SQUARE, docs, leaf_capacity=32
        )
    from repro.planner import WorkloadModel, WorkloadPartitioner

    # Learned from a seeded workload of its own: answers must stay
    # byte-identical whatever traffic the planner optimised for.
    queries = _random_queries(random.Random(1234), docs, count=80)
    return WorkloadPartitioner.learn(
        shards,
        UNIT_SQUARE,
        docs,
        model=WorkloadModel.from_queries(queries, UNIT_SQUARE),
        leaf_capacity=32,
    )


def _cluster(docs, kind="hash", shards=4, **config_kwargs):
    config_kwargs.setdefault("shard_config", ServiceConfig())
    return ClusterService.build(
        docs,
        _partitioner(kind, shards, docs),
        ClusterConfig(**config_kwargs),
        ranker=Ranker(UNIT_SQUARE),
    )


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_hash_routing_is_deterministic_and_total(self, rng):
        part = HashPartitioner(5, UNIT_SQUARE)
        for doc_id in range(500):
            sid = part.shard_of_id(doc_id)
            assert 0 <= sid < 5
            assert sid == part.shard_of_id(doc_id)

    def test_hash_spreads_sequential_ids(self):
        part = HashPartitioner(4, UNIT_SQUARE)
        counts = [0] * 4
        for doc_id in range(1000):
            counts[part.shard_of_id(doc_id)] += 1
        # SplitMix64 should keep sequential ids roughly uniform.
        assert min(counts) > 150

    def test_spatial_assigns_whole_documents_by_location(self, rng):
        docs = _corpus(rng)
        part = SpatialGridPartitioner.from_documents(
            4, UNIT_SQUARE, docs, leaf_capacity=16
        )
        for doc in docs:
            assert part.shard_of(doc) == part.shard_of_point(doc.x, doc.y)

    def test_spatial_balances_document_counts(self, rng):
        docs = _corpus(rng, count=400)
        part = SpatialGridPartitioner.from_documents(
            4, UNIT_SQUARE, docs, leaf_capacity=16
        )
        counts = [0] * 4
        for doc in docs:
            counts[part.shard_of(doc)] += 1
        assert sum(counts) == len(docs)
        # Greedy packing keeps loads within a couple of leaves.
        assert max(counts) - min(counts) <= 2 * 16

    def test_spatial_rejects_point_outside_space(self, rng):
        part = SpatialGridPartitioner.from_documents(
            2, UNIT_SQUARE, _corpus(rng, count=40)
        )
        with pytest.raises(ValueError):
            part.shard_of_point(2.0, 0.5)

    def test_spatial_regions_are_disjoint_across_shards(self, rng):
        part = SpatialGridPartitioner.from_documents(
            3, UNIT_SQUARE, _corpus(rng), leaf_capacity=16
        )
        regions = part.shard_regions()
        rects = [r for rs in regions.values() for r in rs]
        # Leaf rectangles tile the space: total area equals the root's.
        total = sum((r.max_x - r.min_x) * (r.max_y - r.min_y) for r in rects)
        assert total == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashPartitioner(0, UNIT_SQUARE)
        with pytest.raises(ValueError):
            SpatialGridPartitioner(2, UNIT_SQUARE, {})
        with pytest.raises(ValueError):
            SpatialGridPartitioner(2, UNIT_SQUARE, {1: 5})


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
class TestManifest:
    @pytest.mark.parametrize("kind", ["hash", "spatial", "workload"])
    def test_round_trip_restores_identical_routing(self, tmp_path, rng, kind):
        docs = _corpus(rng)
        part = _partitioner(kind, 4, docs)
        manifest = build_manifest(part, replicas=2, shard_documents=[10, 20, 30, 40])
        path = tmp_path / "cluster.manifest.json"
        manifest.save(str(path))

        loaded = ShardManifest.load(str(path))
        assert loaded.partitioner == kind
        assert loaded.num_shards == 4
        assert loaded.replicas == 2
        assert [s.num_documents for s in loaded.shards] == [10, 20, 30, 40]

        restored = partitioner_from_manifest(loaded)
        for doc in docs:
            assert restored.shard_of(doc) == part.shard_of(doc)

    def test_rejects_foreign_or_future_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            ShardManifest.load(str(path))
        path.write_text(
            json.dumps({"format": "i3-shard-manifest", "version": 99})
        )
        with pytest.raises(ValueError):
            ShardManifest.load(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardManifest("hash", 0, 1, UNIT_SQUARE)
        with pytest.raises(ValueError):
            ShardManifest("hash", 1, 0, UNIT_SQUARE)
        with pytest.raises(ValueError):
            ShardManifest("range", 1, 1, UNIT_SQUARE)


# ----------------------------------------------------------------------
# Scatter-gather equivalence (the acceptance property)
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("kind", ["hash", "spatial", "workload"])
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_sharded_topk_matches_single_index(self, rng, kind, shards):
        docs = _corpus(rng)
        ranker = Ranker(UNIT_SQUARE)
        mono = I3Index(UNIT_SQUARE)
        mono.bulk_load(docs)
        queries = _random_queries(rng, docs, count=120)
        with _cluster(docs, kind=kind, shards=shards, cache_capacity=0) as cluster:
            for query in queries:
                expected = results_as_pairs(mono.query(query, ranker))
                answer = cluster.search(query)
                assert not answer.degraded
                assert results_as_pairs(answer.results) == expected

    def test_equivalence_survives_mutations(self, rng):
        docs = _corpus(rng)
        ranker = Ranker(UNIT_SQUARE)
        mono = I3Index(UNIT_SQUARE)
        mono.bulk_load(docs)
        extra = make_documents(30, rng, start_id=10_000)
        queries = _random_queries(rng, docs + extra, count=40)
        with _cluster(docs, kind="hash", cache_capacity=0) as cluster:
            for doc in extra:
                mono.insert_document(doc)
                cluster.insert(doc)
            for doc in docs[::5]:
                mono.delete_document(doc)
                cluster.delete(doc)
            for query in queries:
                expected = results_as_pairs(mono.query(query, ranker))
                assert results_as_pairs(cluster.search(query).results) == expected

    def test_bound_pruning_skips_shards_without_changing_answers(self, rng):
        # One hot shard holds high-weight matches near the query; the
        # others only hold low-weight ones far away, so their advertised
        # bounds fall below delta once k results are in.
        hot = [
            SpatialDocument(i, 0.1 + 0.001 * i, 0.1, {"spicy": 0.9})
            for i in range(20)
        ]
        cold = [
            SpatialDocument(100 + i, 0.9, 0.9 - 0.001 * i, {"spicy": 0.05})
            for i in range(20)
        ]
        docs = hot + cold
        part = SpatialGridPartitioner.from_documents(
            2, UNIT_SQUARE, docs, leaf_capacity=25
        )
        ranker = Ranker(UNIT_SQUARE)
        mono = I3Index(UNIT_SQUARE)
        mono.bulk_load(docs)
        query = TopKQuery(0.1, 0.1, ("spicy",), k=5, semantics=Semantics.OR)
        cluster = ClusterService.build(
            docs,
            part,
            ClusterConfig(cache_capacity=0, shard_config=ServiceConfig()),
            ranker=ranker,
        )
        with cluster:
            answer = cluster.search(query)
            assert results_as_pairs(answer.results) == results_as_pairs(
                mono.query(query, ranker)
            )
            assert answer.shards_queried == 1
            assert answer.shards_skipped == 1
            assert cluster.metrics.counter("cluster.shards_pruned").value == 1

    def test_delta_is_checked_before_every_shard(self):
        # The query sits on shard A's only document: its score (0.95)
        # beats shard B's routed bound (B is at least 0.4 away), so with
        # the default config B is pruned after A — never queried.
        near = SpatialDocument(1, 0.1, 0.1, {"spicy": 0.5})
        far = SpatialDocument(2, 0.9, 0.9, {"spicy": 1.0})
        part = SpatialGridPartitioner.from_documents(
            2, UNIT_SQUARE, [near, far], leaf_capacity=1
        )
        shard_b = part.shard_of(far)
        assert part.shard_of(near) != shard_b
        ranker = Ranker(UNIT_SQUARE, alpha=0.9)
        mono = I3Index(UNIT_SQUARE)
        mono.bulk_load([near, far])
        query = TopKQuery(0.1, 0.1, ("spicy",), k=1, semantics=Semantics.OR)
        with ClusterService.build(
            [near, far], part, ClusterConfig(), ranker=ranker
        ) as cluster:
            answer = cluster.search(query)
            counters = cluster.metrics_snapshot()["counters"]
        assert results_as_pairs(answer.results) == results_as_pairs(
            mono.query(query, ranker)
        )
        assert [doc.doc_id for doc in answer.results] == [1]
        assert counters["cluster.shards_pruned"] == 1
        assert f"shard.{shard_b}.queries" not in counters

    def test_and_semantics_skip_keyword_absent_shards(self, rng):
        # "tea" on shard A only, "vegan" on shard B only: an AND query
        # for both can match nowhere and must touch no shard at all.
        docs = [
            SpatialDocument(1, 0.1, 0.1, {"tea": 0.5}),
            SpatialDocument(2, 0.9, 0.9, {"vegan": 0.5}),
        ]
        part = SpatialGridPartitioner(2, UNIT_SQUARE, {4: 0, 5: 0, 6: 1, 7: 1})
        cluster = ClusterService.build(
            docs, part,
            ClusterConfig(cache_capacity=0, shard_config=ServiceConfig()),
            ranker=Ranker(UNIT_SQUARE),
        )
        with cluster:
            answer = cluster.search(
                TopKQuery(0.5, 0.5, ("tea", "vegan"), k=3, semantics=Semantics.AND)
            )
            assert answer.results == []
            assert answer.shards_queried == 0
            assert answer.shards_skipped == 2


# ----------------------------------------------------------------------
# Replication and failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_dead_primary_absorbed_without_degradation(self, rng):
        docs = _corpus(rng)
        ranker = Ranker(UNIT_SQUARE)
        mono = I3Index(UNIT_SQUARE)
        mono.bulk_load(docs)
        queries = _random_queries(rng, docs, count=30)
        with _cluster(docs, replicas=2, cache_capacity=0) as cluster:
            cluster.replica(0, 0).kill()
            for query in queries:
                answer = cluster.search(query)
                assert not answer.degraded  # failover absorbed the kill
                assert answer.failed_shards == ()
                assert results_as_pairs(answer.results) == results_as_pairs(
                    mono.query(query, ranker)
                )
            assert cluster.metrics.counter("cluster.failovers").value > 0

    def test_transient_faults_retried_on_sibling(self, rng):
        class FailTwice(ShardChannel):
            """Fails the first two attempts on replica (2, 0)."""

            def __init__(self):
                self.faults = 2

            def search(self, replica, query, timeout):
                if (replica.shard_id, replica.replica_id) == (2, 0) and self.faults:
                    self.faults -= 1
                    raise ReplicaFault(2, 0, "transient fault")
                return super().search(replica, query, timeout)

        docs = _corpus(rng)
        channel = FailTwice()
        with ClusterService.build(
            docs,
            _partitioner("hash", 4, docs),
            ClusterConfig(replicas=2, cache_capacity=0, shard_config=ServiceConfig()),
            ranker=Ranker(UNIT_SQUARE),
            channel=channel,
        ) as cluster:
            for query in _random_queries(rng, docs, count=10):
                assert not cluster.search(query).degraded
            assert channel.faults == 0
            assert cluster.metrics.counter("cluster.attempt_failures").value == 2

    def test_fully_dead_shard_flags_degraded(self, rng):
        docs = _corpus(rng)
        with _cluster(docs, replicas=2, cache_capacity=0) as cluster:
            cluster.replica(1, 0).kill()
            cluster.replica(1, 1).kill()
            answer = cluster.search(
                TopKQuery(0.5, 0.5, ("restaurant",), k=5, semantics=Semantics.OR)
            )
            assert answer.degraded
            assert answer.failed_shards == (1,)
            # Surviving shards still answered.
            assert answer.results

    def test_degraded_answers_are_not_cached(self, rng):
        docs = _corpus(rng)
        with _cluster(docs, replicas=1, cache_capacity=64) as cluster:
            query = TopKQuery(0.5, 0.5, ("restaurant",), k=5, semantics=Semantics.OR)
            cluster.replica(0, 0).kill()
            first = cluster.search(query)
            assert first.degraded
            second = cluster.search(query)
            assert not second.from_cache  # degraded answers never cached

    def test_replica_health_demotes_after_threshold(self, rng):
        docs = _corpus(rng)
        with _cluster(docs, replicas=2, failure_threshold=2) as cluster:
            rep = cluster.replica(0, 0)
            assert rep.healthy
            rep.mark_failure()
            assert rep.healthy  # below threshold
            rep.mark_failure()
            assert not rep.healthy
            rep.mark_success()
            assert rep.healthy
            rep.mark_failure()
            rep.mark_failure()
            rep.revive()
            assert rep.healthy

    def test_replica_fault_carries_addresses(self, rng):
        docs = _corpus(rng)
        with _cluster(docs, replicas=1) as cluster:
            rep = cluster.replica(3, 0)
            rep.kill()
            with pytest.raises(ReplicaFault, match="service closed") as err:
                rep.search(
                    TopKQuery(0.5, 0.5, ("bar",), k=3, semantics=Semantics.OR)
                )
            assert err.value.shard_id == 3
            assert err.value.replica_id == 0

    def test_mutation_with_no_live_replica_raises(self, rng):
        docs = _corpus(rng)
        doc = SpatialDocument(9999, 0.5, 0.5, {"tea": 0.5})
        with _cluster(docs, replicas=1) as cluster:
            sid = cluster.partitioner.shard_of(doc)
            cluster.replica(sid, 0).kill()
            with pytest.raises(ServiceClosed):
                cluster.insert(doc)


# ----------------------------------------------------------------------
# Cluster-wide caching and epochs
# ----------------------------------------------------------------------
class TestClusterCache:
    def test_mutation_on_any_shard_invalidates_cached_answers(self, rng):
        docs = _corpus(rng)
        query = TopKQuery(0.3, 0.3, ("spicy",), k=40, semantics=Semantics.OR)
        with _cluster(docs, cache_capacity=64) as cluster:
            first = cluster.search(query)
            assert cluster.search(query).from_cache
            epoch = cluster.epoch
            new_doc = SpatialDocument(7777, 0.3, 0.3, {"spicy": 0.99})
            cluster.insert(new_doc)
            assert cluster.epoch > epoch
            fresh = cluster.search(query)
            assert not fresh.from_cache
            assert 7777 in {d for d, _ in results_as_pairs(fresh.results)}
            cluster.delete(new_doc)
            again = cluster.search(query)
            assert not again.from_cache
            assert results_as_pairs(again.results) == results_as_pairs(
                first.results
            )

    def test_cache_hit_preserves_answer_and_sets_flag(self, rng):
        docs = _corpus(rng)
        query = TopKQuery(0.6, 0.6, ("pizza",), k=5, semantics=Semantics.OR)
        with _cluster(docs, cache_capacity=8) as cluster:
            first = cluster.search(query)
            assert not first.from_cache
            hit = cluster.search(query)
            assert hit.from_cache
            assert results_as_pairs(hit.results) == results_as_pairs(first.results)


class TestBoundsCache:
    """The router's per-shard keyword_bounds cache: repeat routing must
    reuse cached bounds, and any epoch bump or rebalance must
    invalidate them (a stale low bound could wrongly prune a shard)."""

    def test_repeat_routing_reuses_cached_bounds(self, rng):
        docs = _corpus(rng)
        query = TopKQuery(0.4, 0.4, ("pizza", "cafe"), k=5,
                          semantics=Semantics.OR)
        # cache_capacity=0 disables the *result* cache, so every search
        # re-routes — isolating the bounds cache under test.
        with _cluster(docs, shards=3, cache_capacity=0) as cluster:
            first = cluster.search(query)
            counters = cluster.metrics_snapshot()["counters"]
            misses = counters["cluster.bounds_cache_misses"]
            assert misses > 0
            assert "cluster.bounds_cache_hits" not in counters
            second = cluster.search(query)
            counters = cluster.metrics_snapshot()["counters"]
            assert counters["cluster.bounds_cache_misses"] == misses
            assert counters["cluster.bounds_cache_hits"] > 0
            assert results_as_pairs(second.results) == results_as_pairs(
                first.results
            )

    def test_epoch_bump_invalidates_cached_bounds(self, rng):
        """The regression the cache must never introduce: a word cached
        as absent (or low-bounded) on a shard must be refetched after a
        mutation bumps that shard's epoch — otherwise the shard is
        wrongly skipped and its new best document silently vanishes."""
        docs = _corpus(rng)
        word = "zzz-unique"  # in no generated document
        query = TopKQuery(0.5, 0.5, (word,), k=3, semantics=Semantics.OR)
        with _cluster(docs, shards=3, cache_capacity=0) as cluster:
            empty = cluster.search(query)
            assert empty.results == []
            new_doc = SpatialDocument(8888, 0.5, 0.5, {word: 0.97})
            cluster.insert(new_doc)
            found = cluster.search(query)
            assert [d for d, _ in results_as_pairs(found.results)] == [8888]

    def test_rebalance_flushes_bounds_cache(self, rng):
        docs = _corpus(rng)
        query = TopKQuery(0.4, 0.4, ("pizza",), k=5, semantics=Semantics.OR)
        with _cluster(docs, shards=3, cache_capacity=0) as cluster:
            cluster.search(query)
            assert cluster._bounds_cache  # populated by routing
            cluster.rebalance(_partitioner("spatial", 3, docs))
            assert cluster._bounds_cache == {}
            # And routing after the flush still answers identically.
            again = cluster.search(query)
            assert results_as_pairs(again.results) == results_as_pairs(
                cluster.search(query).results
            )


# ----------------------------------------------------------------------
# Metrics and configuration
# ----------------------------------------------------------------------
class TestClusterMetrics:
    def test_rollup_labels_and_totals(self, rng):
        docs = _corpus(rng)
        with _cluster(docs, shards=2, cache_capacity=0) as cluster:
            for query in _random_queries(rng, docs, count=8):
                cluster.search(query)
            snap = cluster.metrics_snapshot()
        assert snap["cluster"]["num_shards"] == 2
        rollup = snap["rollup"]
        completed_labels = [
            name for name in rollup["per_shard"]
            if name.startswith("queries.completed{shard=")
        ]
        assert completed_labels
        assert rollup["totals"]["queries.completed"] == sum(
            rollup["per_shard"][name] for name in completed_labels
        )
        assert set(snap["shards"]) == {"0", "1"}
        for shard in snap["shards"].values():
            assert shard["replicas"][0]["alive"] is True

    def test_visit_accounting_is_conserved(self, rng):
        docs = _corpus(rng)
        queries = _random_queries(rng, docs, count=25)
        with _cluster(docs, shards=4, cache_capacity=0) as cluster:
            answers = [cluster.search(q) for q in queries]
            counters = cluster.metrics_snapshot()["counters"]
        # Every query routes each of the 4 shards exactly once: queried
        # + pruned + keyword-absent must account for all of them.
        visits = (
            counters["cluster.shards_queried"]
            + counters.get("cluster.shards_pruned", 0)
            + counters.get("cluster.shards_no_candidates", 0)
        )
        assert visits == 4 * len(queries)
        for answer in answers:
            assert answer.shards_queried + answer.shards_skipped == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(replicas=0)
        with pytest.raises(TypeError):
            ClusterConfig(scatter_width=2)  # one shard at a time: no width
        with pytest.raises(ValueError):
            ClusterConfig(attempt_timeout=0)
        with pytest.raises(ValueError):
            ClusterConfig(attempt_timeout=float("nan"))
        with pytest.raises(ValueError):
            ClusterConfig(backoff=-0.1)
        with pytest.raises(ValueError):
            ClusterConfig(backoff=float("nan"))
        with pytest.raises(ValueError):
            ClusterConfig(retry_rounds=-1)
        with pytest.raises(ValueError):
            ClusterConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            ClusterConfig(cache_capacity=-1)

    def test_unbounded_is_spelled_none_not_infinity(self, rng):
        """An infinite configured budget is refused up front (it would
        surface as ``OverflowError`` inside every shard attempt); an
        infinite *caller* budget just means the caller is in no hurry."""
        with pytest.raises(ValueError, match="finite"):
            ClusterConfig(deadline=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            ClusterConfig(attempt_timeout=float("inf"))
        docs = _corpus(rng, count=60)
        query = TopKQuery(0.5, 0.5, ("bar",), k=3, semantics=Semantics.OR)
        with _cluster(docs, shards=2, cache_capacity=0) as cluster:
            unhurried = cluster.search(query, timeout=float("inf"))
            assert not unhurried.degraded
            assert unhurried.results == cluster.search(query).results
            counters = cluster.metrics_snapshot()["counters"]
            assert counters.get("cluster.attempt_failures", 0) == 0

    def test_close_is_idempotent_and_final(self, rng):
        docs = _corpus(rng, count=40)
        cluster = _cluster(docs, shards=2)
        cluster.close()
        cluster.close()
        assert cluster.closed
        with pytest.raises(ServiceClosed):
            cluster.search(
                TopKQuery(0.5, 0.5, ("bar",), k=3, semantics=Semantics.OR)
            )
