"""Unit tests for the continuous-query subsystem: registry pruning,
the coalescing delivery queue, incremental matching, service wiring,
resume and a cluster's stream.

The end-to-end exactness guarantee (incremental top-k == from-scratch
query over a long mixed stream) lives in test_streaming_invariant.py;
these tests pin the individual mechanisms.
"""

import random
import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    SpatialGridPartitioner,
)
from repro.core.index import I3Index
from repro.core.recovery import DurableIndex
from repro.db import SpatialKeywordDatabase
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.service.errors import AnswerDegraded
from repro.service.service import QueryService, ServiceConfig
from repro.spatial.geometry import UNIT_SQUARE
from repro.streaming import (
    QueryRegistry,
    ResultUpdate,
    StandingQuery,
    StreamSubscription,
    StreamingService,
)
from repro.temporal import TemporalConfig, TemporalDocument, TemporalIndex
from tests.helpers import temporal_cluster


def doc(doc_id, x, y, terms):
    return SpatialDocument(doc_id, x, y, terms)


def standing(qid, x, y, words, k=3, alpha=0.5, semantics=Semantics.OR, sub="s"):
    return StandingQuery(
        qid,
        TopKQuery(x, y, tuple(words), k=k, semantics=semantics),
        Ranker(UNIT_SQUARE, alpha),
        sub,
    )


class TestMutationListener:
    def test_document_ops_emit_one_event_each(self):
        index = I3Index(UNIT_SQUARE)
        events = []
        index.add_mutation_listener(events.append)
        d = doc(1, 0.2, 0.2, {"a": 0.5, "b": 0.5})
        index.insert_document(d)
        index.delete_document(d)
        assert [e.kind for e in events] == ["insert", "delete"]
        # One event per document op, not per tuple, and epoch-stamped
        # after the op applied.
        assert events[0].epoch == 2 and events[1].epoch == 4
        assert events[0].doc == d

    def test_remove_listener(self):
        index = I3Index(UNIT_SQUARE)
        events = []
        index.add_mutation_listener(events.append)
        index.remove_mutation_listener(events.append)
        index.remove_mutation_listener(events.append)  # idempotent
        index.insert_document(doc(1, 0.5, 0.5, {"a": 0.5}))
        assert events == []

    def test_bulk_load_emits_single_event(self):
        index = I3Index(UNIT_SQUARE)
        events = []
        index.add_mutation_listener(events.append)
        index.bulk_load([doc(i, 0.1 * i, 0.1, {"a": 0.5}) for i in range(1, 5)])
        assert [e.kind for e in events] == ["bulk_load"]


class TestQueryRegistry:
    def test_candidates_by_keyword(self):
        registry = QueryRegistry(UNIT_SQUARE)
        sq_a = standing(1, 0.5, 0.5, ["a"])
        sq_b = standing(2, 0.5, 0.5, ["b"])
        registry.add(sq_a)
        registry.add(sq_b)
        candidates, _ = registry.candidates_insert(doc(9, 0.5, 0.5, {"a": 0.9}))
        assert [sq.query_id for sq in candidates] == [1]
        assert registry.candidates_delete(doc(9, 0.5, 0.5, {"b": 0.9})) == [sq_b]

    def test_duplicate_id_rejected(self):
        registry = QueryRegistry(UNIT_SQUARE)
        registry.add(standing(1, 0.5, 0.5, ["a"]))
        with pytest.raises(ValueError, match="already registered"):
            registry.add(standing(1, 0.5, 0.5, ["b"]))

    def test_remove_drops_empty_buckets(self):
        registry = QueryRegistry(UNIT_SQUARE)
        registry.add(standing(1, 0.5, 0.5, ["a", "b"]))
        assert registry.num_buckets() == 2
        assert registry.remove(1).query_id == 1
        assert registry.num_buckets() == 0
        assert registry.remove(1) is None
        assert len(registry) == 0

    def test_bucket_pruning_skips_hopeless_inserts(self):
        # Standing query in one corner with a full top-1 of score ~1.0;
        # a far-away weak document can't beat it, so its keyword bucket
        # must be skipped without touching the query.
        registry = QueryRegistry(UNIT_SQUARE, grid_level=3)
        sq = standing(1, 0.05, 0.05, ["a"], k=1, alpha=0.5)
        sq.seed([type("S", (), {"doc_id": 5, "score": 0.93})()])
        registry.add(sq)
        far_weak = doc(7, 0.95, 0.95, {"a": 0.01})
        candidates, skipped = registry.candidates_insert(far_weak)
        assert candidates == [] and skipped == 1
        # A strong nearby document still reaches the query.
        near_strong = doc(8, 0.06, 0.06, {"a": 1.0})
        candidates, _ = registry.candidates_insert(near_strong)
        assert candidates == [sq]

    def test_below_k_queries_are_never_pruned(self):
        registry = QueryRegistry(UNIT_SQUARE)
        registry.add(standing(1, 0.05, 0.05, ["a"], k=5))  # empty collector
        candidates, skipped = registry.candidates_insert(
            doc(7, 0.95, 0.95, {"a": 0.001})
        )
        assert len(candidates) == 1 and skipped == 0

    def test_query_outside_space_parks_at_root(self):
        registry = QueryRegistry(UNIT_SQUARE)
        sq = StandingQuery(
            1,
            TopKQuery(4.0, -3.0, ("a",), k=2, semantics=Semantics.OR),
            Ranker(UNIT_SQUARE, 0.5),
            "s",
        )
        registry.add(sq)
        candidates, _ = registry.candidates_insert(doc(2, 0.5, 0.5, {"a": 0.5}))
        assert candidates == [sq]


class TestStreamSubscription:
    def update(self, qid, seq=0, results=()):
        return ResultUpdate(qid, "update", epoch=1, lsn=None, seq=seq,
                            results=tuple(results))

    def test_coalesce_keeps_latest_per_query(self):
        sub = StreamSubscription("s")
        assert sub.offer(self.update(1)) == "queued"
        assert sub.offer(self.update(2)) == "queued"
        assert sub.offer(self.update(1)) == "coalesced"
        polled = sub.poll()
        assert [u.query_id for u in polled] == [2, 1]  # 1 moved to back
        assert polled[1].seq == 3  # the replacement, not the original

    def test_poll_max_items_and_ack(self):
        sub = StreamSubscription("s")
        for qid in (1, 2, 3):
            sub.offer(self.update(qid))
        assert len(sub.poll(max_items=2)) == 2
        assert sub.depth == 1

    def test_closed_subscription_drops_offers(self):
        sub = StreamSubscription("s")
        sub.close()
        assert sub.offer(self.update(1)) == "dropped"
        assert sub.poll() == []

    def test_bad_arguments(self):
        # The queue takes no bound: its registrations bound it.
        with pytest.raises(TypeError):
            StreamSubscription("s", capacity=8)


class TestStreamingService:
    def build(self, n=120, seed=0):
        rng = random.Random(seed)
        index = I3Index(UNIT_SQUARE)
        docs = [
            doc(i, rng.random(), rng.random(),
                {w: round(rng.uniform(0.1, 1.0), 2)
                 for w in rng.sample(["a", "b", "c", "d"], 2)})
            for i in range(1, n + 1)
        ]
        for d in docs[: n // 2]:
            index.insert_document(d)
        return index, docs

    def test_register_delivers_snapshot_then_updates(self):
        index, docs = self.build()
        with QueryService(index) as service:
            streams = service.streams()
            sub = streams.subscribe()
            qid = streams.register(
                sub, TopKQuery(0.5, 0.5, ("a", "b"), k=5, semantics=Semantics.OR)
            )
            snapshot = sub.poll()
            assert len(snapshot) == 1 and snapshot[0].kind == "snapshot"
            assert snapshot[0].query_id == qid
            for d in docs[60:]:
                index.insert_document(d)
            for update in sub.poll():
                assert update.kind == "update"
            ranker = streams.registry.get(qid).ranker
            assert streams.results(qid) == index.query(
                streams.registry.get(qid).query, ranker
            )

    def test_unregister_and_unsubscribe(self):
        index, _ = self.build()
        with QueryService(index) as service:
            streams = service.streams()
            sub = streams.subscribe("client")
            q = TopKQuery(0.5, 0.5, ("a",), k=3, semantics=Semantics.OR)
            qid = streams.register(sub, q)
            assert streams.unregister(qid) and not streams.unregister(qid)
            qid2 = streams.register(sub, q)
            streams.unsubscribe(sub)
            assert sub.closed
            assert streams.results(qid2) is None
            assert len(streams.registry) == 0

    def test_close_detaches_listener(self):
        index, docs = self.build()
        with QueryService(index) as service:
            streams = service.streams()
            sub = streams.subscribe()
            streams.register(
                sub, TopKQuery(0.5, 0.5, ("a",), k=3, semantics=Semantics.OR)
            )
            streams.close()
            index.insert_document(docs[-1])
            counters = streams.metrics.as_dict()["counters"]
            assert counters.get("stream.events", 0) == 0
            with pytest.raises(ValueError, match="closed"):
                streams.subscribe()

    def test_per_query_alpha_and_semantics(self):
        index, docs = self.build(seed=3)
        for d in docs[60:]:
            index.insert_document(d)
        with QueryService(index) as service:
            streams = service.streams()
            sub = streams.subscribe()
            q_and = TopKQuery(0.4, 0.4, ("a", "b"), k=4, semantics=Semantics.AND)
            q_or = TopKQuery(0.4, 0.4, ("a", "b"), k=4, semantics=Semantics.OR)
            qid_and = streams.register(sub, q_and, alpha=0.9)
            qid_or = streams.register(sub, q_or, alpha=0.1)
            assert streams.results(qid_and) == index.query(
                q_and, Ranker(UNIT_SQUARE, 0.9)
            )
            assert streams.results(qid_or) == index.query(
                q_or, Ranker(UNIT_SQUARE, 0.1)
            )

    def test_service_target_runs_under_write_lock(self):
        index, docs = self.build()
        with QueryService(index, ServiceConfig()) as service:
            streams = service.streams()
            assert service.streams() is streams  # lazily built once
            sub = streams.subscribe()
            q = TopKQuery(0.5, 0.5, ("a", "b"), k=5, semantics=Semantics.OR)
            qid = streams.register(sub, q)
            for d in docs[60:]:
                service.insert(d)
            assert streams.results(qid) == service.search(q)

    def test_recover_rebinds_streams(self, tmp_path):
        rng = random.Random(1)
        docs = [
            doc(i, rng.random(), rng.random(), {"a": 0.5, "b": round(rng.random(), 2) or 0.1})
            for i in range(1, 40)
        ]
        durable = DurableIndex.create(str(tmp_path / "d"), I3Index(UNIT_SQUARE))
        with QueryService(durable) as service:
            streams = service.streams()
            sub = streams.subscribe()
            q = TopKQuery(0.5, 0.5, ("a",), k=5, semantics=Semantics.OR)
            qid = streams.register(sub, q)
            for d in docs:
                service.insert(d)
            before = streams.results(qid)
            service.recover()  # swaps the served index instance
            assert streams.index is service.index
            assert streams.results(qid) == before
            service.insert(doc(99, 0.5, 0.5, {"a": 1.0}))
            assert streams.results(qid) == service.index.query(
                q, Ranker(UNIT_SQUARE, 0.5)
            )
            assert any(r.doc_id == 99 for r in streams.results(qid))
        durable.close()

    def test_stream_follows_a_reweighed_database(self):
        # reweigh() swaps the database's index; a stream left listening
        # on the old one never sees the re-weighted scores or a later
        # insert.
        db = SpatialKeywordDatabase()
        db.add(1, 0.2, 0.3, "spicy ramen noodles")
        db.add(2, 0.8, 0.8, "quiet library books")
        q = TopKQuery(0.2, 0.3, ("spicy", "ramen"), k=5)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        with QueryService(db) as service:
            streams = service.streams()
            sub = streams.subscribe()
            qid = streams.register(sub, q)
            service.mutate(lambda target: target.reweigh())
            service.insert(3, 0.21, 0.31, "spicy spicy ramen")
            expected = [(h.doc_id, h.score) for h in db.query(q, ranker)]
            assert 3 in {doc_id for doc_id, _ in expected}
            got = [(r.doc_id, r.score) for r in streams.results(qid)]
            assert got == expected
            assert streams.index is db.index
            last = {u.query_id: u for u in sub.poll()}[qid]
            assert [(r.doc_id, r.score) for r in last.results] == expected

    def test_a_temporal_stream_scores_what_its_target_stores(self):
        # 0.1 and 0.7 are not f32 values: the stream's incremental
        # offers and the slices' rescoring both read the document's
        # quantised weights, so every delivered list is the target's
        # answer bit for bit.
        rng = random.Random(4)
        index = TemporalIndex(UNIT_SQUARE, TemporalConfig(slice_width=10.0))
        q = TopKQuery(0.5, 0.5, ("a", "b"), k=5, semantics=Semantics.OR)
        with QueryService(index) as service:
            streams = service.streams()
            sub = streams.subscribe()
            qid = streams.register(sub, q)
            sub.poll()
            delivered = 0
            for i in range(1, 61):
                terms = {w: rng.choice([0.1, 0.7]) for w in rng.sample("abc", 2)}
                d = doc(i, rng.random(), rng.random(), terms)
                service.insert(TemporalDocument(d, float(i)))
                for update in sub.poll():
                    assert _bits(update.results) == _bits(service.search(q))
                    delivered += 1
            assert delivered > 5
            assert _bits(streams.results(qid)) == _bits(service.search(q))


class TestResume:
    def build_durable(self, tmp_path, n=80, seed=2):
        rng = random.Random(seed)
        durable = DurableIndex.create(
            str(tmp_path / "store"), I3Index(UNIT_SQUARE), sync_every=50
        )
        docs = [
            doc(i, rng.random(), rng.random(),
                {w: round(rng.uniform(0.1, 1.0), 2)
                 for w in rng.sample(["a", "b", "c"], 2)})
            for i in range(1, n + 1)
        ]
        return durable, docs

    def test_resume_requeries_every_query(self, tmp_path):
        durable, docs = self.build_durable(tmp_path)
        q = TopKQuery(0.5, 0.5, ("a", "b"), k=5, semantics=Semantics.OR)
        with QueryService(durable) as service:
            streams = service.streams()
            sub = streams.subscribe("client")
            qid = streams.register(sub, q, alpha=0.5)
            held = {qid: (q, 0.5)}
            for d in docs[:40]:
                service.insert(d)
            sub.poll()
            streams.unsubscribe(sub)  # subscriber dies
            for d in docs[40:]:
                service.insert(d)
            service.delete(docs[0])
            sub2 = streams.resume("client", held)
            snapshots = sub2.poll()
            assert [(u.kind, u.query_id) for u in snapshots] == [("snapshot", qid)]
            assert snapshots[0].lsn == durable.last_lsn
            assert streams.results(qid) == durable.index.query(
                q, Ranker(UNIT_SQUARE, 0.5)
            )
            counters = streams.metrics.as_dict()["counters"]
            assert counters["stream.resume_requeries"] == 1
            assert streams.register(sub2, q) > qid  # ids are never reused
        durable.close()

    def test_resume_after_a_checkpoint_reset_the_log(self, tmp_path):
        durable, docs = self.build_durable(tmp_path)
        q = TopKQuery(0.5, 0.5, ("a",), k=4, semantics=Semantics.OR)
        with QueryService(durable) as service:
            streams = service.streams()
            sub = streams.subscribe("client")
            qid = streams.register(sub, q, alpha=0.5)
            for d in docs[:30]:
                service.insert(d)
            streams.unsubscribe(sub)
            for d in docs[30:]:
                service.insert(d)
            service.checkpoint()  # resets the log: the history is gone
            streams.resume("client", {qid: (q, 0.5)})
            assert streams.results(qid) == durable.index.query(
                q, Ranker(UNIT_SQUARE, 0.5)
            )
        durable.close()


def _corpus(n, seed=5):
    rng = random.Random(seed)
    return [
        doc(i, rng.random(), rng.random(),
            {w: round(rng.uniform(0.1, 1.0), 2)
             for w in rng.sample(["a", "b", "c", "d"], 2)})
        for i in range(1, n + 1)
    ]


def _bits(results):
    """A result list byte for byte: ids and the exact score bits."""
    return [(r.doc_id, r.score.hex()) for r in results]


class TestClusterStream:
    """A cluster's standing queries live in the one StreamingService a
    single index uses; every delivered list equals the scatter-gather
    answer byte for byte."""

    Q = TopKQuery(0.5, 0.5, ("a", "b"), k=6, semantics=Semantics.OR)

    @staticmethod
    def scatter(cluster, query):
        answer = cluster.search(query)
        assert not answer.degraded
        return _bits(answer.results)

    def test_merged_results_match_scatter(self):
        docs = _corpus(160)
        with ClusterService.build(
            docs[:80], HashPartitioner(3, UNIT_SQUARE), ClusterConfig(replicas=1),
        ) as cluster:
            streams = cluster.streams()
            assert isinstance(streams, StreamingService)
            assert cluster.streams() is streams
            sub = streams.subscribe()
            qid = streams.register(sub, self.Q)
            [snapshot] = sub.poll()
            assert snapshot.kind == "snapshot"
            assert _bits(snapshot.results) == self.scatter(cluster, self.Q)
            for d in docs[80:]:
                cluster.insert(d)
                assert _bits(streams.results(qid)) == self.scatter(cluster, self.Q)
            victim = streams.results(qid)[0].doc_id
            sub.poll()
            cluster.delete(docs[victim - 1])
            [update] = sub.poll()
            assert update.kind == "update" and update.lsn is None
            assert update.epoch == cluster.epoch
            assert _bits(update.results) == self.scatter(cluster, self.Q)
            assert victim not in {r.doc_id for r in update.results}
            # Inserts were scored in place: the delete is the one re-answer.
            assert cluster.metrics.counter("stream.requeries").value == 1
            assert streams.unregister(qid) and not streams.unregister(qid)
            assert streams.results(qid) is None

    def test_failover_keeps_the_stream(self):
        docs = _corpus(120)
        with ClusterService.build(
            docs, HashPartitioner(3, UNIT_SQUARE), ClusterConfig(replicas=2),
        ) as cluster:
            streams = cluster.streams()
            sub = streams.subscribe()
            qid = streams.register(sub, self.Q)
            sub.poll()
            victim = docs[streams.results(qid)[0].doc_id - 1]
            cluster.replica(cluster.partitioner.shard_of(victim), 0).kill()
            cluster.delete(victim)
            [update] = sub.poll()
            assert _bits(update.results) == self.scatter(cluster, self.Q)
            assert victim.doc_id not in {r.doc_id for r in update.results}

    def test_degraded_reanswer_waits_for_recovery(self, tmp_path):
        docs = _corpus(120)
        partitioner = HashPartitioner(3, UNIT_SQUARE)
        with ClusterService.build(
            docs, partitioner, ClusterConfig(replicas=1),
            durable_root=str(tmp_path),
        ) as cluster:
            streams = cluster.streams()
            sub = streams.subscribe()
            qid = streams.register(sub, self.Q)
            sub.poll()
            held = streams.results(qid)
            victim = docs[held[0].doc_id - 1]
            owner = partitioner.shard_of(victim)
            dead = (owner + 1) % 3
            cluster.replica(dead, 0).kill()
            # A degraded seed raises what the wire reports for a
            # degraded search; nothing is registered.
            other = TopKQuery(0.3, 0.3, ("c",), k=3)
            with pytest.raises(AnswerDegraded, match=r"answer degraded \(failed shards"):
                streams.register(sub, other)
            assert len(streams.registry) == 1
            cluster.delete(victim)
            assert sub.poll() == []
            assert streams.results(qid) == held  # held back, never delivered
            assert cluster.metrics.counter("stream.stale").value == 1
            # The next mutation re-answers it, and it is still degraded.
            extra = next(
                d for d in (doc(i, 0.5, 0.5, {"c": 0.3}) for i in range(500, 600))
                if partitioner.shard_of(d) == owner
            )
            cluster.insert(extra)
            assert sub.poll() == []
            cluster.recover(dead, 0)
            [update] = sub.poll()
            assert _bits(update.results) == self.scatter(cluster, self.Q)
            assert _bits(streams.results(qid)) == _bits(update.results)
            assert victim.doc_id not in {r.doc_id for r in update.results}
            assert cluster.metrics.counter("stream.stale").value == 1

    def test_rebalance_beside_evicting_deletes_does_not_deadlock(self):
        docs = _corpus(300, seed=9)
        by_id = {d.doc_id: d for d in docs}
        queries = [
            TopKQuery(x, y, words, k=4, semantics=Semantics.OR)
            for x, y, words in [(0.2, 0.2, ("a",)), (0.8, 0.3, ("b", "c")),
                                (0.5, 0.9, ("d",)), (0.4, 0.6, ("a", "d"))]
        ]
        with ClusterService.build(
            docs, HashPartitioner(3, UNIT_SQUARE), ClusterConfig(replicas=1),
        ) as cluster:
            streams = cluster.streams()
            sub = streams.subscribe()
            qids = [streams.register(sub, q) for q in queries]
            target = SpatialGridPartitioner.from_documents(3, UNIT_SQUARE, docs)
            start = threading.Barrier(2)
            errors = []

            def evict():
                start.wait()
                for i in range(40):
                    results = streams.results(qids[i % len(qids)])
                    if results:
                        cluster.delete(by_id.pop(results[0].doc_id))

            def move():
                start.wait()
                cluster.rebalance(target)

            def run(fn):
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(fn,), daemon=True)
                for fn in (evict, move)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), "deadlock"
            assert errors == []
            assert cluster.partitioner is target
            for query, qid in zip(queries, qids):
                assert _bits(streams.results(qid)) == self.scatter(cluster, query)

    def test_alpha_must_be_the_cluster_rankers(self):
        with ClusterService.build(
            _corpus(60), HashPartitioner(2, UNIT_SQUARE), ClusterConfig(replicas=1),
            ranker=Ranker(UNIT_SQUARE, 0.3),
        ) as cluster:
            streams = cluster.streams()
            sub = streams.subscribe()
            with pytest.raises(ValueError, match="alpha 0.3"):
                streams.register(sub, self.Q)  # the default alpha, 0.5
            with pytest.raises(ValueError, match="alpha 0.3"):
                streams.resume("s", {1: (self.Q, 0.5)})
            assert len(streams.registry) == 0
            qid = streams.register(sub, self.Q, alpha=0.3)
            assert _bits(streams.results(qid)) == self.scatter(cluster, self.Q)

    def test_a_temporal_cluster_ages_results_out(self):
        docs = _corpus(90)
        tdocs = [TemporalDocument(d, float(i)) for i, d in enumerate(docs[:60])]
        with temporal_cluster(
            tdocs, HashPartitioner(2, UNIT_SQUARE),
            TemporalConfig(slice_width=10.0, retention_age=30.0),
            ClusterConfig(replicas=1),
        ) as cluster:
            streams = cluster.streams()
            sub = streams.subscribe()
            qid = streams.register(sub, self.Q)
            for i, d in enumerate(docs[60:], start=60):
                cluster.insert(TemporalDocument(d, float(i)))
            assert _bits(streams.results(qid)) == self.scatter(cluster, self.Q)
            assert any(cluster.expire(90.0).values())
            assert _bits(streams.results(qid)) == self.scatter(cluster, self.Q)
            assert all(r.doc_id > 50 for r in streams.results(qid))
