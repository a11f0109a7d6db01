"""Tests for the workload-aware planner subsystem.

Covers the record -> model -> partition -> rebalance loop:

* the query-log recorder stays within its memory bound, decays lossily,
  and round-trips through its JSON log byte-exactly;
* the workload model aggregates shapes into cell/keyword heat;
* the learned partitioner assigns every document to exactly one shard,
  is deterministic for a fixed log, and survives the persisted shard
  manifest unchanged (fuzzed with hypothesis);
* rebalancing a live cluster onto a learned placement never changes an
  answer (byte-identity, the planner-equivalence property);
* the scatter path: round-robin replica reads spread load,
  and an exhausted cluster deadline degrades answers instead of
  corrupting them;
* a snapshot process pool following a durable index refreshes itself on
  every checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    build_manifest,
    partitioner_from_manifest,
)
from repro.cluster.manifest import ShardManifest
from repro.core.index import I3Index
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.planner import (
    QueryLogRecorder,
    WorkloadEntry,
    WorkloadModel,
    WorkloadPartitioner,
    estimate_shards_touched,
)
from repro.planner.partition import HeatTable
from repro.service import ServiceConfig
from repro.spatial.cells import is_ancestor
from repro.spatial.geometry import UNIT_SQUARE, Rect
from repro.storage.records import f32

from tests.helpers import hot_spot_documents, make_documents, results_as_pairs

VOCAB = (
    "cafe", "sushi", "pizza", "museum", "park", "hotel",
    "bar", "gym", "library", "cinema",
)


def _query(rng, words=None, semantics=None):
    words = words if words is not None else tuple(
        rng.sample(VOCAB, rng.randint(1, 3))
    )
    return TopKQuery(
        round(rng.random(), 6),
        round(rng.random(), 6),
        words,
        k=rng.choice([3, 5, 10]),
        semantics=semantics
        if semantics is not None
        else rng.choice([Semantics.AND, Semantics.OR]),
    )


# ----------------------------------------------------------------------
# QueryLogRecorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_folds_repeats_into_one_shape(self):
        rec = QueryLogRecorder(UNIT_SQUARE)
        q = TopKQuery(0.5, 0.5, ("cafe",), k=5)
        for _ in range(10):
            rec.record(q)
        assert len(rec) == 1
        assert rec.recorded == 10
        assert rec.snapshot()[0].weight == 10.0

    def test_memory_stays_bounded(self, rng):
        rec = QueryLogRecorder(UNIT_SQUARE, capacity=32)
        for i in range(5000):
            rec.record(_query(rng))
        assert len(rec) <= 32
        assert rec.recorded == 5000

    def test_compaction_keeps_heavy_hitters(self, rng):
        rec = QueryLogRecorder(UNIT_SQUARE, capacity=16)
        hot = TopKQuery(0.25, 0.25, ("cafe", "sushi"), k=5)
        for _ in range(300):
            # A heavy hitter keeps recurring through the noise; lossy
            # compaction must keep it on top while one-offs age out.
            rec.record(hot)
            rec.record(_query(rng))
        top = rec.snapshot()[0]
        assert top.words == ("cafe", "sushi")

    def test_off_space_queries_are_ignored(self):
        rec = QueryLogRecorder(Rect(0.0, 0.0, 0.5, 0.5))
        rec.record(TopKQuery(0.9, 0.9, ("cafe",)))
        assert len(rec) == 0 and rec.recorded == 0

    def test_json_round_trip_is_exact(self, rng, tmp_path):
        rec = QueryLogRecorder(UNIT_SQUARE, capacity=64, level=3)
        rec.record_many(_query(rng) for _ in range(300))
        path = tmp_path / "qlog.json"
        rec.save(str(path))
        loaded = QueryLogRecorder.load(str(path))
        assert loaded.space == rec.space
        assert loaded.capacity == rec.capacity
        assert loaded.level == rec.level
        assert loaded.recorded == rec.recorded
        assert loaded.snapshot() == rec.snapshot()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            QueryLogRecorder.load(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryLogRecorder(UNIT_SQUARE, capacity=0)
        with pytest.raises(ValueError):
            QueryLogRecorder(UNIT_SQUARE, level=-1)


# ----------------------------------------------------------------------
# WorkloadModel
# ----------------------------------------------------------------------
class TestModel:
    def test_aggregates_heat(self):
        rec = QueryLogRecorder(UNIT_SQUARE)
        for _ in range(4):
            rec.record(TopKQuery(0.1, 0.1, ("cafe", "bar")))
        for _ in range(2):
            rec.record(TopKQuery(0.9, 0.9, ("bar",)))
        model = WorkloadModel.from_recorder(rec)
        assert model.total_weight == 6.0
        assert model.keyword_heat["bar"] == 6.0
        assert model.keyword_heat["cafe"] == 4.0
        assert model.keywords() == {"cafe", "bar"}
        assert len(model.cell_heat) == 2

    def test_from_log_matches_from_recorder(self, rng, tmp_path):
        rec = QueryLogRecorder(UNIT_SQUARE)
        rec.record_many(_query(rng) for _ in range(200))
        path = tmp_path / "qlog.json"
        rec.save(str(path))
        a = WorkloadModel.from_recorder(rec)
        b = WorkloadModel.from_log(str(path))
        assert a.shapes == b.shapes
        assert a.cell_heat == b.cell_heat
        assert a.keyword_heat == b.keyword_heat


# ----------------------------------------------------------------------
# WorkloadPartitioner (hypothesis: the placement contract)
# ----------------------------------------------------------------------
def _docs_strategy():
    weight = st.floats(0.1, 1.0).map(lambda v: f32(round(v, 3)))
    terms = st.dictionaries(st.sampled_from(VOCAB), weight, min_size=1, max_size=4)
    coord = st.floats(0.0, 1.0).map(lambda v: round(v, 6))
    return st.lists(
        st.tuples(coord, coord, terms), min_size=1, max_size=60
    ).map(
        lambda rows: [
            SpatialDocument(i, x, y, t) for i, (x, y, t) in enumerate(rows)
        ]
    )


def _queries_strategy():
    words = st.lists(
        st.sampled_from(VOCAB), min_size=1, max_size=3, unique=True
    ).map(tuple)
    coord = st.floats(0.0, 1.0).map(lambda v: round(v, 6))
    semantics = st.sampled_from([Semantics.AND, Semantics.OR])
    return st.lists(
        st.builds(
            TopKQuery, coord, coord, words, st.just(10), semantics
        ),
        max_size=40,
    )


class TestPartitionerProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        docs=_docs_strategy(),
        queries=_queries_strategy(),
        shards=st.integers(1, 5),
    )
    def test_total_deterministic_and_manifest_stable(
        self, docs, queries, shards
    ):
        model = WorkloadModel.from_queries(queries, UNIT_SQUARE)
        part = WorkloadPartitioner.learn(
            shards, UNIT_SQUARE, docs, model=model, leaf_capacity=8
        )
        # Every document lands on exactly one shard, and routing is a
        # pure function: the same document always routes the same way.
        for doc in docs:
            sid = part.shard_of(doc)
            assert 0 <= sid < shards
            assert part.shard_of(doc) == sid
        # Deterministic: learning again from the same inputs gives the
        # identical leaf assignment.
        again = WorkloadPartitioner.learn(
            shards, UNIT_SQUARE, docs, model=model, leaf_capacity=8
        )
        assert again.leaves == part.leaves
        # The persisted manifest restores byte-identical routing.
        counts = [0] * shards
        for doc in docs:
            counts[part.shard_of(doc)] += 1
        manifest = build_manifest(part, replicas=1, shard_documents=counts)
        restored = partitioner_from_manifest(
            ShardManifest.from_dict(manifest.to_dict())
        )
        assert restored.kind == "workload"
        for doc in docs:
            assert restored.shard_of(doc) == part.shard_of(doc)

    def test_learned_beats_hash_on_skewed_workload(self, rng):
        docs = make_documents(300, rng, vocab=list(VOCAB), max_words=4)
        queries = []
        shapes = [_query(rng) for _ in range(12)]
        for _ in range(400):
            queries.append(rng.choice(shapes))
        model = WorkloadModel.from_queries(queries, UNIT_SQUARE)
        learned = WorkloadPartitioner.learn(4, UNIT_SQUARE, docs, model=model)
        hashed = HashPartitioner(4, UNIT_SQUARE)
        assert estimate_shards_touched(
            learned, docs, model
        ) < estimate_shards_touched(hashed, docs, model)

    def test_empty_model_still_places_everything(self, rng):
        docs = make_documents(100, rng)
        part = WorkloadPartitioner.learn(3, UNIT_SQUARE, docs)
        assert sorted({part.shard_of(d) for d in docs}) == [0, 1, 2]

    def test_validation(self, rng):
        docs = make_documents(10, rng)
        with pytest.raises(ValueError):
            WorkloadPartitioner.learn(0, UNIT_SQUARE, docs)
        with pytest.raises(ValueError):
            WorkloadPartitioner.learn(2, UNIT_SQUARE, docs, leaf_capacity=0)
        with pytest.raises(ValueError):
            WorkloadPartitioner.learn(2, UNIT_SQUARE, docs, max_level=-1)


# ----------------------------------------------------------------------
# Placement pins: the learned leaf table, to the bit
# ----------------------------------------------------------------------
def _halved_model(docs, seed):
    """A recorded log over ``docs`` whose recorder had to compact, so
    its weights have been halved and are not all whole numbers, plus
    the wordless AND shape a hand-written log file can carry."""
    rng = random.Random(seed)
    pool = []
    for _ in range(40):
        doc = rng.choice(docs)
        words = tuple(rng.sample(VOCAB, rng.randint(1, 3)))
        semantics = rng.choice([Semantics.AND, Semantics.OR])
        pool.append((doc.x, doc.y, words, semantics))
    recorder = QueryLogRecorder(UNIT_SQUARE, capacity=24, level=5)
    for _ in range(600):
        x, y, words, semantics = pool[min(int(rng.paretovariate(1.2)) - 1, 39)]
        recorder.record(TopKQuery(x, y, words, k=5, semantics=semantics))
    wordless = WorkloadEntry(1 << 10, (), "and", 2.5, 0.0, 0.0, 5)
    return WorkloadModel(UNIT_SQUARE, 5, recorder.snapshot() + [wordless])


def _leaf_digest(part):
    return hashlib.sha256(repr(sorted(part.leaves.items())).encode()).hexdigest()


class TestPlacementPins:
    """``learn``'s leaf table, pinned by digest on seeded corpora and a
    log with halved weights.  The figures were computed before the heat
    table and the cost index replaced per-shape scans; a change to how
    ``learn`` places leaves must update them on purpose."""

    PINS = {
        (5, 3, 8): "f024ac5e2f7386adba30846dd10279d661293b3e3689e64ca25d704b730d9224",
        (6, 4, 16): "d3dc73efb3f69aa4218857cfaf1828028030e4f49ffb1eac03a0611c8006c542",
        (7, 2, 64): "ad5e171a4e5d9f38ecd10fc5dd88c297d8679fbbcc1843de4ccf0c3ac94c9ba4",
    }

    @pytest.mark.parametrize("seed,shards,capacity", sorted(PINS))
    def test_learned_leaf_table(self, seed, shards, capacity):
        docs = hot_spot_documents(900, seed, vocab=VOCAB)
        model = _halved_model(docs, seed)
        assert any(s.weight != int(s.weight) for s in model.shapes)
        assert {s.semantics for s in model.shapes} == {"and", "or"}
        part = WorkloadPartitioner.learn(
            shards, UNIT_SQUARE, docs, model, leaf_capacity=capacity
        )
        assert _leaf_digest(part) == self.PINS[seed, shards, capacity]

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.integers(1, 4**6 - 1).filter(lambda c: c.bit_length() % 2),
            min_size=1,
            max_size=30,
        ),
        rnd=st.randoms(use_true_random=False),
        probes=st.lists(st.integers(1, 4**7 - 1).filter(lambda c: c.bit_length() % 2)),
    )
    def test_heat_table_equals_the_per_shape_loop(self, cells, rnd, probes):
        # Small and huge weights together, so the order of the additions
        # shows in the float.
        shapes = []
        for cell in cells:
            weight = rnd.random() * 10.0 ** rnd.choice([0, 16])
            shapes.append(WorkloadEntry(cell, ("w",), "and", weight, 0.5, 0.5, 5))
        heat = HeatTable(shapes)
        # The shapes' own cells, their parents (shapes beneath) and their
        # children (shapes on a strict ancestor) all match something.
        near = [c >> 2 for c in cells if c > 1] + [c << 2 | 3 for c in cells]
        for cell in probes + cells + near + [1]:
            expected = 0.0
            for shape in shapes:
                if is_ancestor(cell, shape.cell) or is_ancestor(shape.cell, cell):
                    expected += shape.weight
            assert heat(cell) == expected

    def test_learn_refuses_a_document_outside_the_space(self):
        # Both documents fit the root leaf, which never splits, so only a
        # check at the door can see the outsider.
        docs = [
            SpatialDocument(1, 1.5, 0.5, {"cafe": 1.0}),
            SpatialDocument(0, 0.5, 0.5, {"cafe": 1.0}),
        ]
        with pytest.raises(ValueError, match="document 1 lies outside"):
            WorkloadPartitioner.learn(2, Rect(0.0, 0.0, 1.0, 1.0), docs)


# ----------------------------------------------------------------------
# Online rebalance
# ----------------------------------------------------------------------
def _build_cluster(docs, shards=3, replicas=1, **config_kwargs):
    config_kwargs.setdefault("shard_config", ServiceConfig())
    config_kwargs.setdefault("metrics_seed", 0)
    return ClusterService.build(
        docs,
        HashPartitioner(shards, UNIT_SQUARE),
        ClusterConfig(replicas=replicas, **config_kwargs),
        ranker=Ranker(UNIT_SQUARE),
    )


class TestRebalance:
    def test_answers_are_byte_identical_across_rebalance(self, rng):
        docs = make_documents(200, rng, vocab=list(VOCAB), max_words=4)
        queries = [_query(rng) for _ in range(60)]
        mono = I3Index(UNIT_SQUARE)
        mono.bulk_load(docs)
        ranker = Ranker(UNIT_SQUARE)
        model = WorkloadModel.from_queries(queries, UNIT_SQUARE)
        learned = WorkloadPartitioner.learn(3, UNIT_SQUARE, docs, model=model)
        with _build_cluster(docs, shards=3, replicas=2) as cluster:
            recorder = QueryLogRecorder(UNIT_SQUARE)
            cluster.attach_recorder(recorder)
            before = [
                results_as_pairs(cluster.search(q).results) for q in queries
            ]
            info = cluster.rebalance(learned)
            assert info["shards"] == 3
            assert cluster.partitioner is learned
            assert cluster.manifest.partitioner == "workload"
            after = []
            for q in queries:
                answer = cluster.search(q)
                assert not answer.degraded
                after.append(results_as_pairs(answer.results))
            assert after == before
            for q, got in zip(queries, after):
                assert got == results_as_pairs(mono.query(q, ranker))
            # The recorder saw both passes; a later plan can re-learn.
            assert recorder.recorded == 2 * len(queries)
            counters = cluster.metrics_snapshot()["counters"]
            assert counters["cluster.rebalances"] == 1
            assert counters["cluster.docs_moved"] == info["moved"]

    def test_mutations_after_rebalance_route_via_new_partitioner(self, rng):
        docs = make_documents(80, rng, vocab=list(VOCAB))
        learned = WorkloadPartitioner.learn(3, UNIT_SQUARE, docs)
        with _build_cluster(docs, shards=3) as cluster:
            cluster.rebalance(learned)
            extra = SpatialDocument(9999, 0.42, 0.42, {"cafe": f32(0.5)})
            assert cluster.insert(extra) == learned.shard_of(extra)
            assert cluster.delete(extra)

    def test_manifest_counts_follow_the_moves(self, rng):
        docs = make_documents(120, rng, vocab=list(VOCAB))
        learned = WorkloadPartitioner.learn(3, UNIT_SQUARE, docs)
        with _build_cluster(docs, shards=3) as cluster:
            cluster.rebalance(learned)
            counts = [0, 0, 0]
            for doc in docs:
                counts[learned.shard_of(doc)] += 1
            assert [s.num_documents for s in cluster.manifest.shards] == counts

    def test_rejects_shard_count_or_space_changes(self, rng):
        docs = make_documents(40, rng)
        with _build_cluster(docs, shards=3) as cluster:
            with pytest.raises(ValueError):
                cluster.rebalance(WorkloadPartitioner.learn(4, UNIT_SQUARE, docs))
            other_space = Rect(0.0, 0.0, 2.0, 2.0)
            with pytest.raises(ValueError):
                cluster.rebalance(
                    WorkloadPartitioner.learn(3, other_space, [])
                )


# ----------------------------------------------------------------------
# Scatter-gather: round-robin reads and deadline slices
# ----------------------------------------------------------------------
class TestScatterPath:
    def test_round_robin_spreads_reads_over_healthy_replicas(self, rng):
        docs = make_documents(100, rng, vocab=list(VOCAB))
        with _build_cluster(
            docs, shards=2, replicas=2, cache_capacity=0
        ) as cluster:
            for _ in range(40):
                cluster.search(_query(rng))
            for sid in range(2):
                served = [
                    cluster.replica(sid, rid)
                    .service.metrics.as_dict()["counters"]
                    .get("queries.submitted", 0)
                    for rid in range(2)
                ]
                # Both replicas served traffic — not a primary-only path.
                assert all(count > 0 for count in served), served
            # Plain round-robin on healthy shards is load spreading, not
            # failover; the failover counter must stay untouched.
            counters = cluster.metrics_snapshot()["counters"]
            assert counters.get("cluster.failovers", 0) == 0

    def test_exhausted_deadline_degrades_instead_of_lying(self, rng):
        docs = make_documents(60, rng, vocab=list(VOCAB))
        with _build_cluster(
            docs, shards=2, cache_capacity=0, deadline=0.5, backoff=0.0
        ) as cluster:
            # A clock that jumps one second per reading: the budget is
            # gone before any shard slice starts.
            tick = [0.0]

            def jumping_clock():
                tick[0] += 1.0
                return tick[0]

            cluster._now = jumping_clock
            answer = cluster.search(
                TopKQuery(0.5, 0.5, tuple(VOCAB), semantics=Semantics.OR)
            )
            assert answer.degraded
            assert answer.failed_shards  # slices failed, not silently dropped

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(deadline=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(deadline=-1.0)
