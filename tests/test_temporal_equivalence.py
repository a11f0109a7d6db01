"""Temporal equivalence: the load-bearing correctness suite.

For both temporal corpus scenarios (time-skewed recency decay and
burst arrivals), 120 randomized queries mixing time-range filters,
recency decay, both semantics and assorted k must return results
**byte-identical** to the naive full-scan oracle — through the
single-node :class:`TemporalIndex` and through temporal shards on
the one scatter-gather (:class:`ClusterService` over replica sets of
``QueryService(TemporalIndex)``).  Slice pruning, per-slice decay
bounds, the early-stop rule and the shard router all sit on the hot
path these comparisons pin down.
"""

import random
import threading

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.partition import HashPartitioner, SpatialGridPartitioner
from repro.datasets.generators import TEMPORAL_SCENARIOS
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE
from repro.temporal import (
    NaiveTemporalIndex,
    RecencySpec,
    TemporalConfig,
    TemporalIndex,
    TemporalQuery,
    TimeRange,
)

from tests.helpers import results_as_pairs, temporal_cluster

HORIZON = 5000.0
SLICE_WIDTH = 250.0
N_QUERIES = 120


def make_queries(rng, vocab):
    """The 120-query mix: plain, range-only, recency-only, and both."""
    queries = []
    for i in range(N_QUERIES):
        words = tuple(sorted(rng.sample(vocab, rng.randint(1, 3))))
        base = TopKQuery(
            round(rng.random(), 6),
            round(rng.random(), 6),
            words,
            k=rng.choice([1, 5, 10, 25]),
            semantics=Semantics.AND if rng.random() < 0.3 else Semantics.OR,
        )
        shape = i % 4
        time_range = None
        recency = None
        if shape in (1, 3):
            start = round(rng.uniform(-0.1, 0.9) * HORIZON, 3)
            end = round(start + rng.uniform(0.05, 0.6) * HORIZON, 3)
            time_range = TimeRange(start, end)
        if shape in (2, 3):
            recency = RecencySpec(
                half_life=rng.choice([HORIZON / 50, HORIZON / 10, HORIZON]),
                origin=round(rng.uniform(0.8, 1.1) * HORIZON, 3),
            )
        queries.append(TemporalQuery(base, time_range, recency))
    return queries


@pytest.fixture(autouse=True)
def _engines(reference_check):
    """The module runs twice (shared ``reference_check`` fixture): as
    served, and with every slice scan's ``iter_search`` stream checked
    item by item against the tuple reference's."""


@pytest.fixture(scope="module", params=sorted(TEMPORAL_SCENARIOS))
def scenario(request):
    corpus = TEMPORAL_SCENARIOS[request.param](
        num_documents=400, seed=7, horizon=HORIZON
    )
    tdocs = list(corpus.temporal_documents())
    vocab = sorted({w for d in corpus.documents for w in d.terms})
    oracle = NaiveTemporalIndex(UNIT_SQUARE, SLICE_WIDTH)
    for tdoc in tdocs:
        oracle.insert(tdoc)
    rng = random.Random(("temporal-equivalence", request.param).__repr__())
    return {
        "name": request.param,
        "tdocs": tdocs,
        "oracle": oracle,
        "queries": make_queries(rng, vocab),
    }


def assert_equivalent(name, answer_fn, oracle, queries, ranker):
    mismatches = []
    for i, tq in enumerate(queries):
        got = results_as_pairs(answer_fn(tq))
        expected = results_as_pairs(oracle.query(tq, ranker))
        if got != expected:
            mismatches.append((i, tq.words, got[:3], expected[:3]))
    assert not mismatches, (
        f"{name}: {len(mismatches)}/{len(queries)} queries diverge "
        f"from the oracle; first: {mismatches[0]}"
    )


class TestSingleNode:
    def test_matches_oracle(self, scenario):
        index = TemporalIndex.build(
            UNIT_SQUARE,
            scenario["tdocs"],
            TemporalConfig(slice_width=SLICE_WIDTH, page_size=512),
        )
        ranker = Ranker(UNIT_SQUARE)
        index.advance(HORIZON)  # seal everything: the worst pruning case
        assert_equivalent(
            f"single[{scenario['name']}]",
            lambda tq: index.query(tq, ranker),
            scenario["oracle"],
            scenario["queries"],
            ranker,
        )
        # The suite must actually exercise pruning, not scan everything.
        stats = index.slice_stats()
        assert stats["queries"] == N_QUERIES
        assert stats["skip_ratio"] > 0.0
        index.check_invariants()

    def test_matches_oracle_under_alternate_alpha(self, scenario):
        index = TemporalIndex.build(
            UNIT_SQUARE,
            scenario["tdocs"],
            TemporalConfig(slice_width=SLICE_WIDTH, page_size=512),
        )
        ranker = Ranker(UNIT_SQUARE, alpha=0.3)
        oracle = scenario["oracle"]
        for tq in scenario["queries"][::6]:
            assert results_as_pairs(index.query(tq, ranker)) == results_as_pairs(
                oracle.query(tq, ranker)
            )


def make_partitioner(kind, tdocs, queries=()):
    if kind == "hash":
        return HashPartitioner(3, UNIT_SQUARE)
    if kind == "workload":
        # Learned from the suite's own query mix: the planner's leaf ->
        # shard assignment must stay oracle-identical like any other
        # partitioner (it IS a SpatialGridPartitioner to every router).
        from repro.planner import WorkloadModel, WorkloadPartitioner

        model = WorkloadModel.from_queries(
            [tq.base for tq in queries], UNIT_SQUARE
        )
        return WorkloadPartitioner.learn(
            3, UNIT_SQUARE, [t.doc for t in tdocs], model=model
        )
    return SpatialGridPartitioner.from_documents(
        4, UNIT_SQUARE, [t.doc for t in tdocs]
    )


def sharded(scenario, kind, **config):
    """The scenario's corpus as temporal shards behind ``ClusterService``,
    watermark advanced to the horizon (every slice sealed)."""
    cluster = temporal_cluster(
        scenario["tdocs"],
        make_partitioner(kind, scenario["tdocs"], scenario["queries"]),
        TemporalConfig(slice_width=SLICE_WIDTH, page_size=512),
        ClusterConfig(**config),
    )
    cluster.advance(HORIZON)
    return cluster


def assert_cluster_equivalent(cluster, scenario):
    """Every query complete (never degraded) and oracle-identical."""

    def answer(tq):
        got = cluster.search(tq)
        assert not got.degraded
        return got.results

    assert_equivalent(
        f"cluster[{scenario['name']}]",
        answer,
        scenario["oracle"],
        scenario["queries"],
        cluster.ranker,
    )


def search_concurrently(cluster, queries, callers):
    """Answer ``queries`` from ``callers`` threads, each taking every
    ``callers``-th query; every answer complete.  Returns the results
    keyed by ``id(query)``."""
    answers, errors = {}, []

    def run(stripe):
        try:
            for tq in stripe:
                got = cluster.search(tq)
                assert not got.degraded
                answers[id(tq)] = got.results
        except BaseException as exc:  # re-raised on the test's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(queries[i::callers],))
        for i in range(callers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a caller hung"
    if errors:
        raise errors[0]
    return answers


class TestSharded:
    @pytest.mark.parametrize("kind", ["hash", "grid", "workload"])
    def test_matches_oracle(self, scenario, kind):
        with sharded(scenario, kind) as cluster:
            assert_cluster_equivalent(cluster, scenario)
            counters = cluster.metrics_snapshot()["counters"]
            assert counters["cluster.queries"] == N_QUERIES

    @pytest.mark.parametrize("kind", ["hash", "grid", "workload"])
    def test_matches_oracle_with_two_replicas(self, scenario, kind):
        """Round-robin reads over two replicas, then the same stream
        again with every primary dead: failover, never a wrong answer."""
        with sharded(scenario, kind, replicas=2, cache_capacity=0) as cluster:
            assert_cluster_equivalent(cluster, scenario)
            for sid in range(cluster.num_shards):
                cluster.replica(sid, 0).kill()
            assert_cluster_equivalent(cluster, scenario)
            counters = cluster.metrics_snapshot()["counters"]
            assert counters["cluster.failovers"] > 0

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("kind", ["hash", "grid", "workload"])
    def test_matches_oracle_at_scatter_width(self, scenario, kind, width):
        """A scatter visits one shard at a time on its caller's thread,
        delta checked before each, so ``width`` callers put ``width``
        scatters in flight on the shared shard lanes.  Every query
        scattered (no result cache): every shard visit is accounted for
        as queried, pruned or keyword-absent, and no answer moves."""
        with sharded(scenario, kind, cache_capacity=0) as cluster:
            answers = search_concurrently(cluster, scenario["queries"], width)
            assert_equivalent(
                f"cluster[{scenario['name']}] x{width}",
                lambda tq: answers[id(tq)],
                scenario["oracle"],
                scenario["queries"],
                cluster.ranker,
            )
            counters = cluster.metrics_snapshot()["counters"]
        visits = sum(
            counters.get(f"cluster.shards_{what}", 0)
            for what in ("queried", "pruned", "no_candidates")
        )
        assert visits == N_QUERIES * cluster.num_shards

    def test_router_skips_shards_on_selective_queries(self, scenario):
        with sharded(scenario, "grid") as cluster:
            for tq in scenario["queries"]:
                cluster.search(tq)
            counters = cluster.metrics_snapshot()["counters"]
        # Spatial partitioning makes distant shards' bounds fall below
        # delta for selective queries, and a shard missing a required
        # keyword is never a candidate; the router must use both.
        assert (
            counters.get("cluster.shards_pruned", 0)
            + counters.get("cluster.shards_no_candidates", 0)
        ) > 0
        assert counters["cluster.shards_queried"] < N_QUERIES * cluster.num_shards


class TestMutationsPreserveEquivalence:
    def test_interleaved_mutations(self, scenario):
        """Insert/delete churn between queries: both sides stay equal."""
        rng = random.Random(("temporal-churn", scenario["name"]).__repr__())
        tdocs = scenario["tdocs"]
        index = TemporalIndex.build(
            UNIT_SQUARE,
            tdocs[: len(tdocs) // 2],
            TemporalConfig(slice_width=SLICE_WIDTH, page_size=512),
        )
        oracle = NaiveTemporalIndex(UNIT_SQUARE, SLICE_WIDTH)
        for tdoc in sorted(
            tdocs[: len(tdocs) // 2], key=lambda t: (t.timestamp, t.doc_id)
        ):
            oracle.insert(tdoc)
        pending = sorted(
            tdocs[len(tdocs) // 2:], key=lambda t: (t.timestamp, t.doc_id)
        )
        ranker = Ranker(UNIT_SQUARE)
        for i, tq in enumerate(scenario["queries"][:40]):
            if pending and rng.random() < 0.6:
                tdoc = pending.pop(0)
                index.insert(tdoc)
                oracle.insert(tdoc)
            elif rng.random() < 0.5 and index.num_documents:
                victim = rng.choice(
                    sorted(d for s in index._slices.values() for d in s.docs)
                )
                index.delete_document(victim)
                oracle.delete(victim)
            got = results_as_pairs(index.query(tq, ranker))
            expected = results_as_pairs(oracle.query(tq, ranker))
            assert got == expected, f"query {i} diverged after churn"
