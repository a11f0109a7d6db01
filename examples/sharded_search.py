"""Sharded search: one query, four shards, a replica dying mid-run.

The other examples serve a single index. This walkthrough stands up the
cluster layer instead: a partitioner splits the corpus into four
shards, each shard runs two replicated query services, and a
scatter-gather router merges per-shard top-ks into answers that are
byte-identical to a monolithic index. Half-way through, the primary
replica of a shard is killed — failover absorbs it and answers keep
coming, un-degraded, until the *last* replica of that shard dies too,
at which point the cluster says so instead of silently returning a
partial answer.

Run with:  python examples/sharded_search.py
"""

import random

from repro import I3Index, Ranker, Semantics, SpatialDocument, TopKQuery, UNIT_SQUARE
from repro.cluster import ClusterConfig, ClusterService, SpatialGridPartitioner
from repro.service import ServiceConfig

VOCAB = ["spicy", "chinese", "korean", "restaurant", "noodle",
         "bar", "cafe", "grill", "sushi", "market"]


def make_corpus(count=400, seed=11):
    rng = random.Random(seed)
    docs = []
    for doc_id in range(count):
        words = rng.sample(VOCAB, rng.randint(1, 4))
        terms = {w: round(rng.uniform(0.1, 1.0), 3) for w in words}
        docs.append(SpatialDocument(doc_id, rng.random(), rng.random(), terms))
    return docs


def main() -> None:
    docs = make_corpus()
    ranker = Ranker(UNIT_SQUARE, alpha=0.5)

    # ------------------------------------------------------------------
    # 1. Partition: quadtree leaves sized to the data, packed onto four
    #    shards so each holds a contiguous, balanced slice of space.
    # ------------------------------------------------------------------
    partitioner = SpatialGridPartitioner.from_documents(
        4, UNIT_SQUARE, docs, leaf_capacity=64
    )
    counts = [0] * 4
    for doc in docs:
        counts[partitioner.shard_of(doc)] += 1
    print(f"partitioned {len(docs)} documents over 4 spatial shards: {counts}")

    # ------------------------------------------------------------------
    # 2. Build the cluster: two replicas per shard. A query visits the
    #    shards one at a time, best bound first, on the caller's thread.
    # ------------------------------------------------------------------
    config = ClusterConfig(
        replicas=2,
        cache_capacity=0,  # every request exercises the scatter path
        shard_config=ServiceConfig(metrics_seed=0),
        metrics_seed=0,
    )
    mono = I3Index(UNIT_SQUARE)
    mono.bulk_load(docs)

    rng = random.Random(5)
    queries = [
        TopKQuery(rng.random(), rng.random(),
                  tuple(rng.sample(VOCAB, 2)), k=5,
                  semantics=rng.choice([Semantics.AND, Semantics.OR]))
        for _ in range(40)
    ]

    with ClusterService.build(docs, partitioner, config, ranker=ranker) as cluster:
        # --------------------------------------------------------------
        # 3. First half of the stream: all replicas healthy. Every
        #    answer must match the monolithic index exactly.
        # --------------------------------------------------------------
        for query in queries[:20]:
            answer = cluster.search(query)
            expected = mono.query(query, ranker)
            assert [(r.doc_id, r.score) for r in answer.results] == [
                (r.doc_id, r.score) for r in expected
            ]
        print("20 queries answered, byte-identical to a single index")

        # --------------------------------------------------------------
        # 4. Kill shard 2's primary mid-run. The router fails over to
        #    its sibling replica: answers stay complete and identical.
        # --------------------------------------------------------------
        cluster.replica(2, 0).kill()
        print("\n*** killed shard 2, replica 0 (the primary) ***\n")
        degraded = 0
        for query in queries[20:]:
            answer = cluster.search(query)
            degraded += answer.degraded
            expected = mono.query(query, ranker)
            assert [(r.doc_id, r.score) for r in answer.results] == [
                (r.doc_id, r.score) for r in expected
            ]
        failovers = cluster.metrics.counter("cluster.failovers").value
        print(f"20 more queries answered: {degraded} degraded, "
              f"{failovers} served by the surviving replica")

        # --------------------------------------------------------------
        # 5. Kill the last replica of shard 2. Now the cluster cannot
        #    reach that slice of space — and it says so.
        # --------------------------------------------------------------
        cluster.replica(2, 1).kill()
        print("\n*** killed shard 2, replica 1 (no replicas left) ***\n")
        answer = cluster.search(queries[0])
        print(f"answer still has {len(answer.results)} results, but "
              f"degraded={answer.degraded} (failed shards: "
              f"{list(answer.failed_shards)}) — partial, and flagged as such")

        # --------------------------------------------------------------
        # 6. The scatter-gather scoreboard.
        # --------------------------------------------------------------
        counters = cluster.metrics_snapshot()["counters"]
        queried = counters.get("cluster.shards_queried", 0)
        absent = counters.get("cluster.shards_no_candidates", 0)
        pruned = counters.get("cluster.shards_pruned", 0)
        print(f"\nshard visits: {queried} queried, {absent} keyword-absent, "
              f"{pruned} bound-pruned "
              f"({absent + pruned} of {queried + absent + pruned} skipped)")


if __name__ == "__main__":
    main()
