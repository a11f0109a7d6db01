"""Concurrent search: serving one index to many clients at once.

Everything else in ``examples/`` calls the index from a single thread.
This walkthrough stands up the serving tier instead: a
:class:`repro.QueryService` wraps the database with a worker pool, an
admission-controlled queue, a result cache that invalidates itself on
updates, and latency/throughput metrics.

Run with:  python examples/concurrent_search.py
"""

import random

from repro import QueryService, ServiceConfig, SpatialKeywordDatabase, TopKQuery
from repro.service import ServiceOverloaded

PLACES = [
    ("Dragon Wok", 0.32, 0.28, "spicy sichuan chinese restaurant"),
    ("Seoul Garden", 0.68, 0.41, "korean barbecue restaurant spicy"),
    ("Bamboo House", 0.71, 0.12, "chinese dumpling restaurant"),
    ("Chili Empire", 0.61, 0.72, "spicy hotpot restaurant late night"),
    ("Kimchi Corner", 0.22, 0.79, "korean spicy stew restaurant"),
    ("Noodle Bar", 0.41, 0.44, "noodle soup spicy bar"),
    ("Golden Lotus", 0.88, 0.62, "chinese dim sum restaurant tea"),
    ("Night Market", 0.55, 0.93, "street food market snacks"),
    ("Espresso Lane", 0.15, 0.35, "coffee cafe pastry quiet"),
    ("Harbor Grill", 0.92, 0.18, "seafood grill bar waterfront"),
]


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A small city database, as in examples/city_guide.py.
    # ------------------------------------------------------------------
    db = SpatialKeywordDatabase()
    for doc_id, (name, x, y, text) in enumerate(PLACES):
        db.add(doc_id, x, y, text)
    print(f"indexed {len(db)} places")

    # ------------------------------------------------------------------
    # 2. A serving tier: 4 workers, at most 16 admitted queries, a
    #    128-entry result cache, and a half-second per-query deadline.
    # ------------------------------------------------------------------
    config = ServiceConfig(workers=4, max_pending=16, timeout=0.5,
                           cache_capacity=128, metrics_seed=7)
    with QueryService(db, config) as service:
        # A skewed request stream: a few hot queries dominate, the way
        # real spatio-textual workloads do.
        rng = random.Random(0)
        hot = TopKQuery(0.45, 0.45, ("spicy", "restaurant"), k=3)
        cold = [
            TopKQuery(rng.random(), rng.random(),
                      tuple(rng.sample(["chinese", "korean", "bar",
                                        "cafe", "grill", "market"], 2)), k=3)
            for _ in range(10)
        ]
        stream = [hot if rng.random() < 0.6 else rng.choice(cold)
                  for _ in range(60)]

        # submit() -> Future fans the stream across the pool (block=True
        # waits for a queue slot instead of shedding); answers come back
        # in request order, identical to sequential execution.
        print(f"\nserving {len(stream)} queries on {config.workers} workers...")
        futures = [service.submit(query, block=True) for query in stream]
        answers = [future.result() for future in futures]
        top = answers[stream.index(hot)][0]
        print(f"hot query top hit: {PLACES[top.doc_id][0]!r} "
              f"(score {top.score:.3f})")

        # search_many runs a whole batch as ONE admitted unit on one
        # worker: one index epoch for every answer, duplicates executed
        # once, and the same answers as the fan-out above.
        batch = service.search_many(stream)
        assert [[(h.doc_id, h.score) for h in hits] for hits in batch] == [
            [(h.doc_id, h.score) for h in hits] for hits in answers
        ]
        print(f"search_many: the same {len(batch)} answers from one batch")

        # A single query is search(): submit, then wait no longer than
        # the configured deadline.
        for hit in service.search(TopKQuery(0.2, 0.8, ("korean", "spicy"), k=2)):
            print(f"  korean+spicy near (0.2, 0.8): {PLACES[hit.doc_id][0]}")

        # ------------------------------------------------------------------
        # 3. Updates take the exclusive side of the service's lock and
        #    bump the index epoch, so cached results can never go stale.
        # ------------------------------------------------------------------
        service.insert(len(PLACES), 0.46, 0.46, "spicy fusion restaurant popup")
        refreshed = service.search(hot)
        print(f"\nafter inserting a popup next door, hot query now returns: "
              f"{[h.doc_id for h in refreshed]}")

        # Overload behaviour is typed: a full queue sheds instead of
        # building unbounded latency. (With the pool idle this submit
        # is admitted; ServiceOverloaded is what heavy traffic sees.)
        try:
            service.submit(hot).result()
            print("queue had room: query admitted and served")
        except ServiceOverloaded as exc:
            print(f"shed: {exc}")

        # ------------------------------------------------------------------
        # 4. What the operators see: counters, queue depth, latency
        #    quantiles, cache and buffer-pool efficiency.
        # ------------------------------------------------------------------
        snap = service.metrics_snapshot()
        lat = snap["histograms"]["latency_ms"]
        print("\nserving metrics:")
        print(f"  completed: {snap['counters']['queries.completed']}")
        print(f"  latency ms: p50 {lat['p50']:.3f}  "
              f"p95 {lat['p95']:.3f}  p99 {lat['p99']:.3f}")
        print(f"  result cache: {snap['cache']['hits']} hits / "
              f"{snap['cache']['hits'] + snap['cache']['misses']} lookups")
        print(f"  qps since start: {snap['service']['qps']:.0f}")
    print("\nservice closed; workers drained")


if __name__ == "__main__":
    main()
