"""Concurrent search: serving one index to many callers at once.

Everything else in ``examples/`` calls the index from a single thread.
This walkthrough stands up the serving tier instead: a
:class:`repro.QueryService` puts an admission-controlled queue in front
of the database and answers it on one lane — many callers, one query
at a time, in the order they were admitted — with a result cache that
invalidates itself on updates, and metrics that say how long a query
waited for its turn.

Run with:  python examples/concurrent_search.py
"""

import random
import threading

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
    # 2. A serving tier: at most 16 admitted queries, a 128-entry
    #    result cache, and a half-second per-query deadline.
    # ------------------------------------------------------------------
    config = ServiceConfig(max_pending=16, timeout=0.5,
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
        sequential = [
            [(h.doc_id, h.score) for h in db.search(q.x, q.y, list(q.words), k=q.k)]
            for q in stream
        ]

        # Six callers share the service.  A submit() the result cache
        # answers returns at once, on the caller's thread; any other
        # takes a slot in the queue (block=True waits for one instead
        # of shedding) and the lane answers the queue in order: however
        # the callers interleave, every answer is the sequential one.
        callers = 6
        answers = [None] * len(stream)

        def caller(first: int) -> None:
            for i in range(first, len(stream), callers):
                answers[i] = service.submit(stream[i], block=True).result()

        threads = [threading.Thread(target=caller, args=(n,)) for n in range(callers)]
        print(f"\nserving {len(stream)} queries from {callers} caller threads...")
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [[(h.doc_id, h.score) for h in hits] for hits in answers] == sequential
        print("every answer identical to sequential db.search")
        top = answers[stream.index(hot)][0]
        print(f"hot query top hit: {PLACES[top.doc_id][0]!r} "
              f"(score {top.score:.3f})")
        turn = service.metrics_snapshot()["histograms"]["queue_wait_ms"]
        print(f"wait for a turn (queue_wait_ms): p50 {turn['p50']:.3f}  "
              f"p95 {turn['p95']:.3f}")

        # search_many runs a whole batch as ONE unit — at most one turn
        # on the lane (none here: the cache holds every answer): one
        # index epoch for every answer, duplicates executed once, and
        # the same answers as the callers got above.
        batch = service.search_many(stream)
        assert [[(h.doc_id, h.score) for h in hits] for hits in batch] == sequential
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
        # building unbounded latency.  Deliberately small here: two
        # slots, and an update holding the index so nothing drains while
        # a burst of five arrives — two are admitted, three are shed.
        with QueryService(db, ServiceConfig(max_pending=2)) as small:
            admitted, shed = [], []

            def burst(_db) -> None:
                for query in stream[:5]:
                    try:
                        admitted.append(small.submit(query))
                    except ServiceOverloaded as exc:
                        shed.append(exc)

            small.mutate(burst)
            answered = [future.result() for future in admitted]
            print(f"\nmax_pending=2, burst of 5: {len(answered)} admitted and "
                  f"answered, {len(shed)} shed")
            print(f"  shed: {shed[0]}")

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
    print("\nservice closed; queue drained")


if __name__ == "__main__":
    main()
