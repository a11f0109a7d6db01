"""Geo-tweet stream: standing top-k queries over live ingest.

The paper's introduction motivates I3 with "Twitter delivers almost 250
million tweets a day" — an insert-heavy workload where the interesting
answers *change as data arrives*.  Instead of re-running searches
between batches, this example registers **standing queries** with the
streaming subsystem: tweets stream in (and old ones stream out of a
sliding retention window), and each query's top-k is maintained
incrementally, pushing an update only when its answer actually changes.

Run with:  python examples/tweet_stream.py
"""

from __future__ import annotations

import collections
import time

from repro import I3Index, QueryService, Semantics
from repro.datasets.generators import TwitterLikeGenerator
from repro.datasets.querylog import QueryLogGenerator

WINDOW = 1_500          # tweets retained
BATCH = 200             # tweets per arriving batch
BATCHES = 10


def main() -> None:
    # A generator seeds the stream with realistic keyword/location shape.
    corpus = TwitterLikeGenerator(WINDOW + BATCH * BATCHES, seed=99).generate()
    stream = iter(corpus.documents)
    queries = QueryLogGenerator(corpus, seed=99).freq(
        2, count=5, semantics=Semantics.OR, k=10
    )

    index = I3Index(corpus.space)
    window = collections.deque()

    # Pre-fill the retention window.
    for _ in range(WINDOW):
        doc = next(stream)
        index.insert_document(doc)
        window.append(doc)
    print(f"window primed with {index.num_documents} tweets "
          f"({index.num_tuples} tuples)")

    # Register the standing queries: each is answered once at
    # registration, then maintained incrementally on every mutation the
    # service applies.  A stream hangs off the service that serves the
    # index.
    service = QueryService(index)
    streams = service.streams()
    subscription = streams.subscribe("tweet-dashboard")
    names = {}
    for query in queries:
        qid = streams.register(subscription, query, alpha=0.5)
        names[qid] = "+".join(query.words)
    for update in subscription.poll():
        top = update.results[0] if update.results else None
        print(f"  watching {names[update.query_id]:<30} -> "
              + (f"doc {top.doc_id} ({top.score:.3f})" if top else "no hits"))

    total_ops = 0
    total_seconds = 0.0
    total_updates = 0
    for batch_no in range(1, BATCHES + 1):
        start = time.perf_counter()
        for _ in range(BATCH):
            # One in, one out: the window slides.
            doc = next(stream)
            service.insert(doc)
            window.append(doc)
            service.delete(window.popleft())
        total_seconds += time.perf_counter() - start
        total_ops += 2 * BATCH

        # Only answers that changed produce updates (coalesced per query).
        updates = subscription.poll()
        total_updates += len(updates)
        changed = ", ".join(names[u.query_id] for u in updates) or "none"
        print(f"batch {batch_no:2d}: window={index.num_documents}  "
              f"changed answers: {changed}")

    counters = streams.metrics.as_dict()["counters"]
    print(f"\n{total_ops} document updates in {total_seconds:.2f}s "
          f"({total_ops / total_seconds:,.0f} ops/s simulated)")
    print(f"{total_updates} pushed top-k updates; "
          f"{counters.get('stream.requeries', 0)} fallback re-queries; "
          f"{counters.get('stream.buckets_skipped', 0)} pruned bucket checks")
    index.check_invariants()
    print("index invariants hold after the stream")
    service.close()


if __name__ == "__main__":
    main()
