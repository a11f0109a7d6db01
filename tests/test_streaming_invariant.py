"""The streaming subsystem's load-bearing invariant, end to end.

Over a 10k-document live stream with interleaved deletions and ≥200
standing queries of mixed shape (AND/OR semantics, randomised k and
alpha), the incrementally maintained top-k of every standing query must
equal a from-scratch ``I3Index.query`` at every checkpoint — including
checkpoints right after deletion-triggered evictions, and across a
subscriber kill + resume, which re-runs every standing query.

This is the contract that makes the subsystem trustworthy: push-based
answers are never approximations of what a fresh search would return.
"""

import random

from repro.core.index import I3Index
from repro.core.recovery import DurableIndex
from repro.datasets.generators import TwitterLikeGenerator
from repro.datasets.querylog import QueryLogGenerator
from repro.model.query import Semantics
from repro.model.scoring import Ranker
from repro.service import QueryService

N_DOCS = 10_000
N_QUERIES = 200
N_CHECKPOINTS = 20
KILL_AT = 5_000      # subscriber dies here ...
RESUME_AT = 5_400    # ... and comes back here, re-running its queries


def standing_workload(corpus, count, seed):
    """FREQ-derived standing queries: qn in 1..3, alternating AND/OR,
    randomised k (alpha is drawn per registration)."""
    rng = random.Random(seed)
    qlog = QueryLogGenerator(corpus, seed=seed)
    base = []
    qn = 0
    while len(base) < count:
        base.extend(
            qlog.freq(1 + qn % 3, count=min(count - len(base), 100), k=10).queries
        )
        qn += 1
    shaped = []
    for i, query in enumerate(base[:count]):
        query = query.with_k(rng.choice((1, 3, 5, 10, 20)))
        if i % 2:
            query = query.with_semantics(Semantics.AND)
        shaped.append(query)
    return shaped


def test_incremental_topk_equals_from_scratch(tmp_path):
    corpus = TwitterLikeGenerator(N_DOCS, seed=1234).generate()
    durable = DurableIndex.create(
        str(tmp_path / "store"), I3Index(corpus.space), sync_every=1000
    )
    index = durable.index
    service = QueryService(durable)
    streams = service.streams()
    sub = streams.subscribe("invariant-client")
    rng = random.Random(99)

    held = {}
    registered = {}
    for query in standing_workload(corpus, N_QUERIES, seed=7):
        alpha = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        qid = streams.register(sub, query, alpha=alpha)
        held[qid] = (query, alpha)
        registered[qid] = (query, Ranker(corpus.space, alpha))
    sub.poll()
    assert len(registered) == N_QUERIES

    def verify_all():
        for qid, (query, ranker) in registered.items():
            assert streams.results(qid) == index.query(query, ranker), (
                f"standing query {qid} diverged at epoch {index.epoch}"
            )

    verify_all()

    check_every = N_DOCS // N_CHECKPOINTS
    checkpoints_verified = 0
    checkpoints_after_delete = 0
    live = []
    last_op_was_delete = False
    dead = False
    for i, doc in enumerate(corpus.documents):
        service.insert(doc)
        live.append(doc)
        last_op_was_delete = False
        if i % 17 == 16:
            # Interleaved deletion of a random live document (ids are
            # never reused); some evict current results and force the
            # re-query fallback.
            assert service.delete(live.pop(rng.randrange(len(live))))
            last_op_was_delete = True
        if not dead:
            sub.poll()
        if i == KILL_AT:
            # The subscriber dies: its subscription closes and its
            # standing queries leave the registry; ingest continues.
            streams.unsubscribe(sub)
            dead = True
        elif i == RESUME_AT:
            sub = streams.resume("invariant-client", held)
            dead = False
            snapshots = sub.poll()
            assert len(snapshots) == N_QUERIES
            assert {u.kind for u in snapshots} == {"snapshot"}
            counters = streams.metrics.as_dict()["counters"]
            assert counters["stream.resume_requeries"] == N_QUERIES
            verify_all()
        if i % check_every == check_every - 1 and not dead:
            verify_all()
            checkpoints_verified += 1
            if last_op_was_delete:
                checkpoints_after_delete += 1

    verify_all()
    assert checkpoints_verified >= N_CHECKPOINTS
    assert checkpoints_after_delete > 0, (
        "the checkpoint cadence must land right after deletions too"
    )
    counters = streams.metrics.as_dict()["counters"]
    assert counters["stream.requeries"] > 0  # deletions evicted results
    assert counters["stream.buckets_skipped"] > 0  # pruning engaged
    service.close()
    durable.close()
