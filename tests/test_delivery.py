"""Unit tests: subscription queues at their exact capacity boundaries.

A subscription is one coalescing queue, and its overflow is the one
place in the streaming layer where data is *allowed* to disappear, so
this file pins its behaviour offer-by-offer at the boundary: what the
outcome string says, what the queue then holds, what the ``dropped``
counter reads, and what the service-level delivery metrics count.
"""

import pytest

from repro.core.index import I3Index
from repro.model.query import TopKQuery
from repro.service.service import QueryService
from repro.spatial.geometry import UNIT_SQUARE
from repro.streaming.delivery import ResultUpdate, StreamSubscription
from tests.helpers import make_documents
import random


def _update(query_id: int, lsn=None, tag: int = 0) -> ResultUpdate:
    return ResultUpdate(
        query_id=query_id, kind="update", epoch=tag, lsn=lsn, seq=0, results=()
    )


class TestCoalescePolicy:
    def test_fills_to_exact_capacity_without_dropping(self):
        sub = StreamSubscription("s", capacity=3)
        assert [sub.offer(_update(q)) for q in (1, 2, 3)] == ["queued"] * 3
        assert sub.depth == 3
        assert sub.dropped == 0

    def test_same_query_coalesces_in_place_at_full_capacity(self):
        sub = StreamSubscription("s", capacity=2)
        sub.offer(_update(1, tag=1))
        sub.offer(_update(2, tag=1))
        # A repeat of query 1 replaces its pending entry: no eviction,
        # no drop, the newer payload wins.
        assert sub.offer(_update(1, tag=2)) == "coalesced"
        assert sub.depth == 2
        assert sub.dropped == 0
        polled = sub.poll()
        by_query = {u.query_id: u for u in polled}
        assert by_query[1].epoch == 2

    def test_distinct_query_beyond_capacity_evicts_oldest(self):
        sub = StreamSubscription("s", capacity=2)
        sub.offer(_update(1))
        sub.offer(_update(2))
        assert sub.offer(_update(3)) == "dropped"
        assert sub.depth == 2  # still exactly at capacity
        assert sub.dropped == 1
        assert [u.query_id for u in sub.poll()] == [2, 3]  # 1 was evicted

    def test_coalesced_entry_moves_to_back_of_eviction_order(self):
        sub = StreamSubscription("s", capacity=2)
        sub.offer(_update(1))
        sub.offer(_update(2))
        sub.offer(_update(1, tag=9))  # 1 refreshed: now newest
        sub.offer(_update(3))  # overflow evicts 2, the stalest
        assert sorted(u.query_id for u in sub.poll()) == [1, 3]

    def test_capacity_one_boundary(self):
        sub = StreamSubscription("s", capacity=1)
        assert sub.offer(_update(1)) == "queued"
        assert sub.offer(_update(2)) == "dropped"
        assert sub.depth == 1
        assert sub.dropped == 1
        assert [u.query_id for u in sub.poll()] == [2]

    def test_seq_numbers_stay_monotonic_across_drops(self):
        sub = StreamSubscription("s", capacity=2)
        for q in range(5):
            sub.offer(_update(q))
        seqs = [u.seq for u in sub.poll()]
        assert seqs == sorted(seqs)
        assert seqs == [4, 5]  # every offer stamped, drops included
        assert sub.dropped == 3


class TestPollAndAck:
    def test_poll_max_items_partial_drain(self):
        sub = StreamSubscription("s", capacity=8)
        for q in range(5):
            sub.offer(_update(q))
        first = sub.poll(max_items=2)
        assert [u.query_id for u in first] == [0, 1]
        assert sub.depth == 3
        assert [u.query_id for u in sub.poll()] == [2, 3, 4]
        assert sub.poll() == []

    def test_ack_is_monotone_and_ignores_none(self):
        sub = StreamSubscription("s", capacity=2)
        sub.ack(None)
        assert sub.last_acked_lsn == 0
        sub.ack(7)
        sub.ack(3)  # going backwards is ignored
        assert sub.last_acked_lsn == 7

    def test_closed_subscription_drops_silently(self):
        sub = StreamSubscription("s", capacity=2)
        sub.close()
        assert sub.offer(_update(1)) == "dropped"
        # A closed queue is not an overflow: the loss counter is for
        # capacity evictions only.
        assert sub.dropped == 0
        assert sub.poll() == []

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StreamSubscription("s", capacity=0)


class TestServiceDeliveryMetrics:
    def test_outcome_counters_match_offer_outcomes(self):
        """End to end through a service's stream: registration snapshots
        and mutation updates count under stream.delivery.<outcome>,
        agreeing with the subscription's own accounting."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for doc in make_documents(30, random.Random(4)):
            index.insert_document(doc)
        service = QueryService(index)
        streams = service.streams()
        sub = streams.subscribe("s", capacity=2)
        words = sorted({w for d in make_documents(30, random.Random(4))
                        for w in d.terms})[:3]
        qids = [
            streams.register(sub, TopKQuery(0.5, 0.5, (w,), k=3))
            for w in words
        ]
        assert len(qids) == 3
        counters = streams.metrics.as_dict()["counters"]
        # Three snapshots into a capacity-2 queue: 2 queued, 3rd evicted
        # the oldest.
        assert counters["stream.delivery.queued"] == 2
        assert counters["stream.delivery.dropped"] == 1
        assert sub.dropped == 1
        # A mutation touching a still-queued query's results coalesces.
        doc = make_documents(1, random.Random(99), start_id=5_000)[0]
        queued_before = counters["stream.delivery.queued"]
        index.insert_document(doc)
        counters = streams.metrics.as_dict()["counters"]
        outcomes = (
            counters["stream.delivery.queued"] - queued_before,
            counters.get("stream.delivery.coalesced", 0),
            counters["stream.delivery.dropped"] - 1,
        )
        # Whatever mix of outcomes the insert produced, every offer is
        # accounted for exactly once and depth never exceeds capacity.
        assert sum(outcomes) > 0
        assert sub.depth <= 2
        service.close()
