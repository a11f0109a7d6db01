"""Unit tests: the subscription queue, offer by offer.

A subscription is one coalescing queue: it keeps the newest update per
standing query and evicts nothing, so its subscriber's registrations
bound it.  This file pins its behaviour offer-by-offer: what the outcome
string says, what the queue then holds, and what the service-level
delivery metrics count.
"""

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
    def test_same_query_coalesces_in_place_at_full_capacity(self):
        sub = StreamSubscription("s")
        sub.offer(_update(1, tag=1))
        sub.offer(_update(2, tag=1))
        # A repeat of query 1 replaces its pending entry: the queue does
        # not grow, and the newer payload wins.
        assert sub.offer(_update(1, tag=2)) == "coalesced"
        assert sub.depth == 2
        polled = sub.poll()
        by_query = {u.query_id: u for u in polled}
        assert by_query[1].epoch == 2


class TestPollAndAck:
    def test_poll_max_items_partial_drain(self):
        sub = StreamSubscription("s")
        for q in range(5):
            sub.offer(_update(q))
        first = sub.poll(max_items=2)
        assert [u.query_id for u in first] == [0, 1]
        assert sub.depth == 3
        assert [u.query_id for u in sub.poll()] == [2, 3, 4]
        assert sub.poll() == []

    def test_closed_subscription_drops_silently(self):
        sub = StreamSubscription("s")
        sub.close()
        assert sub.offer(_update(1)) == "dropped"
        assert sub.depth == 0
        assert sub.poll() == []


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
        sub = streams.subscribe("s")
        words = sorted({w for d in make_documents(30, random.Random(4))
                        for w in d.terms})[:3]
        qids = [
            streams.register(sub, TopKQuery(0.5, 0.5, (w,), k=3))
            for w in words
        ]
        assert len(qids) == 3
        counters = streams.metrics.as_dict()["counters"]
        # Three snapshots, three queued, nothing dropped.
        assert counters["stream.delivery.queued"] == 3
        assert "stream.delivery.dropped" not in counters
        assert sub.depth == 3
        # A mutation touching a still-queued query's results coalesces.
        doc = make_documents(1, random.Random(99), start_id=5_000)[0]
        index.insert_document(doc)
        counters = streams.metrics.as_dict()["counters"]
        assert counters["stream.delivery.queued"] == 3
        assert counters["stream.delivery.coalesced"] > 0
        assert "stream.delivery.dropped" not in counters
        # At most one pending update per standing query.
        assert sub.depth == 3
        service.close()
