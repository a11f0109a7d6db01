"""Tests for the streaming (incremental) top-k iterator."""

import itertools

import pytest

from repro.baselines.naive import NaiveScanIndex
from repro.core.index import I3Index
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import make_documents, results_as_pairs


@pytest.fixture
def pair(rng):
    index = I3Index(UNIT_SQUARE, page_size=64)
    naive = NaiveScanIndex()
    for doc in make_documents(200, rng):
        index.insert_document(doc)
        naive.insert_document(doc)
    return index, naive


class TestIterQuery:
    """Streams from the default cell model; the subclass below names
    each model in turn."""

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_full_stream_matches_unbounded_oracle(self, pair, rng, semantics):
        index, naive = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        for _ in range(10):
            words = tuple(
                rng.sample(["spicy", "restaurant", "pizza", "bar"], rng.randint(1, 3))
            )
            query = TopKQuery(
                rng.random(), rng.random(), words, k=1, semantics=semantics
            )
            got = results_as_pairs(index.iter_query(query, ranker))
            want = results_as_pairs(naive.query(query.with_k(10_000), ranker))
            assert got == want

    def test_prefix_matches_topk(self, pair, rng):
        index, naive = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.4, 0.6, ("spicy", "restaurant"), k=1)
        stream = index.iter_query(query, ranker)
        prefix = results_as_pairs(itertools.islice(stream, 7))
        assert prefix == results_as_pairs(naive.query(query.with_k(7), ranker))

    def test_scores_non_increasing(self, pair):
        index, _ = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.5, 0.5, ("restaurant",), k=1)
        scores = [r.score for r in index.iter_query(query, ranker)]
        assert scores == sorted(scores, reverse=True)
        assert len(scores) > 10

    def test_no_duplicates(self, pair):
        index, _ = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.5, 0.5, ("spicy", "bar"), k=1, semantics=Semantics.OR)
        ids = [r.doc_id for r in index.iter_query(query, ranker)]
        assert len(ids) == len(set(ids))

    def test_lazy_io(self, pair):
        """Consuming a short prefix must read fewer pages than draining."""
        index, _ = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.5, 0.5, ("restaurant",), k=1)
        index.stats.reset()
        stream = index.iter_query(query, ranker)
        next(stream)
        partial = index.stats.reads()
        list(stream)  # drain
        assert index.stats.reads() > partial

    def test_missing_keyword_yields_nothing(self, pair):
        index, _ = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        and_query = TopKQuery(0.5, 0.5, ("ghost", "spicy"), semantics=Semantics.AND)
        assert list(index.iter_query(and_query, ranker)) == []
        or_query = TopKQuery(0.5, 0.5, ("ghost",), semantics=Semantics.OR)
        assert list(index.iter_query(or_query, ranker)) == []

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_prefix_reads_exactly_what_topk_reads(self, pair, rng, semantics):
        """The lazy-read property as an equality: cold, consuming n
        results reads the pages a top-n query reads — no more (nothing
        is expanded ahead of the consumer) and no fewer."""
        index, _ = pair
        ranker = Ranker(UNIT_SQUARE, 0.5)
        vocab = ["spicy", "restaurant", "pizza", "bar"]

        def cold_reads(run):
            index.clear_cache()
            index.stats.reset()
            run()
            return index.stats.reads("i3.head"), index.stats.reads("i3.data")

        for _ in range(12):
            words = tuple(rng.sample(vocab, rng.randint(1, 3)))
            query = TopKQuery(
                rng.random(), rng.random(), words, k=1, semantics=semantics
            )
            n = rng.choice([1, 2, 5, 17, 400])
            streamed = cold_reads(
                lambda: list(itertools.islice(index.iter_query(query, ranker), n))
            )
            assert streamed == cold_reads(
                lambda: index.query(query.with_k(n), ranker)
            )


@pytest.mark.usefixtures("named_engine")
class TestIterQueryOnEachEngine(TestIterQuery):
    """The same suite on the vector model and on the tuple reference."""
