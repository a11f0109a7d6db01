"""Tests for region-constrained spatial keyword search on I3.

The Section 2 query family: results must lie inside a query rectangle
and match the keywords; ranking is purely textual.  I3 answers it with
the same keyword-cell traversal (cells outside the region are skipped;
AND-semantics signature pruning still applies).
"""


import pytest

from repro.baselines.naive import NaiveScanIndex
from repro.core.index import I3Index
from repro.model.query import Semantics
from repro.spatial.geometry import Rect, UNIT_SQUARE

from tests.helpers import make_documents


@pytest.fixture
def pair(rng):
    index = I3Index(UNIT_SQUARE, page_size=64)
    naive = NaiveScanIndex()
    for doc in make_documents(200, rng):
        index.insert_document(doc)
        naive.insert_document(doc)
    return index, naive


def as_pairs(hits):
    return [(h.doc_id, round(h.score, 9)) for h in hits]


class TestRangeQuery:
    """Region queries on the default cell model; the subclass at the end
    of the file names each model in turn."""

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_matches_oracle(self, pair, rng, semantics):
        index, naive = pair
        for _ in range(20):
            x1, x2 = sorted((rng.random(), rng.random()))
            y1, y2 = sorted((rng.random(), rng.random()))
            region = Rect(x1, y1, x2, y2)
            words = tuple(rng.sample(["spicy", "restaurant", "pizza", "bar"], rng.randint(1, 3)))
            assert as_pairs(index.range_query(region, words, semantics)) == as_pairs(
                naive.range_query(region, words, semantics)
            )

    def test_whole_space_region(self, pair):
        index, naive = pair
        region = UNIT_SQUARE
        got = index.range_query(region, ("restaurant",), Semantics.OR)
        want = naive.range_query(region, ("restaurant",), Semantics.OR)
        assert as_pairs(got) == as_pairs(want)
        assert got, "the default vocabulary always produces restaurants"

    def test_empty_region(self, pair):
        index, _ = pair
        tiny = Rect(2.0, 2.0, 2.0, 2.0)  # outside the data space
        assert index.range_query(tiny, ("restaurant",), Semantics.OR) == []

    def test_results_sorted_by_textual_score(self, pair, rng):
        index, _ = pair
        hits = index.range_query(UNIT_SQUARE, ("spicy", "pizza"), Semantics.OR)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_word(self, pair):
        index, _ = pair
        assert index.range_query(UNIT_SQUARE, ("ghost",), Semantics.AND) == []
        assert index.range_query(UNIT_SQUARE, ("ghost",), Semantics.OR) == []

    def test_empty_word_list(self, pair):
        index, _ = pair
        assert index.range_query(UNIT_SQUARE, (), Semantics.OR) == []

    def test_default_semantics_is_or(self, pair):
        index, naive = pair
        got = index.range_query(UNIT_SQUARE, ("spicy", "bar"))
        want = naive.range_query(UNIT_SQUARE, ("spicy", "bar"), Semantics.OR)
        assert as_pairs(got) == as_pairs(want)

    def test_after_updates(self, pair, rng):
        index, naive = pair
        docs = make_documents(40, rng, start_id=500)
        for doc in docs:
            index.insert_document(doc)
            naive.insert_document(doc)
        for doc in docs[::2]:
            assert index.delete_document(doc)
            naive.delete_document(doc)
        region = Rect(0.2, 0.2, 0.8, 0.8)
        for semantics in (Semantics.AND, Semantics.OR):
            got = index.range_query(region, ("spicy", "restaurant"), semantics)
            want = naive.range_query(region, ("spicy", "restaurant"), semantics)
            assert as_pairs(got) == as_pairs(want)


@pytest.mark.usefixtures("named_engine")
class TestRangeQueryOnEachEngine(TestRangeQuery):
    """The same suite on the vector model and on the tuple reference."""
