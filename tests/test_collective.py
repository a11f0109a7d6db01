"""Tests for collective spatial keyword queries (the mCK-style extension)."""

import itertools

import pytest

from repro.baselines.naive import NaiveScanIndex
from repro.core.index import I3Index
from repro.extensions.collective import CollectiveSearcher
from repro.model.document import SpatialDocument
from repro.spatial.geometry import UNIT_SQUARE, point_distance
from repro.storage.records import f32

from tests.helpers import make_documents

VOCAB = ["coffee", "print", "bank", "florist", "parking"]


def build(docs):
    index = I3Index(UNIT_SQUARE, page_size=64)
    store = {}
    for doc in docs:
        index.insert_document(doc)
        store[doc.doc_id] = doc
    searcher = CollectiveSearcher(
        index, UNIT_SQUARE, locate=lambda d: (store[d].x, store[d].y)
    )
    return searcher, store


class TestSumCost:
    def test_single_doc_covering_everything(self):
        docs = [
            SpatialDocument(1, 0.5, 0.5, {w: f32(0.5) for w in VOCAB}),
            SpatialDocument(2, 0.9, 0.9, {"coffee": f32(0.5)}),
        ]
        searcher, _ = build(docs)
        result = searcher.search_sum(0.5, 0.5, VOCAB)
        assert result.doc_ids == [1]
        assert result.cost == pytest.approx(0.0)
        assert set(result.assignment.values()) == {1}

    def test_picks_nearest_carrier_per_keyword(self, rng):
        docs = make_documents(120, rng, vocab=VOCAB, min_words=1, max_words=2)
        searcher, store = build(docs)
        qx, qy = 0.4, 0.6
        result = searcher.search_sum(qx, qy, ("coffee", "bank"))
        assert result is not None
        for word in ("coffee", "bank"):
            chosen = result.assignment[word]
            best = min(
                (d for d in store.values() if word in d.terms),
                key=lambda d: (point_distance(qx, qy, d.x, d.y), d.doc_id),
            )
            assert chosen == best.doc_id

    def test_sum_cost_is_optimal(self, rng):
        """SUM decomposes per keyword, so the searcher's cost must equal
        the brute-force optimum over all covering groups."""
        docs = make_documents(25, rng, vocab=VOCAB[:3], min_words=1, max_words=2)
        searcher, store = build(docs)
        words = ("coffee", "print")
        qx, qy = 0.5, 0.5
        result = searcher.search_sum(qx, qy, words)
        if result is None:
            pytest.skip("random corpus lacks a keyword")
        best = float("inf")
        ids = list(store)
        for size in (1, 2):
            for combo in itertools.combinations(ids, size):
                covered = set().union(*(store[d].terms.keys() for d in combo))
                if not set(words) <= covered:
                    continue
                cost = sum(point_distance(qx, qy, store[d].x, store[d].y) for d in combo)
                best = min(best, cost)
        assert result.cost == pytest.approx(best)

    def test_missing_keyword_returns_none(self, rng):
        docs = make_documents(30, rng, vocab=VOCAB)
        searcher, _ = build(docs)
        assert searcher.search_sum(0.5, 0.5, ("coffee", "unicorn")) is None

    def test_duplicate_keywords_deduped(self, rng):
        docs = make_documents(40, rng, vocab=VOCAB)
        searcher, _ = build(docs)
        a = searcher.search_sum(0.5, 0.5, ("coffee", "coffee", "bank"))
        b = searcher.search_sum(0.5, 0.5, ("coffee", "bank"))
        assert a.doc_ids == b.doc_ids and a.cost == b.cost


class TestDiameterCost:
    def test_covers_all_keywords(self, rng):
        docs = make_documents(150, rng, vocab=VOCAB, min_words=1, max_words=3)
        searcher, store = build(docs)
        words = ("coffee", "bank", "florist")
        result = searcher.search_diameter(0.3, 0.7, words)
        assert result is not None
        covered = set().union(*(store[d].terms.keys() for d in result.doc_ids))
        assert set(words) <= covered
        for word in words:
            assert word in store[result.assignment[word]].terms

    def test_prefers_colocated_group(self):
        # A tight pair far-ish away must beat a near doc plus a far doc
        # (the diameter term punishes spread).
        docs = [
            SpatialDocument(1, 0.52, 0.52, {"coffee": f32(0.5)}),
            SpatialDocument(2, 0.95, 0.95, {"bank": f32(0.5)}),
            SpatialDocument(3, 0.70, 0.70, {"coffee": f32(0.5)}),
            SpatialDocument(4, 0.71, 0.70, {"bank": f32(0.5)}),
        ]
        searcher, _ = build(docs)
        result = searcher.search_diameter(0.5, 0.5, ("coffee", "bank"))
        assert result.doc_ids == [3, 4]

    def test_greedy_close_to_exhaustive(self, rng):
        """On small instances the greedy cost stays within the classic
        3x bound of the exhaustive optimum (usually it matches)."""
        for trial in range(10):
            docs = make_documents(
                14, rng, vocab=VOCAB[:3], min_words=1, max_words=2, start_id=trial * 100
            )
            searcher, store = build(docs)
            words = ("coffee", "print", "bank")
            greedy = searcher.search_diameter(0.5, 0.5, words, pool_size=14)
            exact = searcher.exhaustive_diameter(
                0.5, 0.5, words, list(store), lambda d: set(store[d].terms)
            )
            if greedy is None or exact is None:
                continue
            assert greedy.cost <= 3.0 * exact.cost + 1e-9
            assert greedy.cost >= exact.cost - 1e-9

    def test_missing_keyword_returns_none(self, rng):
        docs = make_documents(30, rng, vocab=VOCAB)
        searcher, _ = build(docs)
        assert searcher.search_diameter(0.5, 0.5, ("coffee", "unicorn")) is None


class TestSubstrate:
    def test_nearest_carriers_ordered_by_distance(self, rng):
        docs = make_documents(100, rng, vocab=VOCAB)
        searcher, store = build(docs)
        qx, qy = 0.2, 0.8
        got = searcher.nearest_carriers(qx, qy, "coffee", k=5)
        dists = [point_distance(qx, qy, store[d].x, store[d].y) for d in got]
        assert dists == sorted(dists)

    def test_works_against_naive_index_too(self, rng):
        """The searcher only needs the query API, so the oracle index is
        a drop-in — and must produce identical SUM groups."""
        docs = make_documents(80, rng, vocab=VOCAB)
        i3_searcher, store = build(docs)
        naive = NaiveScanIndex()
        for doc in docs:
            naive.insert_document(doc)
        naive_searcher = CollectiveSearcher(
            naive, UNIT_SQUARE, locate=lambda d: (store[d].x, store[d].y)
        )
        a = i3_searcher.search_sum(0.4, 0.4, ("coffee", "parking"))
        b = naive_searcher.search_sum(0.4, 0.4, ("coffee", "parking"))
        assert (a is None) == (b is None)
        if a is not None:
            assert a.doc_ids == b.doc_ids
            assert a.cost == pytest.approx(b.cost)
