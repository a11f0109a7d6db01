"""Unit tests for the data model: documents, queries, scoring, results."""

import math

import pytest

from repro.model.document import F32_LIMIT, SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.storage.records import f32


class TestSpatialDocument:
    def test_tuples_shred_and_reassemble(self):
        doc = SpatialDocument(7, 0.2, 0.3, {"a": 0.5, "b": 0.9})
        tuples = list(doc.tuples())
        assert len(tuples) == 2
        assert all(t.doc_id == 7 and t.location == (0.2, 0.3) for t in tuples)
        assert {t.word: t.weight for t in tuples} == doc.terms

    def test_contains_all_any(self):
        doc = SpatialDocument(1, 0, 0, {"a": 0.1, "b": 0.2})
        assert doc.contains_all(["a", "b"])
        assert not doc.contains_all(["a", "c"])
        assert doc.contains_any(["c", "b"])
        assert not doc.contains_any(["c", "d"])

    def test_weight_lookup(self):
        # A document keeps the f32 its index stores, not the raw weight.
        doc = SpatialDocument(1, 0, 0, {"a": 0.4})
        assert doc.weight("a") == f32(0.4) != 0.4
        assert doc.weight("missing") == 0.0

    def test_weights_are_quantised_once(self):
        raw = {"a": 0.1, "b": 0.7, "c": 0.5, "d": 0.0}
        doc = SpatialDocument(1, 0, 0, raw)
        assert doc.terms == {w: f32(v) for w, v in raw.items()}
        assert raw["a"] == 0.1  # the caller's mapping is left alone
        # An f32 weight keeps its bits: rebuilding a document changes
        # nothing, so a stored document round-trips exactly.
        again = SpatialDocument(1, 0, 0, doc.terms)
        assert [v.hex() for v in again.terms.values()] == [
            v.hex() for v in doc.terms.values()
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialDocument(-1, 0, 0, {})
        with pytest.raises(ValueError):
            SpatialDocument(2**64, 0, 0, {})  # the store keeps a u64
        SpatialDocument(2**64 - 1, 0, 0, {})
        with pytest.raises(ValueError):
            SpatialDocument(1, 0, 0, {"": 0.5})
        with pytest.raises(ValueError):
            SpatialDocument(1, 0, 0, {"a": -0.5})

    @pytest.mark.parametrize("x, y, weight", [
        (0.5, 0.5, math.inf), (0.5, 0.5, math.nan),
        (math.inf, 0.5, 0.5), (0.5, math.nan, 0.5),
    ])
    def test_non_finite_refused(self, x, y, weight):
        # An infinite weight would rank first with score inf under both
        # engines; NaN slips past a plain ``< 0`` check.
        with pytest.raises(ValueError, match="finite"):
            SpatialDocument(10, x, y, {"a": weight})

    def test_weight_must_fit_an_f32(self):
        # A weight is stored as an f32; one that overflows there must be
        # refused here, before a durable store logs it.  The largest
        # weight a document takes rounds to the largest f32.
        largest = math.nextafter(F32_LIMIT, 0.0)
        top = float.fromhex("0x1.fffffep+127")
        assert SpatialDocument(1, 0, 0, {"a": largest}).terms["a"] == top
        assert f32(largest) == top
        for weight in (F32_LIMIT, 1e39):
            with pytest.raises(OverflowError):
                f32(weight)
            with pytest.raises(ValueError, match="keyword 'big'"):
                SpatialDocument(1, 0, 0, {"big": weight})


class TestTopKQuery:
    def test_semantics_matching(self):
        doc = SpatialDocument(1, 0, 0, {"a": 0.1, "b": 0.2})
        assert Semantics.AND.matches(("a", "b"), doc)
        assert not Semantics.AND.matches(("a", "z"), doc)
        assert Semantics.OR.matches(("a", "z"), doc)
        assert not Semantics.OR.matches(("y", "z"), doc)

    def test_dedupes_words(self):
        q = TopKQuery(0.5, 0.5, ("a", "b", "a"), k=3)
        assert q.words == ("a", "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKQuery(0, 0, ("a",), k=0)
        with pytest.raises(ValueError):
            TopKQuery(0, 0, (), k=5)

    def test_with_helpers(self):
        q = TopKQuery(0.5, 0.5, ("a",), k=3, semantics=Semantics.AND)
        assert q.with_k(7).k == 7
        assert q.with_semantics(Semantics.OR).semantics is Semantics.OR
        assert q.with_k(7).words == q.words


class TestRanker:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            Ranker(UNIT_SQUARE, alpha=1.5)

    def test_spatial_proximity_range(self):
        r = Ranker(UNIT_SQUARE, alpha=1.0)
        assert r.spatial_proximity(0.5, 0.5, 0.5, 0.5) == 1.0
        # The far corner is at distance diagonal -> proximity 0.
        assert r.spatial_proximity(0.0, 0.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_spatial_upper_bound_dominates_points(self):
        r = Ranker(UNIT_SQUARE)
        rect = Rect(0.5, 0.5, 0.75, 0.75)
        bound = r.spatial_upper_bound(0.1, 0.1, rect)
        for x, y in [(0.5, 0.5), (0.6, 0.7), (0.75, 0.75)]:
            assert r.spatial_proximity(0.1, 0.1, x, y) <= bound + 1e-12

    def test_combine_alpha_weighting(self):
        r = Ranker(UNIT_SQUARE, alpha=0.3)
        assert r.combine(1.0, 2.0) == pytest.approx(0.3 + 0.7 * 2.0)

    def test_score_document_and_vs_or(self):
        r = Ranker(UNIT_SQUARE, alpha=0.5)
        doc = SpatialDocument(1, 0.5, 0.5, {"a": 0.4})
        q_and = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.AND)
        q_or = q_and.with_semantics(Semantics.OR)
        assert r.score_document(q_and, doc) is None
        score = r.score_document(q_or, doc)
        assert score == pytest.approx(0.5 * 1.0 + 0.5 * 0.4)

    def test_textual_score_sums_matched_only(self):
        r = Ranker(UNIT_SQUARE)
        doc = SpatialDocument(1, 0, 0, {"a": 0.4, "b": 0.5, "c": 0.6})
        assert r.textual_score(("a", "c", "z"), doc) == pytest.approx(1.0)

    def test_score_partial_matches_score_document(self):
        r = Ranker(UNIT_SQUARE, alpha=0.4)
        doc = SpatialDocument(1, 0.2, 0.9, {"a": 0.7, "b": 0.1})
        q = TopKQuery(0.6, 0.3, ("a", "b"), semantics=Semantics.AND)
        full = r.score_document(q, doc)
        partial = r.score_partial(q, doc.x, doc.y, 0.8)
        assert full == pytest.approx(partial)

    def test_alpha_extremes(self):
        doc = SpatialDocument(1, 0.9, 0.9, {"a": 0.5})
        q = TopKQuery(0.1, 0.1, ("a",))
        spatial_only = Ranker(UNIT_SQUARE, alpha=1.0).score_document(q, doc)
        textual_only = Ranker(UNIT_SQUARE, alpha=0.0).score_document(q, doc)
        assert spatial_only == pytest.approx(
            Ranker(UNIT_SQUARE).spatial_proximity(0.1, 0.1, 0.9, 0.9)
        )
        assert textual_only == pytest.approx(0.5)


class TestTopKCollector:
    def test_keeps_k_best(self):
        c = TopKCollector(2)
        for doc_id, score in [(1, 0.3), (2, 0.9), (3, 0.5), (4, 0.1)]:
            c.offer(doc_id, score)
        assert [r.doc_id for r in c.results()] == [2, 3]

    def test_delta_semantics(self):
        c = TopKCollector(2)
        assert c.delta == float("-inf")
        c.offer(1, 0.3)
        assert c.delta == float("-inf")  # not full yet: nothing prunable
        c.offer(2, 0.9)
        assert c.delta == 0.3

    def test_tie_break_prefers_smaller_doc_id(self):
        c = TopKCollector(1)
        c.offer(9, 0.5)
        c.offer(3, 0.5)
        assert c.results() == [ScoredDoc(score=0.5, doc_id=3)]
        # And the reverse arrival order gives the same answer.
        c2 = TopKCollector(1)
        c2.offer(3, 0.5)
        c2.offer(9, 0.5)
        assert c2.results() == [ScoredDoc(score=0.5, doc_id=3)]

    def test_reoffering_keeps_best_score(self):
        c = TopKCollector(3)
        c.offer(1, 0.2)
        c.offer(1, 0.7)
        c.offer(1, 0.4)
        assert c.results() == [ScoredDoc(score=0.7, doc_id=1)]

    def test_results_sorted_desc_then_id_asc(self):
        c = TopKCollector(4)
        for doc_id, score in [(5, 0.5), (2, 0.8), (7, 0.5), (1, 0.2)]:
            c.offer(doc_id, score)
        assert [(r.doc_id, r.score) for r in c.results()] == [
            (2, 0.8),
            (5, 0.5),
            (7, 0.5),
            (1, 0.2),
        ]

    def test_would_accept(self):
        c = TopKCollector(1)
        assert c.would_accept(0.0)
        c.offer(1, 0.5)
        assert c.would_accept(0.6)
        assert not c.would_accept(0.5)

    def test_membership(self):
        c = TopKCollector(1)
        c.offer(1, 0.5)
        assert 1 in c
        c.offer(2, 0.9)
        assert 1 not in c and 2 in c

    def test_best_and_len(self):
        c = TopKCollector(5)
        assert c.best() is None
        c.offer(4, 0.4)
        c.offer(6, 0.6)
        assert c.best() == ScoredDoc(score=0.6, doc_id=6)
        assert len(c) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKCollector(0)
