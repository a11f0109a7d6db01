"""Direct unit tests for the AND/OR pruning strategies and, crucially,
the *admissibility* of their upper bounds: a cell's bound must dominate
the true score of every matching document inside the cell.  That is the
property pruning safety rests on."""

import random

import pytest

from repro.core.and_semantics import AndSemantics
from repro.core.candidates import Candidate, DenseRef, DocAccumulator
from repro.core.headfile import SummaryInfo
from repro.core.or_semantics import OrSemantics
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import CellGrid, ROOT_CELL
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.records import f32

GRID = CellGrid(UNIT_SQUARE)


def summary_of(docs, word, eta=64):
    rows = [(d.doc_id, d.x, d.y, d.terms[word]) for d in docs if word in d.terms]
    return SummaryInfo.of_rows(eta, rows)


def candidate_for(docs, query, dense_words, eta=64):
    """A root-cell candidate where ``dense_words`` are summarised and the
    rest are fully fetched into accumulators — mirroring the states the
    query processor creates."""
    dense = {}
    for word in dense_words:
        info = summary_of(docs, word, eta)
        if info.count:
            dense[word] = DenseRef(info=info, node_id=0)
    accs = {}
    fetched = frozenset(w for w in query.words if w not in dense)
    for doc in docs:
        matched = {w: doc.terms[w] for w in fetched if w in doc.terms}
        if matched:
            accs[doc.doc_id] = DocAccumulator(x=doc.x, y=doc.y, weights=matched)
    return Candidate(cell=ROOT_CELL, dense=dense, docs=accs, fetched=fetched)


def random_docs(rng, n=40, vocab=("a", "b", "c", "d")):
    docs = []
    for i in range(n):
        words = rng.sample(list(vocab), rng.randint(1, len(vocab)))
        docs.append(
            SpatialDocument(
                i,
                rng.random(),
                rng.random(),
                {w: f32(rng.uniform(0.05, 1.0)) for w in words},
            )
        )
    return docs


class TestAndPruning:
    def test_prunes_on_missing_word(self):
        query = TopKQuery(0.5, 0.5, ("a", "ghost"), semantics=Semantics.AND)
        cand = candidate_for(
            [SpatialDocument(1, 0.5, 0.5, {"a": 0.5})], query, dense_words=()
        )
        assert AndSemantics(64).prune(cand, query)

    def test_prunes_on_disjoint_signatures(self):
        docs = [
            SpatialDocument(1, 0.1, 0.1, {"a": 0.5}),
            SpatialDocument(2, 0.9, 0.9, {"b": 0.5}),
        ]
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.AND)
        cand = candidate_for(docs, query, dense_words=("a", "b"))
        assert AndSemantics(64).prune(cand, query)

    def test_keeps_cell_with_conjunctive_match(self):
        docs = [SpatialDocument(1, 0.4, 0.4, {"a": 0.5, "b": 0.6})]
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.AND)
        cand = candidate_for(docs, query, dense_words=("a",))
        assert not AndSemantics(64).prune(cand, query)

    def test_filters_documents_missing_fetched_words(self):
        docs = [
            SpatialDocument(1, 0.4, 0.4, {"a": 0.5, "b": 0.6}),
            SpatialDocument(2, 0.6, 0.6, {"a": 0.7}),  # lacks fetched b
        ]
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.AND)
        cand = candidate_for(docs, query, dense_words=())
        assert not AndSemantics(64).prune(cand, query)
        assert set(cand.docs) == {1}

    def test_signature_false_positive_not_pruned(self):
        # eta = 1: every id collides, the intersection never empties —
        # conservative, never unsafe.
        docs = [
            SpatialDocument(1, 0.1, 0.1, {"a": 0.5}),
            SpatialDocument(2, 0.9, 0.9, {"b": 0.5}),
        ]
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.AND)
        cand = candidate_for(docs, query, dense_words=("a", "b"), eta=1)
        assert not AndSemantics(1).prune(cand, query)


class TestOrPruning:
    def test_prunes_only_fully_empty_cells(self):
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.OR)
        empty = Candidate(cell=ROOT_CELL, dense={}, docs={}, fetched=frozenset("ab"))
        assert OrSemantics(64).prune(empty, query)
        docs = [SpatialDocument(1, 0.5, 0.5, {"a": 0.5})]
        cand = candidate_for(docs, query, dense_words=())
        assert not OrSemantics(64).prune(cand, query)


@pytest.mark.parametrize("dense_count", [0, 1, 2, 3])
@pytest.mark.parametrize("semantics_cls", [AndSemantics, OrSemantics])
def test_upper_bound_admissible(dense_count, semantics_cls):
    """For random databases and queries, the cell bound dominates the true
    score of every matching document in the cell — for every split of the
    query keywords into dense/fetched."""
    rng = random.Random(dense_count * 7 + (semantics_cls is OrSemantics))
    model_semantics = (
        Semantics.AND if semantics_cls is AndSemantics else Semantics.OR
    )
    for trial in range(25):
        docs = random_docs(rng)
        words = tuple(rng.sample(["a", "b", "c", "d"], rng.randint(1, 4)))
        query = TopKQuery(
            rng.random(), rng.random(), words, semantics=model_semantics
        )
        dense_words = tuple(rng.sample(words, min(dense_count, len(words))))
        cand = candidate_for(docs, query, dense_words)
        strategy = semantics_cls(64)
        if strategy.prune(cand, query):
            # Pruning must itself be safe: no document may match.
            ranker = Ranker(UNIT_SQUARE, alpha=0.5)
            for doc in docs:
                assert ranker.score_document(query, doc) is None
            continue
        for alpha in (0.0, 0.3, 0.8, 1.0):
            ranker = Ranker(UNIT_SQUARE, alpha=alpha)
            bound = strategy.upper_bound(cand, query, ranker, GRID)
            for doc in docs:
                score = ranker.score_document(query, doc)
                if score is not None:
                    assert score <= bound + 1e-9, (
                        f"bound {bound} < score {score} for doc {doc.doc_id}, "
                        f"dense={dense_words}, words={words}, alpha={alpha}"
                    )


class TestOrLatticeDetails:
    def test_singletons_only_when_no_cooccurrence(self):
        docs = [
            SpatialDocument(1, 0.2, 0.2, {"a": 0.9}),
            SpatialDocument(5, 0.7, 0.7, {"b": 0.8}),
        ]
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.OR)
        cand = candidate_for(docs, query, dense_words=())
        bound = OrSemantics(64).textual_bound(cand, query)
        assert bound == pytest.approx(0.9)  # subsets {a}, {b} only

    def test_pair_allowed_when_shared_doc(self):
        docs = [SpatialDocument(1, 0.2, 0.2, {"a": 0.9, "b": 0.8})]
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.OR)
        cand = candidate_for(docs, query, dense_words=())
        bound = OrSemantics(64).textual_bound(cand, query)
        assert bound == pytest.approx(1.7)

    def test_bound_never_below_best_singleton(self):
        rng = random.Random(12)
        for _ in range(10):
            docs = random_docs(rng, n=20)
            query = TopKQuery(0.5, 0.5, ("a", "b", "c"), semantics=Semantics.OR)
            cand = candidate_for(docs, query, dense_words=("a",))
            bound = OrSemantics(64).textual_bound(cand, query)
            best_single = max(
                (
                    doc.terms[w]
                    for doc in docs
                    for w in query.words
                    if w in doc.terms
                ),
                default=0.0,
            )
            assert bound >= best_single - 1e-9
