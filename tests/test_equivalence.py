"""Cross-index equivalence: the load-bearing correctness tests.

For random corpora and random queries, I3, IR-tree, S2I and the
exhaustive scan must return *identical* (doc id, score) sequences for
every semantics, alpha and k — ties included, thanks to the shared
doc-id tie-break.  Any admissibility bug in a pruning bound, any missed
candidate in an aggregation algorithm, any stale summary after an
update shows up here.
"""

import random

import pytest

from repro.baselines.irtree import IRTree
from repro.baselines.naive import NaiveScanIndex
from repro.baselines.s2i import S2IIndex
from repro.core.index import I3Index
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import make_documents, results_as_pairs

VOCAB = [f"w{i}" for i in range(18)]


@pytest.fixture(autouse=True)
def _engines(named_engine):
    """Every equivalence assertion must hold under both cell models:
    the whole module is parametrized over engine={tuple,vector} (via the
    shared ``named_engine`` fixture) — the naive oracle pins the answer,
    and the vector model must match it byte for byte wherever the tuple
    reference does."""


def build_all(docs, threshold=3, page_size=64, max_entries=4):
    """All four engines over the same documents, with tiny parameters so
    every split/promotion path is exercised."""
    engines = {
        "naive": NaiveScanIndex(),
        "i3": I3Index(UNIT_SQUARE, page_size=page_size),
        "irtree": IRTree(UNIT_SQUARE, max_entries=max_entries),
        "s2i": S2IIndex(UNIT_SQUARE, threshold=threshold, max_entries=max_entries),
    }
    for doc in docs:
        for engine in engines.values():
            engine.insert_document(doc)
    return engines


def assert_all_equal(engines, query, ranker):
    gold = results_as_pairs(engines["naive"].query(query, ranker))
    for name in ("i3", "irtree", "s2i"):
        got = results_as_pairs(engines[name].query(query, ranker))
        assert got == gold, (
            f"{name} disagrees with the oracle for {query.words} "
            f"{query.semantics} k={query.k} alpha={ranker.alpha}: "
            f"{got[:4]} vs {gold[:4]}"
        )


@pytest.fixture(scope="module")
def engines():
    rng = random.Random(0xBEEF)
    docs = make_documents(250, rng, vocab=VOCAB, min_words=1, max_words=5)
    return build_all(docs)


class TestQueryEquivalence:
    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    @pytest.mark.parametrize("qn", [1, 2, 3, 4])
    def test_varying_query_keywords(self, engines, semantics, qn):
        rng = random.Random(qn * 101 + (semantics is Semantics.AND))
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for _ in range(12):
            words = tuple(rng.sample(VOCAB, qn))
            query = TopKQuery(
                rng.random(), rng.random(), words, k=10, semantics=semantics
            )
            assert_all_equal(engines, query, ranker)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_varying_alpha(self, engines, alpha):
        rng = random.Random(int(alpha * 100))
        ranker = Ranker(UNIT_SQUARE, alpha=alpha)
        for _ in range(8):
            words = tuple(rng.sample(VOCAB, rng.randint(1, 3)))
            semantics = rng.choice([Semantics.AND, Semantics.OR])
            query = TopKQuery(
                rng.random(), rng.random(), words, k=5, semantics=semantics
            )
            assert_all_equal(engines, query, ranker)

    @pytest.mark.parametrize("k", [1, 5, 20, 100, 500])
    def test_varying_k(self, engines, k):
        rng = random.Random(k)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for _ in range(6):
            words = tuple(rng.sample(VOCAB, rng.randint(1, 3)))
            semantics = rng.choice([Semantics.AND, Semantics.OR])
            query = TopKQuery(
                rng.random(), rng.random(), words, k=k, semantics=semantics
            )
            assert_all_equal(engines, query, ranker)

    def test_missing_keyword(self, engines):
        ranker = Ranker(UNIT_SQUARE)
        for semantics in (Semantics.AND, Semantics.OR):
            query = TopKQuery(
                0.5, 0.5, ("nosuchword", "w0"), k=5, semantics=semantics
            )
            assert_all_equal(engines, query, ranker)

    def test_all_keywords_missing(self, engines):
        ranker = Ranker(UNIT_SQUARE)
        for semantics in (Semantics.AND, Semantics.OR):
            query = TopKQuery(0.5, 0.5, ("ghost",), k=5, semantics=semantics)
            assert results_as_pairs(engines["i3"].query(query, ranker)) == []
            assert results_as_pairs(engines["s2i"].query(query, ranker)) == []
            assert results_as_pairs(engines["irtree"].query(query, ranker)) == []

    def test_query_location_outside_space(self, engines):
        # Query points need not lie inside the data space.
        ranker = Ranker(UNIT_SQUARE)
        query = TopKQuery(1.4, -0.3, ("w0", "w1"), k=5, semantics=Semantics.OR)
        assert_all_equal(engines, query, ranker)


class TestEquivalenceUnderChurn:
    def test_after_interleaved_updates(self):
        rng = random.Random(0xCAFE)
        docs = make_documents(150, rng, vocab=VOCAB, min_words=1, max_words=5)
        engines = build_all(docs)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        alive = list(docs)
        next_id = len(docs)
        for round_no in range(6):
            # Delete a random half-dozen, insert a fresh half-dozen.
            for _ in range(6):
                victim = alive.pop(rng.randrange(len(alive)))
                for engine in engines.values():
                    assert engine.delete_document(victim)
            fresh = make_documents(
                6, rng, vocab=VOCAB, min_words=1, max_words=5, start_id=next_id
            )
            next_id += 6
            for doc in fresh:
                for engine in engines.values():
                    engine.insert_document(doc)
            alive.extend(fresh)
            for _ in range(8):
                words = tuple(rng.sample(VOCAB, rng.randint(1, 3)))
                semantics = rng.choice([Semantics.AND, Semantics.OR])
                query = TopKQuery(
                    rng.random(), rng.random(), words, k=7, semantics=semantics
                )
                assert_all_equal(engines, query, ranker)
        engines["i3"].check_invariants()
        engines["irtree"].tree.check_invariants()

    def test_delete_everything_and_requery(self):
        rng = random.Random(3)
        docs = make_documents(60, rng, vocab=VOCAB[:6])
        engines = build_all(docs)
        for doc in docs:
            for engine in engines.values():
                assert engine.delete_document(doc)
        ranker = Ranker(UNIT_SQUARE)
        query = TopKQuery(0.5, 0.5, ("w0", "w1"), k=5)
        for name in ("i3", "irtree", "s2i"):
            assert engines[name].query(query, ranker) == []


class TestLargerPagesEquivalence:
    """Realistic page sizes (128-slot cells, 92-entry nodes) behave the
    same as the stress-tested tiny configurations."""

    def test_default_parameters(self):
        rng = random.Random(0xD00D)
        docs = make_documents(300, rng, vocab=VOCAB, min_words=2, max_words=6)
        engines = {
            "naive": NaiveScanIndex(),
            "i3": I3Index(UNIT_SQUARE),
            "irtree": IRTree(UNIT_SQUARE),
            "s2i": S2IIndex(UNIT_SQUARE),
        }
        for doc in docs:
            for engine in engines.values():
                engine.insert_document(doc)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for trial in range(15):
            words = tuple(rng.sample(VOCAB, rng.randint(1, 4)))
            semantics = rng.choice([Semantics.AND, Semantics.OR])
            query = TopKQuery(
                rng.random(), rng.random(), words, k=10, semantics=semantics
            )
            assert_all_equal(engines, query, ranker)
