"""Tests for the query-processing diagnostics (QueryTrace) and the
pruning behaviour they make observable."""

import itertools
import random

import pytest

from repro.core.index import I3Index
from repro.core.query import QueryTrace
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect, UNIT_SQUARE

from tests.helpers import DEFAULT_VOCAB, make_documents


@pytest.fixture
def loaded(rng):
    index = I3Index(UNIT_SQUARE, page_size=64)
    for doc in make_documents(250, rng):
        index.insert_document(doc)
    return index


class TestQueryTrace:
    """Reads the default cell model's trace; the subclass below names
    each model in turn."""

    def test_trace_populated(self, loaded):
        ranker = Ranker(UNIT_SQUARE, 0.5)
        loaded.query(TopKQuery(0.5, 0.5, ("restaurant",), k=5), ranker)
        trace = loaded.engine_processor().last_trace
        assert trace.candidates_popped > 0
        assert trace.docs_scored > 0
        assert trace.candidates_pushed >= trace.candidates_popped - 1

    def test_and_prunes_more_than_or(self, loaded):
        """Conjunctive signatures prune cells the disjunctive search must
        visit: AND must examine no more candidates than OR."""
        ranker = Ranker(UNIT_SQUARE, 0.5)
        words = ("spicy", "chinese", "restaurant")
        loaded.query(
            TopKQuery(0.5, 0.5, words, k=5, semantics=Semantics.AND), ranker
        )
        and_popped = loaded.engine_processor().last_trace.candidates_popped
        loaded.query(
            TopKQuery(0.5, 0.5, words, k=5, semantics=Semantics.OR), ranker
        )
        or_popped = loaded.engine_processor().last_trace.candidates_popped
        assert and_popped <= or_popped

    def test_small_k_prunes_more_than_large_k(self, loaded):
        ranker = Ranker(UNIT_SQUARE, 0.5)
        words = ("spicy", "restaurant")
        loaded.query(TopKQuery(0.5, 0.5, words, k=1), ranker)
        small = loaded.engine_processor().last_trace.candidates_popped
        loaded.query(TopKQuery(0.5, 0.5, words, k=200), ranker)
        large = loaded.engine_processor().last_trace.candidates_popped
        assert small <= large

    def test_missing_keyword_and_query_touches_nothing(self, loaded):
        ranker = Ranker(UNIT_SQUARE, 0.5)
        loaded.stats.reset()
        out = loaded.query(
            TopKQuery(0.5, 0.5, ("ghost", "restaurant"), semantics=Semantics.AND),
            ranker,
        )
        assert out == []
        # The lookup table is in memory; an impossible AND query must not
        # read a single page.
        assert loaded.stats.reads() == 0

    def test_trace_resets_per_query(self, loaded):
        ranker = Ranker(UNIT_SQUARE, 0.5)
        loaded.query(TopKQuery(0.5, 0.5, ("restaurant",), k=50), ranker)
        first = loaded.engine_processor().last_trace
        loaded.query(TopKQuery(0.5, 0.5, ("ghost",), k=5), ranker)
        second = loaded.engine_processor().last_trace
        assert second is not first
        assert second.docs_scored == 0

    def test_streams_and_region_queries_fill_the_trace(self, loaded):
        """All three searches are one walk, so all three leave a trace."""
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.5, 0.5, ("restaurant",), k=1)
        loaded.query(query, ranker)
        topk = loaded.engine_processor().last_trace
        streamed = list(loaded.iter_query(query, ranker))
        stream = loaded.engine_processor().last_trace
        assert stream is not topk
        assert stream.docs_scored == len(streamed) > 0
        assert stream.candidates_popped >= topk.candidates_popped
        region = Rect(0.25, 0.25, 0.75, 0.75)
        hits = loaded.range_query(region, ("restaurant",))
        ranged = loaded.engine_processor().last_trace
        assert ranged is not stream
        assert ranged.docs_scored == len(hits) > 0
        assert ranged.cells_pruned > 0  # the cells outside the region


@pytest.mark.usefixtures("named_engine")
class TestQueryTraceEachEngine(TestQueryTrace):
    """The same checks under each engine.  (A subclass, not a
    parametrized base: the base class's test ids are pinned.)"""


class TestSameWalkAcrossEngines:
    """Both engines run one traversal over the same bounds, so they fill
    the same ``QueryTrace`` counters."""

    def run(self, index, semantics):
        rng = random.Random(14)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        for _ in range(200):
            query = TopKQuery(
                rng.random(),
                rng.random(),
                tuple(rng.sample(DEFAULT_VOCAB, rng.randint(1, 3))),
                k=rng.choice([1, 5, 20]),
                semantics=semantics,
            )
            answers, counters = {}, {}
            for engine in ("tuple", "vector"):
                found = index.query(query, ranker, engine=engine)
                answers[engine] = [(r.doc_id, r.score.hex()) for r in found]
                trace = index.engine_processor(engine).last_trace
                counters[engine] = [
                    getattr(trace, name) for name in QueryTrace.__slots__
                ]
            assert answers["vector"] == answers["tuple"]
            assert counters["vector"] == counters["tuple"]

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_streams_and_regions_are_identical(self, loaded, semantics):
        """``iter_search`` (drained, and a random prefix) and
        ``range_search`` from each engine's processor: same documents,
        same scores bit for bit, on pages small enough to split."""
        rng = random.Random(41)
        ranker = Ranker(UNIT_SQUARE, 0.5)

        def pairs(results):
            return [(r.doc_id, r.score.hex()) for r in results]

        for _ in range(60):
            words = tuple(rng.sample(DEFAULT_VOCAB, rng.randint(1, 3)))
            query = TopKQuery(
                rng.random(), rng.random(), words, k=1, semantics=semantics
            )
            n = rng.randint(1, 30)
            x1, x2 = sorted((rng.random(), rng.random()))
            y1, y2 = sorted((rng.random(), rng.random()))
            region = Rect(x1, y1, x2, y2)
            seen = {}
            for engine in ("tuple", "vector"):
                processor = loaded.engine_processor(engine)
                seen[engine] = (
                    pairs(processor.iter_search(query, ranker)),
                    pairs(itertools.islice(processor.iter_search(query, ranker), n)),
                    pairs(processor.range_search(region, words, semantics)),
                )
            assert seen["vector"] == seen["tuple"]
            stream, prefix, _ = seen["tuple"]
            assert prefix == stream[:n]
            assert stream == pairs(loaded.query(query.with_k(10_000), ranker))

    def test_or_walks_are_identical(self, loaded):
        """The columnar OR bound is the scalar lattice's value bit for
        bit, so every prune/push/pop decision — and so every counter —
        is the same."""
        self.run(loaded, Semantics.OR)

    def test_and_walks_are_identical(self, loaded):
        """The columnar AND prune is Algorithm 5 whole, as the scalar
        one is: the dense signatures' intersection, then the per-document
        ``id mod eta`` filter.  The two models keep the same survivors,
        so every prune/push/pop decision — and so every counter — is
        the same."""
        self.run(loaded, Semantics.AND)
