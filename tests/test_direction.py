"""Tests for direction-aware search (the DESKS-style sector constraint)."""

import math
import random

import pytest

from repro.core.index import I3Index
from repro.extensions.direction import DirectionAwareSearcher, Sector
from repro.model.query import Semantics, TopKQuery
from repro.model.results import TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect, UNIT_SQUARE

from tests.helpers import make_documents, results_as_pairs


class TestSectorGeometry:
    def test_contains_basic(self):
        sector = Sector(0.5, 0.5, direction=0.0, width=math.pi / 2)
        assert sector.contains(0.9, 0.5)          # dead ahead (east)
        assert sector.contains(0.9, 0.6)          # within 45 degrees
        assert not sector.contains(0.5, 0.9)      # due north: outside
        assert not sector.contains(0.1, 0.5)      # behind
        assert sector.contains(0.5, 0.5)          # the apex itself

    def test_contains_wraparound(self):
        # Sector pointing west (pi) spans the atan2 discontinuity.
        sector = Sector(0.5, 0.5, direction=math.pi, width=math.pi / 2)
        assert sector.contains(0.1, 0.5)
        assert sector.contains(0.1, 0.55)
        assert not sector.contains(0.9, 0.5)

    def test_full_circle(self):
        sector = Sector(0.5, 0.5, direction=1.0, width=2 * math.pi)
        assert sector.contains(0.0, 0.0)
        assert sector.may_intersect(Rect(0.9, 0.9, 1.0, 1.0))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Sector(0, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Sector(0, 0, 0.0, 7.0)

    def test_apex_inside_rect_intersects(self):
        sector = Sector(0.5, 0.5, direction=0.0, width=0.1)
        assert sector.may_intersect(Rect(0.4, 0.4, 0.6, 0.6))

    def test_rect_behind_is_rejected(self):
        sector = Sector(0.5, 0.5, direction=0.0, width=math.pi / 2)
        assert not sector.may_intersect(Rect(0.0, 0.4, 0.2, 0.6))  # due west
        assert sector.may_intersect(Rect(0.8, 0.4, 1.0, 0.6))      # due east

    def test_may_intersect_is_sound(self):
        """Exhaustive check: whenever some sampled point of a rect lies
        inside the sector, may_intersect must say True."""
        rng = random.Random(77)
        for _ in range(300):
            sector = Sector(
                rng.random(),
                rng.random(),
                direction=rng.uniform(-math.pi, math.pi),
                width=rng.uniform(0.1, 2 * math.pi),
            )
            x1, x2 = sorted((rng.random(), rng.random()))
            y1, y2 = sorted((rng.random(), rng.random()))
            rect = Rect(x1, y1, x2, y2)
            samples = [
                (x1 + (x2 - x1) * i / 7, y1 + (y2 - y1) * j / 7)
                for i in range(8)
                for j in range(8)
            ]
            if any(sector.contains(px, py) for px, py in samples):
                assert sector.may_intersect(rect), (sector, rect)


@pytest.fixture
def loaded(rng):
    index = I3Index(UNIT_SQUARE, page_size=64)
    docs = make_documents(250, rng)
    for doc in docs:
        index.insert_document(doc)
    return index, {d.doc_id: d for d in docs}


class TestDirectionAwareSearch:
    """Runs on the default cell model (the searcher goes through
    ``index.engine_processor()``); the subclass below names each model
    in turn."""

    def sector_oracle(self, store, query, ranker, sector):
        collector = TopKCollector(query.k)
        for doc in store.values():
            if not sector.contains(doc.x, doc.y):
                continue
            score = ranker.score_document(query, doc)
            if score is not None:
                collector.offer(doc.doc_id, score)
        return collector.results()

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_matches_filtered_oracle(self, loaded, rng, semantics):
        index, store = loaded
        searcher = DirectionAwareSearcher(index)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        for _ in range(20):
            query = TopKQuery(
                rng.random(),
                rng.random(),
                tuple(rng.sample(["spicy", "restaurant", "bar"], rng.randint(1, 2))),
                k=8,
                semantics=semantics,
            )
            direction = rng.uniform(-math.pi, math.pi)
            width = rng.uniform(0.3, 2 * math.pi)
            sector = Sector(query.x, query.y, direction, width)
            got = results_as_pairs(searcher.search(query, direction, width, ranker))
            want = results_as_pairs(self.sector_oracle(store, query, ranker, sector))
            assert got == want

    def test_narrow_sector_subsets_full_search(self, loaded):
        index, _ = loaded
        searcher = DirectionAwareSearcher(index)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.5, 0.5, ("restaurant",), k=100)
        unconstrained = {r.doc_id for r in index.query(query, ranker)}
        constrained = {
            r.doc_id
            for r in searcher.search(query, direction=0.0, width=0.5, ranker=ranker)
        }
        assert constrained <= unconstrained
        assert len(constrained) < len(unconstrained)

    def test_sector_prunes_cells(self, loaded):
        index, _ = loaded
        searcher = DirectionAwareSearcher(index)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        query = TopKQuery(0.5, 0.5, ("restaurant",), k=200)
        index.stats.reset()
        searcher.search(query, direction=0.0, width=0.4, ranker=ranker)
        narrow = index.stats.reads()
        index.stats.reset()
        searcher.search(query, direction=0.0, width=2 * math.pi, ranker=ranker)
        full = index.stats.reads()
        assert narrow < full


@pytest.mark.usefixtures("named_engine")
class TestDirectionAwareSearchEachEngine(TestDirectionAwareSearch):
    """The same checks under each engine.  (A subclass, not a
    parametrized base: the base class's test ids are pinned.)"""


def test_vector_filter_matches_tuple_byte_for_byte(loaded, rng):
    """The columnar model's ``spatial_filter`` handling against the
    scalar one: same documents, same score bits."""
    index, _ = loaded
    ranker = Ranker(UNIT_SQUARE, 0.5)
    for i in range(100):
        query = TopKQuery(
            rng.random(),
            rng.random(),
            tuple(rng.sample(["spicy", "restaurant", "bar"], rng.randint(1, 3))),
            k=rng.choice([1, 5, 20]),
            semantics=Semantics.AND if i % 2 else Semantics.OR,
        )
        direction = rng.uniform(-math.pi, math.pi)
        width = rng.uniform(0.3, 2 * math.pi)
        sector = Sector(query.x, query.y, direction, width)
        answers = {}
        for engine in ("tuple", "vector"):
            answers[engine] = [
                (r.doc_id, r.score.hex())
                for r in index.engine_processor(engine).search(
                    query, ranker, spatial_filter=sector
                )
            ]
        assert answers["vector"] == answers["tuple"]
