"""Unit tests for the aggregated R-tree (S2I's per-keyword structure)."""


import pytest

from repro.model.document import SpatialTuple
from repro.model.scoring import Ranker
from repro.spatial.artree import AggregatedRTree
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.iostats import IOStats
from repro.storage.records import f32


def tup(doc_id, x, y, w):
    return SpatialTuple(doc_id=doc_id, word="w", x=x, y=y, weight=f32(w))


def build(rng, n=120, max_entries=4):
    tree = AggregatedRTree("w", max_entries=max_entries)
    tuples = []
    for i in range(n):
        t = tup(i, rng.random(), rng.random(), rng.uniform(0.05, 1.0))
        tuples.append(t)
        tree.insert(t)
    return tree, tuples


class TestUpdates:
    def test_insert_and_len(self, rng):
        tree, _ = build(rng)
        assert len(tree) == 120
        tree.tree.check_invariants()

    def test_wrong_keyword_rejected(self):
        tree = AggregatedRTree("coffee")
        with pytest.raises(ValueError):
            tree.insert(tup(1, 0.5, 0.5, 0.5))

    def test_delete(self, rng):
        tree, tuples = build(rng)
        assert tree.delete(tuples[0])
        assert not tree.delete(tuples[0])
        assert len(tree) == 119
        tree.tree.check_invariants()

    def test_max_weight_tracks_contents(self, rng):
        tree, tuples = build(rng)
        assert tree.max_weight == pytest.approx(max(t.weight for t in tuples))
        heaviest = max(tuples, key=lambda t: t.weight)
        assert tree.delete(heaviest)
        rest = [t for t in tuples if t.doc_id != heaviest.doc_id]
        assert tree.max_weight == pytest.approx(max(t.weight for t in rest))

    def test_empty_tree_max_weight(self):
        assert AggregatedRTree("w").max_weight == 0.0


class TestIterBest:
    def test_emits_in_decreasing_partial_score(self, rng):
        tree, tuples = build(rng)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        hits = list(tree.iter_best(ranker, 0.3, 0.7))
        scores = [h[0] for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert len(hits) == len(tuples)

    def test_scores_match_definition(self, rng):
        tree, tuples = build(rng, n=40)
        ranker = Ranker(UNIT_SQUARE, alpha=0.4)
        by_doc = {t.doc_id: t for t in tuples}
        for score, doc_id, x, y, weight in tree.iter_best(ranker, 0.5, 0.5):
            t = by_doc[doc_id]
            assert (x, y) == (t.x, t.y)
            assert weight == pytest.approx(t.weight)
            expected = 0.4 * ranker.spatial_proximity(0.5, 0.5, t.x, t.y)
            expected += 0.6 * t.weight
            assert score == pytest.approx(expected)

    def test_prefix_consumption_reads_fewer_nodes(self, rng):
        stats = IOStats()
        tree = AggregatedRTree("w", stats=stats, max_entries=4)
        for i in range(200):
            tree.insert(tup(i, rng.random(), rng.random(), rng.random()))
        ranker = Ranker(UNIT_SQUARE, alpha=1.0)
        stats.reset()
        it = tree.iter_best(ranker, 0.5, 0.5)
        for _ in range(3):
            next(it)
        prefix_reads = stats.reads("s2i.tree")
        for _ in range(150):
            next(it)
        assert stats.reads("s2i.tree") > prefix_reads

    def test_alpha_extremes_change_order(self, rng):
        tree, _ = build(rng)
        spatial_first = next(tree.iter_best(Ranker(UNIT_SQUARE, 1.0), 0.1, 0.1))
        textual_first = next(tree.iter_best(Ranker(UNIT_SQUARE, 0.0), 0.1, 0.1))
        # Pure-spatial emits the nearest tuple; pure-textual the heaviest.
        assert textual_first[4] == pytest.approx(tree.max_weight)
        assert spatial_first[1] != textual_first[1] or spatial_first == textual_first


class TestSizing:
    def test_size_and_nodes(self, rng):
        tree, _ = build(rng)
        assert tree.num_nodes > 1
        assert tree.size_bytes == tree.num_nodes * 4096
