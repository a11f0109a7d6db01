"""Unit and structural tests for the I3 index's data operations."""


import pytest

from repro.core.index import I3Index
from repro.model.document import SpatialDocument
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import ROOT_CELL
from repro.spatial.quadtree import PointQuadtree
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.storage.records import f32

from tests.helpers import make_documents


def tiny_index(**kwargs):
    """Page size 64 -> capacity 2 tuples, the paper's Figure 2 scale."""
    kwargs.setdefault("page_size", 64)
    return I3Index(UNIT_SQUARE, **kwargs)


def one(doc_id, x, y, weight=0.5):
    """A single-keyword document: one tuple of keyword ``w``."""
    return SpatialDocument(doc_id, x, y, {"w": weight})


class TestBasicInsert:
    def test_new_keyword_goes_to_lookup_non_dense(self):
        idx = tiny_index()
        idx.insert_document(one(1, 0.5, 0.5))
        entry = idx.lookup.get("w")
        assert entry is not None and not entry.dense
        assert entry.target.count == 1
        assert idx.num_tuples == 1

    def test_keyword_becomes_dense_on_overflow(self):
        idx = tiny_index()  # capacity 2
        for i, (x, y) in enumerate([(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)]):
            idx.insert_document(one(i + 1, x, y))
        entry = idx.lookup.get("w")
        assert entry.dense
        assert idx.head.num_nodes == 1
        idx.check_invariants()

    def test_dense_split_redistributes_by_quadrant(self):
        idx = tiny_index()
        locs = [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)]
        for i, (x, y) in enumerate(locs):
            idx.insert_document(one(i + 1, x, y))
        node = idx.head._nodes[idx.lookup.get("w").target]
        counts = [c.count for c in node.children]
        assert sorted(counts) == [0, 1, 1, 1]
        assert node.own.count == 3

    def test_recursive_split_when_colocated_quadrant(self):
        idx = tiny_index()
        # All three tuples in the same quadrant recurse one level deeper.
        for i, (x, y) in enumerate([(0.05, 0.05), (0.30, 0.05), (0.05, 0.40)]):
            idx.insert_document(one(i + 1, x, y))
        assert idx.head.num_nodes >= 1
        idx.check_invariants()

    def test_max_depth_chains_pages_for_identical_points(self):
        idx = tiny_index(max_depth=3)
        for i in range(10):
            idx.insert_document(one(i, 0.5, 0.5))
        idx.check_invariants()
        assert idx.num_tuples == 10

    def test_document_insert_shreds_to_tuples(self):
        idx = tiny_index()
        idx.insert_document(SpatialDocument(1, 0.5, 0.5, {"a": 0.5, "b": 0.7}))
        assert idx.num_tuples == 2
        assert idx.num_documents == 1
        assert "a" in idx.lookup and "b" in idx.lookup

    def test_out_of_space_document_rejected(self):
        idx = tiny_index()
        with pytest.raises(ValueError):
            idx.insert_document(SpatialDocument(1, 1.5, 0.5, {"a": 0.5}))

    @pytest.mark.parametrize("bad", [
        (-1, "w", 0.9, 0.5, 1.0),                # doc_id below 0
        (1 << 64, "w", 0.9, 0.5, 1.0),           # doc_id past u64
        (9, "w", 0.9, 0.5, float("nan")),        # weight
        (9, "w", 0.9, 0.5, -0.5),
        (9, "", 0.9, 0.5, 1.0),                  # empty keyword
        (9, "w", 1.5, 0.5, 1.0),                 # outside the space
        (9, "w", float("nan"), 0.5, 1.0),
    ])
    def test_a_bad_tuple_changes_nothing(self, bad):
        # 128-byte pages hold 4 tuples: a fifth dissolves the full root
        # cell, so a tuple that failed to pack would lose all of "w".
        # The document refuses its own bad fields; the index refuses a
        # location outside its space; either way before a cell moves.
        idx = I3Index(UNIT_SQUARE, page_size=128)
        for i in range(4):
            idx.insert_document(SpatialDocument(i, 0.1 * i + 0.1, 0.5, {"w": 0.5}))
        query = TopKQuery(0.5, 0.5, ("w",), k=10)
        before = (idx.num_tuples, idx.epoch, idx.query(query, Ranker(UNIT_SQUARE)))
        doc_id, word, x, y, weight = bad
        with pytest.raises(ValueError):
            idx.insert_document(SpatialDocument(doc_id, x, y, {word: weight}))
        assert (idx.num_tuples, idx.epoch, idx.query(query, Ranker(UNIT_SQUARE))) == before
        idx.check_invariants()

    def test_weights_quantised_to_f32(self):
        idx = tiny_index()
        idx.insert_document(one(1, 0.5, 0.5, 0.1))
        [record] = idx.data.read_cell(idx.lookup.get("w").target)
        assert record.weight == f32(0.1)


class TestInvariantsUnderLoad:
    @pytest.mark.parametrize("page_size", [64, 128, 256])
    def test_random_inserts(self, rng, page_size):
        idx = I3Index(UNIT_SQUARE, page_size=page_size)
        for doc in make_documents(120, rng):
            idx.insert_document(doc)
        idx.check_invariants()

    def test_non_unit_space(self, rng):
        space = Rect(-180.0, -90.0, 180.0, 90.0)
        idx = I3Index(space, page_size=64)
        docs = make_documents(80, rng, space=space)
        for doc in docs:
            idx.insert_document(doc)
        idx.check_invariants()

    def test_quadtree_oracle_agreement(self, rng):
        """I3's keyword cells for one keyword must match the leaf cells a
        plain point quadtree (same capacity) produces for its locations."""
        idx = tiny_index()
        qt = PointQuadtree(UNIT_SQUARE, capacity=idx.capacity)
        points = [(rng.random(), rng.random()) for _ in range(40)]
        for i, (x, y) in enumerate(points):
            idx.insert_document(one(i, x, y))
            qt.insert(x, y, i)
        got = dict(self._collect_leaf_cells(idx))
        want = {cell: count for cell, count in qt.leaf_cells() if count}
        assert got == want

    @staticmethod
    def _collect_leaf_cells(idx):
        """(cell_id, count) of every non-empty non-dense keyword cell."""
        entry = idx.lookup.get("w")
        if not entry.dense:
            if entry.target.count:
                yield (ROOT_CELL, entry.target.count)
            return

        def walk(node_id, cell_id):
            node = idx.head._nodes[node_id]
            for quadrant, ptr in enumerate(node.child_ptrs):
                child = (cell_id << 2) | quadrant
                if isinstance(ptr, int):
                    yield from walk(ptr, child)
                elif ptr is not None and ptr.count:
                    yield (child, ptr.count)

        yield from walk(entry.target, ROOT_CELL)


class TestDeletion:
    def test_delete_returns_false_for_missing(self):
        idx = tiny_index()
        assert not idx.delete_document(one(1, 0.5, 0.5))
        idx.insert_document(one(1, 0.5, 0.5))
        assert not idx.delete_document(one(2, 0.5, 0.5))
        assert not idx.delete_document(SpatialDocument(1, 0.5, 0.5, {"v": 0.5}))

    def test_deleting_an_absent_document_keeps_the_count(self):
        idx = tiny_index()
        idx.insert_document(SpatialDocument(1, 0.5, 0.5, {"w": 0.5}))
        assert not idx.delete_document(SpatialDocument(99, 0.5, 0.5, {"w": 0.5}))
        assert idx.num_documents == 1
        assert idx.delete_document(SpatialDocument(1, 0.5, 0.5, {"w": 0.5}))
        assert idx.num_documents == 0

    def test_delete_last_tuple_removes_keyword(self):
        idx = tiny_index()
        idx.insert_document(one(1, 0.5, 0.5))
        assert idx.delete_document(one(1, 0.5, 0.5))
        assert "w" not in idx.lookup
        assert idx.num_tuples == 0

    def test_delete_from_dense_updates_summaries(self):
        idx = tiny_index()
        locs = [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)]
        for i, (x, y) in enumerate(locs):
            idx.insert_document(one(i + 1, x, y, 0.1 * (i + 1)))
        assert idx.lookup.get("w").dense
        assert idx.delete_document(one(4, 0.9, 0.9))
        node = idx.head._nodes[idx.lookup.get("w").target]
        assert node.own.count == 3
        assert node.own.max_s == pytest.approx(f32(0.3))
        idx.check_invariants()

    def test_dense_status_sticky_after_deletes(self):
        idx = tiny_index()
        locs = [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)]
        for i, (x, y) in enumerate(locs):
            idx.insert_document(one(i + 1, x, y))
        for i, (x, y) in enumerate(locs):
            assert idx.delete_document(one(i + 1, x, y))
        assert idx.lookup.get("w").dense  # no merge step, like the paper
        idx.check_invariants()

    def test_insert_after_emptying_dense_keyword(self, rng):
        idx = tiny_index()
        docs = make_documents(30, rng, vocab=["w"])
        for d in docs:
            idx.insert_document(d)
        for d in docs:
            assert idx.delete_document(d)
        assert idx.num_tuples == 0
        for d in make_documents(30, rng, vocab=["w"], start_id=100):
            idx.insert_document(d)
        idx.check_invariants()

    def test_update_document_moves_tuples(self):
        idx = tiny_index()
        old = SpatialDocument(1, 0.2, 0.2, {"a": 0.5})
        new = SpatialDocument(1, 0.8, 0.8, {"b": 0.7})
        idx.insert_document(old)
        idx.update_document(old, new)
        assert "a" not in idx.lookup
        assert "b" in idx.lookup
        idx.check_invariants()

    def test_update_must_keep_id(self):
        idx = tiny_index()
        a = SpatialDocument(1, 0.2, 0.2, {"a": 0.5})
        b = SpatialDocument(2, 0.2, 0.2, {"a": 0.5})
        idx.insert_document(a)
        with pytest.raises(ValueError):
            idx.update_document(a, b)

    def test_churn_preserves_invariants(self, rng):
        idx = tiny_index()
        alive = []
        next_id = 0
        for step in range(300):
            if alive and rng.random() < 0.4:
                doc = alive.pop(rng.randrange(len(alive)))
                assert idx.delete_document(doc)
            else:
                doc = make_documents(1, rng, start_id=next_id)[0]
                next_id += 1
                idx.insert_document(doc)
                alive.append(doc)
            if step % 60 == 0:
                idx.check_invariants()
        idx.check_invariants()
        assert idx.num_tuples == sum(len(d.terms) for d in alive)


class TestSizeAccounting:
    def test_breakdown_components(self, rng):
        idx = tiny_index()
        for doc in make_documents(50, rng):
            idx.insert_document(doc)
        breakdown = idx.size_breakdown()
        assert set(breakdown) == {"lookup", "head", "data"}
        assert breakdown["data"] > 0
        assert idx.size_bytes == sum(breakdown.values())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            I3Index(UNIT_SQUARE, eta=0)
        with pytest.raises(ValueError):
            I3Index(UNIT_SQUARE, max_depth=0)
