"""Property-based tests (hypothesis) on core data structures and the
library's central invariants.

The three load-bearing properties:

1. **storage round-trips** — what goes into a page comes back;
2. **conservative summaries** — signatures never produce false
   negatives, summary bounds never undershoot (pruning stays safe);
3. **oracle equivalence** — for arbitrary document sets and queries,
   I3 returns exactly what the exhaustive scan returns.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.naive import NaiveScanIndex
from repro.core.index import I3Index
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.results import TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.cells import (
    CellGrid,
    ROOT_CELL,
    cell_level,
    cell_path,
    child_cell,
    is_ancestor,
    parent_cell,
)
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.spatial.rtree import RTree
from repro.storage.pager import PageFile
from repro.storage.records import StoredTuple, TupleCodec, f32
from repro.storage.slotted import SlottedFile
from repro.text.signature import Signature

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, exclude_max=True)
weights = st.floats(min_value=0.01, max_value=1.0, allow_nan=False).map(f32)
doc_ids = st.integers(min_value=0, max_value=2**40)
small_words = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def documents(draw, max_id=10_000):
    doc_id = draw(st.integers(min_value=0, max_value=max_id))
    terms = draw(
        st.dictionaries(small_words, weights, min_size=1, max_size=5)
    )
    return SpatialDocument(doc_id, draw(coords), draw(coords), terms)


@st.composite
def corpora(draw, max_docs=40):
    docs = draw(st.lists(documents(), min_size=1, max_size=max_docs))
    unique = {}
    for doc in docs:
        unique[doc.doc_id] = doc
    return list(unique.values())


# ----------------------------------------------------------------------
# Storage round-trips
# ----------------------------------------------------------------------


class TestStorageProperties:
    @given(doc_ids, coords, coords, weights, st.integers(1, 2**31 - 1))
    def test_tuple_codec_roundtrip(self, doc_id, x, y, w, source):
        (image,) = TupleCodec.encode([(doc_id, x, y, w)], source)
        assert TupleCodec.decode(image) == StoredTuple(doc_id, x, y, w, source)

    @given(st.lists(st.binary(min_size=8, max_size=8), min_size=0, max_size=12))
    def test_slotted_file_stores_and_returns_payloads(self, payloads):
        slotted = SlottedFile(PageFile(page_size=32), 8)
        placed = []
        for payload in payloads:
            page = slotted.page_with_free(1)
            slot = slotted.insert(page, payload)
            placed.append((page, slot, payload))
        for page, slot, payload in placed:
            records = dict(slotted.read_records(page))
            assert records[slot] == payload

    @given(
        st.lists(
            st.tuples(st.booleans(), st.binary(min_size=4, max_size=4)),
            max_size=30,
        )
    )
    def test_slotted_insert_delete_sequence_consistent(self, ops):
        slotted = SlottedFile(PageFile(page_size=16), 4)
        live = {}
        for is_insert, payload in ops:
            if is_insert or not live:
                page = slotted.page_with_free(1)
                slot = slotted.insert(page, payload)
                live[(page, slot)] = payload
            else:
                (page, slot), _ = live.popitem()
                slotted.delete(page, slot)
        total = sum(
            len(slotted.read_records(p)) for p in range(slotted.store.num_pages)
        )
        assert total == len(live)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_f32_fixpoint(self, value):
        assert f32(value) == f32(f32(value))


# ----------------------------------------------------------------------
# Signatures: conservative by construction
# ----------------------------------------------------------------------


class TestSignatureProperties:
    @given(st.sets(doc_ids, max_size=50), st.integers(1, 512))
    def test_no_false_negatives(self, ids, eta):
        sig = Signature(eta)
        sig.add_all(ids)
        assert all(sig.might_contain(i) for i in ids)

    @given(st.sets(doc_ids, max_size=30), st.sets(doc_ids, max_size=30))
    def test_intersection_contains_true_intersection(self, a_ids, b_ids):
        a, b = Signature(64), Signature(64)
        a.add_all(a_ids)
        b.add_all(b_ids)
        inter = a.intersect(b)
        for i in a_ids & b_ids:
            assert inter.might_contain(i)

    @given(st.sets(doc_ids, max_size=30), st.sets(doc_ids, max_size=30))
    def test_union_is_superset_of_both(self, a_ids, b_ids):
        a, b = Signature(64), Signature(64)
        a.add_all(a_ids)
        b.add_all(b_ids)
        u = a.union(b)
        assert all(u.might_contain(i) for i in a_ids | b_ids)


# ----------------------------------------------------------------------
# Cell algebra and geometry
# ----------------------------------------------------------------------


class TestCellProperties:
    @given(st.lists(st.integers(0, 3), max_size=12))
    def test_path_roundtrip(self, path):
        cell = ROOT_CELL
        for q in path:
            cell = child_cell(cell, q)
        assert cell_path(cell) == tuple(path)
        assert cell_level(cell) == len(path)
        for _ in path:
            cell = parent_cell(cell)
        assert cell == ROOT_CELL

    @given(coords, coords, st.integers(0, 10))
    def test_cell_at_contains_point(self, x, y, level):
        grid = CellGrid(UNIT_SQUARE)
        cell = grid.cell_at(x, y, level)
        assert grid.rect(cell).contains_point(x, y)
        assert is_ancestor(ROOT_CELL, cell)

    @given(coords, coords, st.integers(1, 8))
    def test_ancestor_rects_nest(self, x, y, level):
        grid = CellGrid(UNIT_SQUARE)
        cell = grid.cell_at(x, y, level)
        while cell != ROOT_CELL:
            parent = parent_cell(cell)
            assert grid.rect(parent).contains_rect(grid.rect(cell))
            cell = parent

    @given(coords, coords, coords, coords, coords, coords)
    def test_min_dist_is_admissible(self, qx, qy, x1, y1, x2, y2):
        rect = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        cx = min(max(qx, rect.min_x), rect.max_x)
        cy = min(max(qy, rect.min_y), rect.max_y)
        # The rectangle point (cx, cy) achieves MINDIST; any contained
        # point is at least that far.
        assert rect.min_dist(qx, qy) <= math.hypot(qx - cx, qy - cy) + 1e-12
        mid = rect.center
        assert rect.min_dist(qx, qy) <= math.hypot(qx - mid[0], qy - mid[1]) + 1e-12


# ----------------------------------------------------------------------
# Top-k collector vs sorted reference
# ----------------------------------------------------------------------


class TestCollectorProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.floats(0, 1, allow_nan=False)),
            max_size=60,
        ),
        st.integers(1, 10),
    )
    def test_matches_sorted_reference(self, offers, k):
        collector = TopKCollector(k)
        best = {}
        for doc_id, score in offers:
            collector.offer(doc_id, score)
            if score > best.get(doc_id, float("-inf")):
                best[doc_id] = score
        expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        got = [(r.doc_id, r.score) for r in collector.results()]
        assert got == expected


# ----------------------------------------------------------------------
# R-tree: arbitrary op sequences keep invariants and query correctness
# ----------------------------------------------------------------------


class TestRTreeProperties:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=60), st.randoms())
    def test_insert_delete_roundtrip(self, points, pyrandom):
        tree = RTree(max_entries=4)
        for i, (x, y) in enumerate(points):
            tree.insert_point(x, y, i)
        tree.check_invariants()
        order = list(range(len(points)))
        pyrandom.shuffle(order)
        keep = set(order[: len(order) // 2])
        for i in order:
            if i not in keep:
                assert tree.delete_point(points[i][0], points[i][1], i)
        tree.check_invariants()
        found = {p for _, p in tree.range_query(Rect(0, 0, 1, 1))}
        assert found == keep


# ----------------------------------------------------------------------
# I3 vs the exhaustive scan, on arbitrary inputs
# ----------------------------------------------------------------------


class TestI3OracleEquivalence:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        corpora(),
        st.lists(small_words, min_size=1, max_size=3, unique=True),
        st.sampled_from([Semantics.AND, Semantics.OR]),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, 8),
        coords,
        coords,
    )
    def test_i3_equals_naive(self, docs, words, semantics, alpha, k, qx, qy):
        index = I3Index(UNIT_SQUARE, page_size=64)
        naive = NaiveScanIndex()
        for doc in docs:
            index.insert_document(doc)
            naive.insert_document(doc)
        ranker = Ranker(UNIT_SQUARE, alpha=alpha)
        query = TopKQuery(qx, qy, tuple(words), k=k, semantics=semantics)
        got = [(r.doc_id, round(r.score, 9)) for r in index.query(query, ranker)]
        want = [(r.doc_id, round(r.score, 9)) for r in naive.query(query, ranker)]
        assert got == want

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        corpora(max_docs=20),
        st.dictionaries(small_words, weights, min_size=1, max_size=5),
        coords,
        coords,
        st.lists(small_words, min_size=1, max_size=3, unique=True),
        st.sampled_from([Semantics.AND, Semantics.OR]),
        st.integers(1, 8),
        coords,
        coords,
    )
    def test_update_equals_delete_then_insert(
        self, docs, new_terms, nx, ny, words, semantics, k, qx, qy
    ):
        # Section 4.5 defines update as delete + insert; the streaming
        # matcher leans on that (an update's WAL record replays as its
        # delete and insert halves), so the two paths must agree on
        # every observable: query results AND the mutation-epoch count.
        if not docs:
            return
        via_update = I3Index(UNIT_SQUARE, page_size=64)
        via_halves = I3Index(UNIT_SQUARE, page_size=64)
        for doc in docs:
            via_update.insert_document(doc)
            via_halves.insert_document(doc)
        old = docs[0]
        new = SpatialDocument(old.doc_id, nx, ny, new_terms)
        via_update.update_document(old, new)
        via_halves.delete_document(old)
        via_halves.insert_document(new)
        assert via_update.epoch == via_halves.epoch
        assert via_update.num_documents == via_halves.num_documents
        assert via_update.num_tuples == via_halves.num_tuples
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        query = TopKQuery(qx, qy, tuple(words), k=k, semantics=semantics)
        got = [(r.doc_id, r.score) for r in via_update.query(query, ranker)]
        want = [(r.doc_id, r.score) for r in via_halves.query(query, ranker)]
        assert got == want

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corpora(max_docs=25), st.randoms())
    def test_i3_invariants_after_random_churn(self, docs, pyrandom):
        index = I3Index(UNIT_SQUARE, page_size=64)
        for doc in docs:
            index.insert_document(doc)
        victims = [d for d in docs if pyrandom.random() < 0.5]
        for doc in victims:
            assert index.delete_document(doc)
        index.check_invariants()
        survivors = [d for d in docs if d not in victims]
        assert index.num_tuples == sum(len(d.terms) for d in survivors)


# ----------------------------------------------------------------------
# Baselines vs the exhaustive scan, on arbitrary inputs
# ----------------------------------------------------------------------


class TestBaselineOracleEquivalence:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        corpora(max_docs=30),
        st.lists(small_words, min_size=1, max_size=3, unique=True),
        st.sampled_from([Semantics.AND, Semantics.OR]),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, 6),
        coords,
        coords,
    )
    def test_s2i_equals_naive(self, docs, words, semantics, alpha, k, qx, qy):
        from repro.baselines.s2i import S2IIndex

        index = S2IIndex(UNIT_SQUARE, threshold=3, max_entries=4)
        naive = NaiveScanIndex()
        for doc in docs:
            index.insert_document(doc)
            naive.insert_document(doc)
        ranker = Ranker(UNIT_SQUARE, alpha=alpha)
        query = TopKQuery(qx, qy, tuple(words), k=k, semantics=semantics)
        got = [(r.doc_id, round(r.score, 9)) for r in index.query(query, ranker)]
        want = [(r.doc_id, round(r.score, 9)) for r in naive.query(query, ranker)]
        assert got == want

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        corpora(max_docs=30),
        st.lists(small_words, min_size=1, max_size=3, unique=True),
        st.sampled_from([Semantics.AND, Semantics.OR]),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, 6),
        coords,
        coords,
    )
    def test_irtree_equals_naive(self, docs, words, semantics, alpha, k, qx, qy):
        from repro.baselines.irtree import IRTree

        index = IRTree(UNIT_SQUARE, max_entries=4)
        naive = NaiveScanIndex()
        for doc in docs:
            index.insert_document(doc)
            naive.insert_document(doc)
        ranker = Ranker(UNIT_SQUARE, alpha=alpha)
        query = TopKQuery(qx, qy, tuple(words), k=k, semantics=semantics)
        got = [(r.doc_id, round(r.score, 9)) for r in index.query(query, ranker)]
        want = [(r.doc_id, round(r.score, 9)) for r in naive.query(query, ranker)]
        assert got == want

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        corpora(max_docs=25),
        st.lists(small_words, min_size=1, max_size=3, unique=True),
        st.sampled_from([Semantics.AND, Semantics.OR]),
        coords,
        coords,
        coords,
        coords,
    )
    def test_range_query_equals_naive(self, docs, words, semantics, x1, y1, x2, y2):
        from repro.spatial.geometry import Rect

        region = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        index = I3Index(UNIT_SQUARE, page_size=64)
        naive = NaiveScanIndex()
        for doc in docs:
            index.insert_document(doc)
            naive.insert_document(doc)
        got = [
            (r.doc_id, round(r.score, 9))
            for r in index.range_query(region, tuple(words), semantics)
        ]
        want = [
            (r.doc_id, round(r.score, 9))
            for r in naive.range_query(region, tuple(words), semantics)
        ]
        assert got == want
