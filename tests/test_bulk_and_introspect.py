"""Tests for bulk loading and structural introspection of I3."""

import hashlib
import math
import random

import pytest

from repro.baselines.naive import NaiveScanIndex
from repro.core.index import I3Index
from repro.core.persistence import save_index
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import DEFAULT_VOCAB, make_documents, results_as_pairs


class TestBulkLoad:
    def test_same_cell_structure_as_incremental(self, rng):
        docs = make_documents(150, rng)
        incremental = I3Index(UNIT_SQUARE, page_size=64)
        for doc in docs:
            incremental.insert_document(doc)
        bulk = I3Index(UNIT_SQUARE, page_size=64)
        bulk.bulk_load(docs)
        bulk.check_invariants()
        assert bulk.num_tuples == incremental.num_tuples
        assert bulk.num_documents == incremental.num_documents
        # The set of (word, dense?) decisions must match exactly.
        inc_state = {w: e.dense for w, e in incremental.lookup.items()}
        blk_state = {w: e.dense for w, e in bulk.lookup.items()}
        assert inc_state == blk_state

    def test_identical_query_results(self, rng):
        docs = make_documents(200, rng)
        bulk = I3Index(UNIT_SQUARE, page_size=64)
        bulk.bulk_load(docs)
        naive = NaiveScanIndex()
        for doc in docs:
            naive.insert_document(doc)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for _ in range(25):
            words = tuple(
                rng.sample(["spicy", "restaurant", "pizza", "bar"], rng.randint(1, 3))
            )
            semantics = rng.choice([Semantics.AND, Semantics.OR])
            query = TopKQuery(rng.random(), rng.random(), words, k=8, semantics=semantics)
            assert results_as_pairs(bulk.query(query, ranker)) == results_as_pairs(
                naive.query(query, ranker)
            )

    def test_cheaper_than_incremental(self, rng):
        docs = make_documents(200, rng)
        incremental = I3Index(UNIT_SQUARE, page_size=128)
        for doc in docs:
            incremental.insert_document(doc)
        bulk = I3Index(UNIT_SQUARE, page_size=128)
        bulk.bulk_load(docs)
        assert bulk.stats.total() < incremental.stats.total()

    def test_updates_after_bulk_load(self, rng):
        docs = make_documents(80, rng)
        index = I3Index(UNIT_SQUARE, page_size=64)
        index.bulk_load(docs)
        extra = make_documents(30, rng, start_id=1000)
        for doc in extra:
            index.insert_document(doc)
        for doc in docs[::2]:
            assert index.delete_document(doc)
        index.check_invariants()

    def test_requires_empty_index(self, rng):
        docs = make_documents(5, rng)
        index = I3Index(UNIT_SQUARE)
        index.insert_document(docs[0])
        with pytest.raises(ValueError):
            index.bulk_load(docs[1:])

    def test_rejects_out_of_space(self):
        index = I3Index(UNIT_SQUARE)
        with pytest.raises(ValueError):
            index.bulk_load([SpatialDocument(1, 2.0, 0.5, {"a": 0.5})])

    def test_refused_load_writes_nothing(self, rng):
        docs = make_documents(20, rng) + [SpatialDocument(99, 0.5, 2.0, {"a": 0.5})]
        index = I3Index(UNIT_SQUARE, page_size=64)
        with pytest.raises(ValueError, match="document 99"):
            index.bulk_load(docs)
        assert (index.num_documents, index.num_tuples, len(index.lookup)) == (0, 0, 0)
        assert index.data.num_pages == 0 and index.head.num_nodes == 0
        assert index.stats.total() == 0

    def test_empty_collection(self):
        index = I3Index(UNIT_SQUARE)
        index.bulk_load([])
        assert index.num_documents == 0
        assert index.num_tuples == 0


class TestDescribe:
    def test_report_fields(self, rng):
        docs = make_documents(150, rng)
        index = I3Index(UNIT_SQUARE, page_size=64)
        for doc in docs:
            index.insert_document(doc)
        report = index.describe()
        assert report.num_documents == 150
        assert report.num_tuples == index.num_tuples
        assert report.num_keywords == len(index.lookup)
        assert report.num_dense_keywords > 0
        assert report.num_summary_nodes == index.head.num_nodes
        assert report.num_keyword_cells > 0
        assert sum(report.depth_histogram.values()) == report.num_keyword_cells
        assert report.max_cell_depth == max(report.depth_histogram)
        assert 0.0 < report.page_utilisation <= 1.0
        assert 0.0 < report.mean_signature_saturation <= 1.0
        assert report.size_breakdown == index.size_breakdown()

    def test_empty_index_report(self):
        report = I3Index(UNIT_SQUARE).describe()
        assert report.num_keyword_cells == 0
        assert report.max_cell_depth == 0
        assert report.mean_signature_saturation == 0.0

    def test_render(self, rng):
        docs = make_documents(50, rng)
        index = I3Index(UNIT_SQUARE, page_size=64)
        for doc in docs:
            index.insert_document(doc)
        text = index.describe().render()
        assert "documents" in text and "keyword cells" in text
        assert "50" in text


# ----------------------------------------------------------------------
# The layout pin
# ----------------------------------------------------------------------


def _mixed_corpus():
    """Frequent keywords (dense, several levels deep at small pages)
    beside rare ones (one non-dense root cell each)."""
    rare = ["rare%d" % i for i in range(30)]
    return make_documents(2000, random.Random(42)) + make_documents(
        500, random.Random(43), vocab=rare, start_id=2000
    )


def _co_located():
    """Documents stacked on two exact points: the cells holding them
    reach the depth limit and chain pages."""
    rng = random.Random(44)
    stacked = [
        SpatialDocument(i, 0.3, 0.3, {"stack": 0.5 + i / 100}) for i in range(30)
    ] + [
        SpatialDocument(30 + i, 0.7, 0.7, {"stack": 0.25, "pile": 0.125 * i})
        for i in range(10)
    ]
    return stacked + make_documents(20, rng, start_id=40)


def _zeros_and_singletons():
    """``-0.0`` weights (a zero that must not become a summary's
    ``max_s``) and keywords that occur in one document only."""
    return [
        SpatialDocument(
            i,
            (i * 0.37) % 1.0,
            (i * 0.61) % 1.0,
            {"zero": -0.0, "half": -0.0 if i % 2 else 0.5, "solo%d" % i: 0.25 + i / 64},
        )
        for i in range(24)
    ]


def _bulk(page_size, docs, **kwargs):
    index = I3Index(UNIT_SQUARE, page_size=page_size, **kwargs)
    index.bulk_load(docs)
    return index


def _incremental(page_size, docs, **kwargs):
    index = I3Index(UNIT_SQUARE, page_size=page_size, **kwargs)
    for doc in docs:
        index.insert_document(doc)
    return index


def _churn():
    """Inserts that overflow root and child cells and relocate cells out
    of shared pages, then deletes and more inserts on the grown tree."""
    vocab = DEFAULT_VOCAB + ["w%d" % i for i in range(6)]
    docs = make_documents(700, random.Random(45), vocab=vocab)
    index = _incremental(128, docs[:500])
    for doc in docs[:500:3]:
        assert index.delete_document(doc)
    for doc in docs[500:]:
        index.insert_document(doc)
    return index


LAYOUTS = {
    "bulk-64": lambda: _bulk(64, _mixed_corpus()),
    "bulk-128": lambda: _bulk(128, _mixed_corpus()),
    "bulk-4096": lambda: _bulk(4096, _mixed_corpus()),
    "co-located-bulk": lambda: _bulk(64, _co_located(), max_depth=4),
    "co-located-inserts": lambda: _incremental(64, _co_located(), max_depth=4),
    "zeros-bulk": lambda: _bulk(64, _zeros_and_singletons()),
    "zeros-inserts": lambda: _incremental(64, _zeros_and_singletons()),
    "churn": _churn,
}

# (sha256 of the save_index bytes, page reads, page writes) per case,
# measured on the tuple-object write path that the row builder replaced.
# This pins the layout: a change that moves a cell, a source id, a
# summary or an I/O updates these figures on purpose.
PINNED_LAYOUTS = {
    'bulk-128': (
        '5588825022496219334dbeed4159d13bb90e6b07efac43d20dee29c92a2b34fa',
        {'i3.data': 3017},
        {'i3.data': 3017, 'i3.head': 1136},
    ),
    'bulk-4096': (
        'dbf13b769119b6d541c4c34a19f916da33cc492b900b79ccd48ca43a6d3424b4',
        {'i3.data': 127},
        {'i3.data': 127, 'i3.head': 29},
    ),
    'bulk-64': (
        '05ca1c09461928348b5241f2600b43319d3a9c8da0e168ae319a2ae3b7dc7179',
        {'i3.data': 4687},
        {'i3.data': 4687, 'i3.head': 2295},
    ),
    'churn': (
        '8d06ac53b59b0cec2f291c06cafc20b1f5434da97eafa0e3c450debea3681a9c',
        {'i3.data': 5471, 'i3.head': 5045},
        {'i3.data': 4147, 'i3.head': 5320},
    ),
    'co-located-bulk': (
        '5a44233073dd71bda1188908b30046ac40945a657daed0b4da6fdef2acdf1c18',
        {'i3.data': 60},
        {'i3.data': 60, 'i3.head': 26},
    ),
    'co-located-inserts': (
        '2042edd5fd6b80dfdb8ca7ae2e746c96b85ecf507bc9d2e954aab5215700ae13',
        {'i3.data': 176, 'i3.head': 191},
        {'i3.data': 146, 'i3.head': 217},
    ),
    'zeros-bulk': (
        '6090138a609662275a6f04e93b9ad89216cb4afe9c810b943411b1ff5dde931e',
        {'i3.data': 72},
        {'i3.data': 72, 'i3.head': 18},
    ),
    'zeros-inserts': (
        '4a48fe13550f36d6ee3ee17fcb12de49f615b80e0dc21d03741e29417c45bf38',
        {'i3.data': 156, 'i3.head': 74},
        {'i3.data': 129, 'i3.head': 92},
    ),
}


def layout_of(index, path):
    io = index.stats.snapshot()
    save_index(index, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest(), io.reads, io.writes


class TestSameBytes:
    @pytest.mark.parametrize("case", sorted(LAYOUTS))
    def test_layout_is_pinned(self, case, tmp_path):
        index = LAYOUTS[case]()
        assert layout_of(index, tmp_path / "pin.i3ix") == PINNED_LAYOUTS[case]
        index.check_invariants()

    def test_the_cases_reach_the_paths_they_pin(self):
        """Dense words at every page size, chained pages at the depth
        limit, a zero ``max_s`` summary and split roots under inserts."""
        for page_size in (64, 128, 4096):
            index = LAYOUTS["bulk-%d" % page_size]()
            dense = {w for w, e in index.lookup.items() if e.dense}
            assert set(DEFAULT_VOCAB) <= dense
            assert ("rare0" in dense) == (page_size < 4096)
        for case in ("co-located-bulk", "co-located-inserts"):
            index = LAYOUTS[case]()
            assert any(
                len(ptr.pages) > 1
                for node in index.head._nodes
                for ptr in node.child_ptrs
                if ptr is not None and not isinstance(ptr, int)
            )
        index = LAYOUTS["zeros-bulk"]()
        zero = index.head._nodes[index.lookup.get("zero").target].own.max_s
        assert math.copysign(1.0, zero) == 1.0  # +0.0: no -0.0 leaked in
        churned = LAYOUTS["churn"]()
        assert any(isinstance(p, int) for n in churned.head._nodes for p in n.child_ptrs)
