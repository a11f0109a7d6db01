"""The paper's running example (Figures 1, 2 and 4), end to end.

These tests pin the reproduction to the paper's own worked numbers:
the eight-document database of Figure 1, the keyword-cell decomposition
of Figure 2 (P/B = 2), the AND upper bound of Section 5.2 (1.4 for cell
C4 with "spicy restaurant") and the OR lattice of Figure 4 (best subset
{spicy, restaurant} with textual bound 1.4).
"""

import pytest

from repro.core.and_semantics import AndSemantics
from repro.core.candidates import Candidate, DenseRef, DocAccumulator
from repro.core.headfile import SummaryInfo
from repro.core.index import I3Index
from repro.core.or_semantics import OrSemantics
from repro.baselines.naive import NaiveScanIndex
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import ROOT_CELL, child_cell
from repro.spatial.geometry import UNIT_SQUARE
from repro.text.signature import Signature

from tests.helpers import results_as_pairs


@pytest.fixture
def paper_index(paper_documents):
    """The Figure 1 database in an I3 with P/B = 2 (Figure 2's setting)."""
    idx = I3Index(UNIT_SQUARE, page_size=64, eta=16)
    for doc in paper_documents:
        idx.insert_document(doc)
    return idx


class TestFigure2Decomposition:
    """'restaurant' appears in all 8 documents, so with capacity 2 it must
    be dense in the root; 'spicy' (4 docs) must also split."""

    def test_restaurant_dense_in_root(self, paper_index):
        assert paper_index.lookup.get("restaurant").dense

    def test_restaurant_cell_c4_is_dense(self, paper_index):
        # C4 (our NE quadrant, index 3) holds d4, d7, d8 -> dense at
        # capacity 2, exactly as Figure 2 splits it further.
        node = paper_index.head._nodes[paper_index.lookup.get("restaurant").target]
        ne = node.child_ptrs[3]
        assert isinstance(ne, int), "restaurant must stay dense in C4"
        assert node.children[3].count == 3

    def test_spicy_counts_per_quadrant(self, paper_index):
        # spicy: d3 in SE, d6 in SW, d5 in NW, d4 in NE (1 each).
        node = paper_index.head._nodes[paper_index.lookup.get("spicy").target]
        assert [c.count for c in node.children] == [1, 1, 1, 1]

    def test_invariants(self, paper_index):
        paper_index.check_invariants()


class TestSection52AndUpperBound:
    """Section 5.2's example: examining C4 for "spicy restaurant",
    score.dense = 0.7 (restaurant's max in C4), score.non_dense = 0.7
    (spicy's weight in d4), textual upper bound = 1.4."""

    def test_textual_upper_bound_is_1_4(self, paper_index):
        grid = paper_index.grid
        c4 = child_cell(ROOT_CELL, 3)
        rest_node = paper_index.head._nodes[
            paper_index.lookup.get("restaurant").target
        ]
        dense = {
            "restaurant": DenseRef(
                info=rest_node.children[3], node_id=rest_node.child_ptrs[3]
            )
        }
        # spicy is non-dense in C4: its only tuple there is d4 (0.7).
        docs = {4: DocAccumulator(x=0.6, y=0.7, weights={"spicy": 0.69921875})}
        cand = Candidate(
            cell=c4, dense=dense, docs=docs, fetched=frozenset({"spicy"})
        )
        query = TopKQuery(0.45, 0.45, ("spicy", "restaurant"), semantics=Semantics.AND)
        # alpha = 0 isolates the textual component the paper computes.
        ranker = Ranker(UNIT_SQUARE, alpha=0.0)
        semantics = AndSemantics(paper_index.eta)
        bound = semantics.upper_bound(cand, query, ranker, grid)
        assert bound == pytest.approx(1.4, abs=0.01)


class TestFigure4OrLattice:
    """Figure 4: query "spicy chinese restaurant" in C4; eta = 4 with
    H(id) = id % 4; valid subsets score 0.7 (spicy), 0.1 (chinese),
    0.7 (restaurant), 1.4 (spicy+restaurant), 0.8 (chinese+restaurant);
    the final textual upper bound is 1.4."""

    def make_candidate(self):
        eta = 4
        rest_sig = Signature(eta)
        rest_sig.add_all([4, 7, 8])
        dense = {
            "restaurant": DenseRef(
                info=SummaryInfo(sig=rest_sig, max_s=0.7, count=3), node_id=0
            )
        }
        docs = {
            4: DocAccumulator(x=0.6, y=0.7, weights={"spicy": 0.7}),
            7: DocAccumulator(x=0.9, y=0.6, weights={"chinese": 0.1}),
        }
        return Candidate(
            cell=child_cell(ROOT_CELL, 3),
            dense=dense,
            docs=docs,
            fetched=frozenset({"spicy", "chinese"}),
        )

    def test_textual_bound_matches_figure4(self):
        semantics = OrSemantics(eta=4)
        query = TopKQuery(
            0.5, 0.5, ("spicy", "chinese", "restaurant"), semantics=Semantics.OR
        )
        bound = semantics.textual_bound(self.make_candidate(), query)
        assert bound == pytest.approx(1.4)

    def test_full_triple_is_invalid(self):
        """No document in C4 contains all three keywords, so the full
        subset never contributes (its score 1.5 would otherwise win)."""
        semantics = OrSemantics(eta=4)
        query = TopKQuery(
            0.5, 0.5, ("spicy", "chinese", "restaurant"), semantics=Semantics.OR
        )
        bound = semantics.textual_bound(self.make_candidate(), query)
        assert bound < 1.5


class TestQueryAgainstPaperDatabase:
    """Top-k answers over the Figure 1 database match the exhaustive scan
    for the paper's own query 'spicy chinese restaurant'."""

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_oracle(self, paper_index, paper_documents, semantics, alpha):
        naive = NaiveScanIndex()
        for doc in paper_documents:
            naive.insert_document(doc)
        ranker = Ranker(UNIT_SQUARE, alpha=alpha)
        query = TopKQuery(
            0.45, 0.45, ("spicy", "chinese", "restaurant"), k=3, semantics=semantics
        )
        assert results_as_pairs(paper_index.query(query, ranker)) == results_as_pairs(
            naive.query(query, ranker)
        )

    def test_and_semantics_returns_only_d3(self, paper_index):
        # d3 is the only document containing all three query keywords.
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        query = TopKQuery(
            0.45, 0.45, ("spicy", "chinese", "restaurant"), k=3, semantics=Semantics.AND
        )
        results = paper_index.query(query, ranker)
        assert [r.doc_id for r in results] == [3]

    def test_or_semantics_ranks_textual_heavy_doc_first_at_low_alpha(
        self, paper_index
    ):
        # With alpha ~ 0, d5 (spicy 0.8 + restaurant 0.6 = 1.4) beats all.
        ranker = Ranker(UNIT_SQUARE, alpha=0.0)
        query = TopKQuery(
            0.45, 0.45, ("spicy", "restaurant"), k=1, semantics=Semantics.OR
        )
        [top] = paper_index.query(query, ranker)
        assert top.doc_id == 5
