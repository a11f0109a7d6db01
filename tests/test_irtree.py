"""Unit tests for the IR-tree baseline's structure and accounting."""


import pytest

from repro.baselines.dirtree import DirInsertionPolicy, _cosine
from repro.baselines.irtree import IRTree
from repro.baselines.naive import NaiveScanIndex
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import make_documents, results_as_pairs


def build(docs, max_entries=4, policy=None):
    tree = IRTree(UNIT_SQUARE, max_entries=max_entries, insertion_policy=policy)
    for doc in docs:
        tree.insert_document(doc)
    return tree


class TestPseudoDocuments:
    def test_root_summary_holds_corpus_maxima(self, rng):
        docs = make_documents(60, rng)
        tree = build(docs)
        root = tree._summaries[tree.tree.root_id]
        for word in root:
            expected = max(d.terms.get(word, 0.0) for d in docs)
            assert root[word] == pytest.approx(expected)
        corpus_words = {w for d in docs for w in d.terms}
        assert set(root) == corpus_words

    def test_summaries_consistent_after_splits(self, rng):
        docs = make_documents(120, rng)
        tree = build(docs)
        self._check_node(tree, tree.tree.root_id)

    def _check_node(self, tree, node_id):
        node = tree.tree.pager._objects[node_id]
        summary = tree._summaries[node_id]
        if node.is_leaf:
            expected = {}
            for entry in node.entries:
                for w, v in tree._docs[entry.payload].terms.items():
                    expected[w] = max(expected.get(w, 0.0), v)
        else:
            expected = {}
            for entry in node.entries:
                child = self._check_node(tree, entry.child)
                for w, v in child.items():
                    expected[w] = max(expected.get(w, 0.0), v)
        assert set(summary) >= set(expected)
        for w, v in expected.items():
            assert summary[w] >= v - 1e-9  # summaries never undershoot
        return expected

    def test_duplicate_doc_id_rejected(self, rng):
        [doc] = make_documents(1, rng)
        tree = build([doc])
        with pytest.raises(ValueError):
            tree.insert_document(doc)

    def test_delete_rebuilds_summaries(self, rng):
        docs = make_documents(50, rng)
        tree = build(docs)
        victim = docs[7]
        assert tree.delete_document(victim)
        assert not tree.delete_document(victim)
        root = tree._summaries[tree.tree.root_id]
        for word in root:
            expected = max(
                (d.terms.get(word, 0.0) for d in docs if d.doc_id != victim.doc_id),
                default=0.0,
            )
            assert root[word] == pytest.approx(expected)


class TestQueryBehaviour:
    def test_matches_oracle(self, rng):
        docs = make_documents(150, rng)
        tree = build(docs)
        naive = NaiveScanIndex()
        for d in docs:
            naive.insert_document(d)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for semantics in (Semantics.AND, Semantics.OR):
            q = TopKQuery(0.4, 0.6, ("spicy", "restaurant"), k=8, semantics=semantics)
            assert results_as_pairs(tree.query(q, ranker)) == results_as_pairs(
                naive.query(q, ranker)
            )

    def test_inverted_io_charged_per_node_and_keyword(self, rng):
        docs = make_documents(100, rng)
        tree = build(docs)
        tree.stats.reset()
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        q2 = TopKQuery(0.5, 0.5, ("spicy", "restaurant"), k=5)
        tree.query(q2, ranker)
        two_kw = tree.stats.reads("irtree.inv")
        tree.stats.reset()
        q1 = TopKQuery(0.5, 0.5, ("spicy",), k=5)
        tree.query(q1, ranker)
        one_kw = tree.stats.reads("irtree.inv")
        assert two_kw > one_kw > 0


class TestSizeAccounting:
    def test_breakdown_components(self, rng):
        docs = make_documents(80, rng)
        tree = build(docs)
        breakdown = tree.size_breakdown()
        assert set(breakdown) == {"rtree", "inverted"}
        assert breakdown["inverted"] > 0
        assert breakdown["rtree"] == tree.tree.size_bytes
        assert tree.size_bytes == sum(breakdown.values())

    def test_inverted_file_dominates_rtree(self, rng):
        # The defining IR-tree pathology: per-node vocabulary duplication
        # makes the inverted file the larger component.  Use realistic
        # node capacities (page-derived) so leaves hold ~92 documents and
        # their inverted files span several pages each.
        docs = make_documents(400, rng, min_words=3, max_words=6)
        tree = build(docs, max_entries=None)
        breakdown = tree.size_breakdown()
        assert breakdown["inverted"] > breakdown["rtree"]


class TestDirPolicy:
    def test_cosine(self):
        assert _cosine({"a": 1.0}, {"a": 1.0}) == pytest.approx(1.0)
        assert _cosine({"a": 1.0}, {"b": 1.0}) == 0.0
        assert _cosine({}, {"b": 1.0}) == 0.0
        assert 0 < _cosine({"a": 1.0, "b": 1.0}, {"a": 1.0}) < 1

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            DirInsertionPolicy(beta=1.5)

    def test_dir_tree_still_correct(self, rng):
        docs = make_documents(120, rng)
        dir_tree = build(docs, policy=DirInsertionPolicy(beta=0.5))
        naive = NaiveScanIndex()
        for d in docs:
            naive.insert_document(d)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for semantics in (Semantics.AND, Semantics.OR):
            q = TopKQuery(0.3, 0.3, ("pizza", "bar"), k=6, semantics=semantics)
            assert results_as_pairs(dir_tree.query(q, ranker)) == results_as_pairs(
                naive.query(q, ranker)
            )
        dir_tree.tree.check_invariants()

    def test_dir_policy_clusters_similar_text(self, rng):
        """With beta = 0 (pure textual) same-keyword documents co-locate:
        the subtree chosen for a new doc is the one sharing its terms."""
        docs = []
        # Two topical groups at interleaved random positions.
        for i in range(40):
            word = "alpha" if i % 2 == 0 else "beta"
            docs.append(
                make_documents(1, rng, vocab=[word], start_id=i)[0]
            )
        tree = build(docs, policy=DirInsertionPolicy(beta=0.0))
        tree.tree.check_invariants()
        # Count leaves that are topically pure.
        pure = total = 0
        for node in tree.tree.nodes():
            if node.is_leaf and node.entries:
                total += 1
                words = {
                    w for e in node.entries for w in tree._docs[e.payload].terms
                }
                pure += len(words) == 1
        assert pure / total > 0.5
