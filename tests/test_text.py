"""Unit tests for the textual substrate: tokenizer, vocab, tf-idf,
signatures, inverted lists."""


import pytest

from repro.text.inverted import InvertedIndex
from repro.text.signature import Signature
from repro.text.tfidf import TfIdfWeigher
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary


class TestTokenizer:
    def test_lowercase_and_split(self):
        t = Tokenizer()
        assert t.tokenize("Spicy CHINESE Restaurant!") == [
            "spicy",
            "chinese",
            "restaurant",
        ]

    def test_stopwords_removed(self):
        t = Tokenizer()
        assert t.tokenize("the spicy and the noodle") == ["spicy", "noodle"]

    def test_length_filters(self):
        t = Tokenizer(min_length=3, max_length=5)
        assert t.tokenize("go abcde abcdef xy abc") == ["abcde", "abc"]

    def test_keywords_dedupe_preserving_order(self):
        t = Tokenizer()
        assert t.keywords("pizza pizza sushi pizza") == ["pizza", "sushi"]

    def test_numbers_kept(self):
        t = Tokenizer()
        assert "42nd" in t.tokenize("42nd street")

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            Tokenizer(min_length=0)
        with pytest.raises(ValueError):
            Tokenizer(min_length=5, max_length=3)


class TestVocabulary:
    def test_ids_dense_and_stable(self):
        v = Vocabulary()
        a = v.word_id("alpha")
        b = v.word_id("beta")
        assert (a, b) == (0, 1)
        assert v.word_id("alpha") == 0
        assert v.word(1) == "beta"
        assert len(v) == 2

    def test_document_frequency(self):
        v = Vocabulary()
        v.add_document(["a", "b", "a"])  # duplicates count once
        v.add_document(["b", "c"])
        assert v.doc_frequency("a") == 1
        assert v.doc_frequency("b") == 2
        assert v.doc_frequency("missing") == 0
        assert v.num_documents == 2

    def test_remove_document(self):
        v = Vocabulary()
        v.add_document(["a", "b"])
        v.add_document(["a"])
        v.remove_document(["a", "b"])
        assert v.doc_frequency("a") == 1
        assert v.doc_frequency("b") == 0
        assert v.num_documents == 1
        with pytest.raises(ValueError):
            v.remove_document(["b"])

    def test_most_frequent(self):
        v = Vocabulary()
        for words in (["a", "b"], ["a"], ["a", "c"]):
            v.add_document(words)
        assert v.most_frequent(2)[0] == ("a", 3)


class TestTfIdf:
    def make(self):
        v = Vocabulary()
        v.add_document(["rare", "common"])
        v.add_document(["common"])
        v.add_document(["common"])
        return TfIdfWeigher(v)

    def test_idf_orders_by_rarity(self):
        w = self.make()
        assert w.idf("rare") > w.idf("common")

    def test_tf_sublinear(self):
        w = self.make()
        assert w.tf(1) == 1.0
        assert w.tf(10) < 10 * w.tf(1)
        with pytest.raises(ValueError):
            w.tf(0)

    def test_weights_normalised_to_unit_max(self):
        w = self.make()
        weights = w.weigh(["rare", "common", "common"])
        assert max(weights.values()) == pytest.approx(1.0)
        assert all(0.0 < x <= 1.0 for x in weights.values())

    def test_rare_word_outweighs_common_at_equal_tf(self):
        w = self.make()
        weights = w.weigh(["rare", "common"])
        assert weights["rare"] > weights["common"]

    def test_empty_tokens(self):
        assert self.make().weigh([]) == {}


class TestSignature:
    def test_add_and_might_contain(self):
        s = Signature(16)
        s.add(5)
        assert s.might_contain(5)
        assert s.might_contain(21)  # collision: 21 % 16 == 5
        assert not s.might_contain(6)

    def test_no_false_negatives(self):
        s = Signature(32)
        ids = [3, 100, 255, 31, 64]
        s.add_all(ids)
        assert all(s.might_contain(i) for i in ids)

    def test_intersection_prunes_disjoint_sets(self):
        a = Signature(64)
        b = Signature(64)
        a.add(1)
        b.add(2)
        assert a.intersect(b).is_zero

    def test_intersection_keeps_shared(self):
        a = Signature(64)
        b = Signature(64)
        a.add_all([1, 9])
        b.add_all([9, 40])
        inter = a.intersect(b)
        assert inter.might_contain(9)
        assert not inter.is_zero

    def test_union(self):
        a = Signature(64)
        b = Signature(64)
        a.add(1)
        b.add(2)
        u = a.union(b)
        assert u.might_contain(1) and u.might_contain(2)

    def test_full_is_identity_for_intersection(self):
        s = Signature(32)
        s.add_all([4, 19])
        assert Signature.full(32).intersect(s) == s

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Signature(16).intersect(Signature(32))

    def test_copy_independent(self):
        s = Signature(16)
        s.add(1)
        c = s.copy()
        c.add(2)
        assert not s.might_contain(2)

    def test_size_and_saturation(self):
        s = Signature(300)
        assert s.size_bytes == 38
        s.add_all(range(30))
        assert s.bit_count == 30
        assert s.saturation == pytest.approx(0.1)

    def test_paper_example_hash(self):
        # Section 5.3's example: eta = 4, H(id) = id % 4; "restaurant" in
        # C4 contains {d4, d7, d8} -> signature 1001 (bits 0 and 3).
        s = Signature(4)
        s.add_all([4, 7, 8])
        assert s.might_contain(4) and s.might_contain(8)  # bit 0
        assert s.might_contain(7)  # bit 3
        assert not s.might_contain(1)  # bit 1 unset
        assert not s.might_contain(2)  # bit 2 unset
        assert s.bit_count == 2

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            Signature(0)


class TestInvertedIndex:
    def test_postings_sorted_by_weight_desc(self):
        inv = InvertedIndex()
        inv.add("w", 1, 0.3)
        inv.add("w", 2, 0.9)
        inv.add("w", 3, 0.6)
        assert inv.postings("w") == [(0.9, 2), (0.6, 3), (0.3, 1)]

    def test_ties_ordered_by_doc_id(self):
        inv = InvertedIndex()
        inv.add("w", 5, 0.5)
        inv.add("w", 1, 0.5)
        inv.add("w", 3, 0.5)
        assert inv.postings("w") == [(0.5, 1), (0.5, 3), (0.5, 5)]

    def test_max_weight_and_df(self):
        inv = InvertedIndex()
        inv.add("w", 1, 0.3)
        inv.add("w", 2, 0.8)
        assert inv.max_weight("w") == 0.8
        assert inv.max_weight("absent") == 0.0
        assert inv.document_frequency("w") == 2

    def test_remove(self):
        inv = InvertedIndex()
        inv.add("w", 1, 0.3)
        inv.add("w", 2, 0.8)
        assert inv.remove("w", 1)
        assert not inv.remove("w", 1)
        assert inv.postings("w") == [(0.8, 2)]
        assert inv.remove("w", 2)
        assert "w" not in inv
        assert not inv.remove("absent", 1)

    def test_total_postings(self):
        inv = InvertedIndex()
        inv.add("a", 1, 0.1)
        inv.add("b", 1, 0.2)
        inv.add("b", 2, 0.3)
        assert inv.total_postings == 3
        assert sorted(inv.words()) == ["a", "b"]
