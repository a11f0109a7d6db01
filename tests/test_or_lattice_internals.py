"""White-box tests for the Apriori lattice internals (Section 5.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.or_semantics import OrSemantics, _Item, _SubsetState
from repro.text.signature import Signature, mod_hash


def sig_of(eta, ids):
    s = Signature(eta, mod_hash(eta))
    s.add_all(ids)
    return s


def item(word, score, doc_ids=None, sig=None):
    return _Item(
        word=word,
        score=score,
        doc_ids=frozenset(doc_ids) if doc_ids is not None else None,
        sig=sig,
    )


class TestSubsetState:
    def test_validity_by_doc_ids(self):
        assert _SubsetState(1.0, frozenset({3}), None).valid
        assert not _SubsetState(1.0, frozenset(), None).valid

    def test_validity_by_signature(self):
        assert _SubsetState(1.0, None, sig_of(8, [1])).valid
        assert not _SubsetState(1.0, None, sig_of(8, [])).valid

    def test_no_evidence_invalid(self):
        assert not _SubsetState(1.0, None, None).valid


class TestMerge:
    def test_doc_sets_intersect(self):
        state = _SubsetState(0.5, frozenset({1, 2, 3}), None)
        merged = OrSemantics._merge(state, item("w", 0.4, doc_ids={2, 3, 9}))
        assert merged.doc_ids == frozenset({2, 3})
        assert merged.score == pytest.approx(0.9)

    def test_signatures_intersect(self):
        state = _SubsetState(0.5, None, sig_of(16, [1, 2]))
        merged = OrSemantics._merge(state, item("w", 0.4, sig=sig_of(16, [2, 5])))
        assert merged.sig.might_contain(2)
        assert not merged.sig.might_contain(1)

    def test_doc_ids_filtered_through_signature(self):
        state = _SubsetState(0.5, frozenset({1, 2}), None)
        merged = OrSemantics._merge(state, item("w", 0.4, sig=sig_of(16, [2])))
        assert merged.doc_ids == frozenset({2})

    def test_signature_false_positive_keeps_doc(self):
        # eta = 1: every doc collides, so the filter keeps everything —
        # conservative, never unsafe.
        state = _SubsetState(0.5, frozenset({1, 2}), None)
        merged = OrSemantics._merge(state, item("w", 0.4, sig=sig_of(1, [7])))
        assert merged.doc_ids == frozenset({1, 2})


class TestAprioriMax:
    def test_empty_items(self):
        assert OrSemantics(16)._apriori_max([]) == 0.0

    def test_single_item(self):
        got = OrSemantics(16)._apriori_max([item("a", 0.7, doc_ids={1})])
        assert got == pytest.approx(0.7)

    def test_pair_merges_only_with_witness(self):
        items = [
            item("a", 0.7, doc_ids={1}),
            item("b", 0.6, doc_ids={2}),
            item("c", 0.5, doc_ids={1}),
        ]
        # {a, c} share doc 1 -> 1.2; {a, b} and {b, c} do not merge.
        got = OrSemantics(16)._apriori_max(items)
        assert got == pytest.approx(1.2)

    def test_downward_closure_blocks_triples(self):
        # All pairs share a witness except {b, c}; the triple {a, b, c}
        # must therefore be rejected even though {a,b} and {a,c} exist.
        items = [
            item("a", 0.5, doc_ids={1, 2}),
            item("b", 0.5, doc_ids={1}),
            item("c", 0.5, doc_ids={2}),
        ]
        got = OrSemantics(16)._apriori_max(items)
        assert got == pytest.approx(1.0)

    def test_full_set_wins_with_common_doc(self):
        items = [
            item("a", 0.5, doc_ids={7, 1}),
            item("b", 0.4, doc_ids={7}),
            item("c", 0.3, doc_ids={7, 9}),
        ]
        got = OrSemantics(16)._apriori_max(items)
        assert got == pytest.approx(1.2)

    def test_invalid_singleton_dropped(self):
        items = [
            item("a", 9.0, doc_ids=set()),  # no carrier: contributes nothing
            item("b", 0.4, doc_ids={1}),
        ]
        got = OrSemantics(16)._apriori_max(items)
        assert got == pytest.approx(0.4)

    def test_lattice_flag_disables_witness_check(self):
        items = [
            item("a", 0.7, doc_ids={1}),
            item("b", 0.6, doc_ids={2}),
        ]
        sem = OrSemantics(16, use_lattice=False)
        # The naive bound just sums every available maximum.
        from repro.core.candidates import Candidate, DocAccumulator
        from repro.model.query import Semantics, TopKQuery
        from repro.spatial.cells import ROOT_CELL

        cand = Candidate(
            cell=ROOT_CELL,
            dense={},
            docs={
                1: DocAccumulator(x=0.1, y=0.1, weights={"a": 0.7}),
                2: DocAccumulator(x=0.9, y=0.9, weights={"b": 0.6}),
            },
            fetched=frozenset({"a", "b"}),
        )
        query = TopKQuery(0.5, 0.5, ("a", "b"), semantics=Semantics.OR)
        assert sem.textual_bound(cand, query) == pytest.approx(1.3)
        assert OrSemantics(16).textual_bound(cand, query) == pytest.approx(0.7)


class TestWitnessForm:
    """The vector engine's bound (``repro.exec.vector.witness_max``) is
    the lattice's value computed with integer ANDs; it must equal
    ``_apriori_max`` bit for bit, or the two engines' traversals part."""

    # Small eta forces signature collisions (false positives); a small
    # id universe forces overlapping id sets.
    _ids = st.frozensets(st.integers(0, 23), min_size=1, max_size=8)
    _scores = st.floats(0.0, 1.0, width=32, allow_subnormal=False)
    _mixes = st.lists(
        st.tuples(st.booleans(), _scores, _ids), min_size=1, max_size=5
    )

    @given(eta=st.integers(1, 9), mix=_mixes, blank=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_equals_apriori_bit_for_bit(self, eta, mix, blank):
        np = pytest.importorskip("numpy")
        from repro.exec.columns import WordColumns
        from repro.exec.vector import witness_max

        scalar, columnar = [], []
        for n, (dense, score, ids) in enumerate(mix):
            if dense:
                # A dense keyword's signature; `blank` also covers the
                # degenerate all-zero signature on the first item.
                sig = sig_of(eta, () if blank and n == 0 else ids)
                scalar.append(item(f"w{n}", score, sig=sig))
                columnar.append((score, sig.bits, None))
            else:
                order = np.array(sorted(ids), dtype=np.uint64)
                blanks = np.zeros(order.size)
                col = WordColumns(
                    order, blanks, blanks, blanks.astype(np.float32)
                )
                scalar.append(item(f"w{n}", score, doc_ids=ids))
                columnar.append((score, None, col))
        expected = OrSemantics(eta)._apriori_max(scalar)
        assert witness_max(columnar, eta).hex() == expected.hex()

    def test_column_signature_is_the_scalar_signature(self):
        np = pytest.importorskip("numpy")
        from repro.exec.columns import WordColumns

        ids = [0, 5, 299, 300, 601, 2**40 + 7]
        blanks = np.zeros(len(ids))
        col = WordColumns(
            np.array(ids, dtype=np.uint64), blanks, blanks,
            blanks.astype(np.float32),
        )
        for eta in (1, 7, 64, 300, 7):  # the cached value follows eta
            assert col.sig_bits(eta) == sig_of(eta, ids).bits
