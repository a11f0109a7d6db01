"""White-box tests for the Section 5.3 lattice and its two feeders.

``witness_max`` is the one lattice; the scalar cell model feeds it the
ids of its accumulators (:class:`HolderIds`), the columnar one its
``WordColumns``.  The property tests hold both feeders to a brute-force
reference written here, by ``float.hex()``.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidates import Candidate, DenseRef, DocAccumulator
from repro.core.headfile import SummaryInfo
from repro.core.or_semantics import HolderIds, OrSemantics, witness_max
from repro.model.query import Semantics, TopKQuery
from repro.spatial.cells import ROOT_CELL
from repro.text.signature import Signature


def sig_of(eta, ids):
    s = Signature(eta)
    s.add_all(ids)
    return s


def fetched(score, ids):
    return (score, None, HolderIds(ids))


def dense(score, sig):
    return (score, sig.bits, None)


class TestAprioriMax:
    def test_empty_items(self):
        assert witness_max([], 16) == 0.0

    def test_single_item(self):
        got = witness_max([fetched(0.7, {1})], 16)
        assert got == pytest.approx(0.7)

    def test_pair_merges_only_with_witness(self):
        items = [
            fetched(0.7, {1}),
            fetched(0.6, {2}),
            fetched(0.5, {1}),
        ]
        # {a, c} share doc 1 -> 1.2; {a, b} and {b, c} do not merge.
        got = witness_max(items, 16)
        assert got == pytest.approx(1.2)

    def test_downward_closure_blocks_triples(self):
        # All pairs share a witness except {b, c}; the triple {a, b, c}
        # must therefore be rejected even though {a,b} and {a,c} exist.
        items = [
            fetched(0.5, {1, 2}),
            fetched(0.5, {1}),
            fetched(0.5, {2}),
        ]
        got = witness_max(items, 16)
        assert got == pytest.approx(1.0)

    def test_full_set_wins_with_common_doc(self):
        items = [
            fetched(0.5, {7, 1}),
            fetched(0.4, {7}),
            fetched(0.3, {7, 9}),
        ]
        got = witness_max(items, 16)
        assert got == pytest.approx(1.2)

    def test_invalid_singleton_dropped(self):
        items = [
            dense(9.0, sig_of(16, [])),  # no carrier: contributes nothing
            fetched(0.4, {1}),
        ]
        got = witness_max(items, 16)
        assert got == pytest.approx(0.4)

    @pytest.mark.parametrize("eta, items, expected", [
        # Fetched ids intersect: a and b share docs 2 and 3.
        (16, [fetched(0.5, {1, 2, 3}), fetched(0.4, {2, 3, 9})], 0.9),
        # Dense signatures intersect (bit 2) — and do not (bits 1, 5).
        (16, [dense(0.5, sig_of(16, [1, 2])), dense(0.4, sig_of(16, [2, 5]))], 0.9),
        (16, [dense(0.5, sig_of(16, [1])), dense(0.4, sig_of(16, [5]))], 0.5),
        # Ids are filtered through dense signatures: {a, c} has doc 2;
        # {a, b} has only doc 1, which bit 2 rules out of {a, b, c}.
        (16, [fetched(0.5, {1, 2}), fetched(0.25, {1, 3}),
              dense(0.4, sig_of(16, [2]))], 0.9),
        # eta = 1: every doc collides, so a signature false positive
        # keeps the doc — conservative, never unsafe.
        (1, [fetched(0.5, {1, 2}), dense(0.4, sig_of(1, [7]))], 0.9),
    ])
    def test_evidence_merges(self, eta, items, expected):
        assert witness_max(items, eta) == pytest.approx(expected)

    def test_lattice_flag_disables_witness_check(self):
        sem = OrSemantics(16, use_lattice=False)
        # The naive bound just sums every available maximum.
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


def brute_force(mix, eta):
    """The best left-to-right score sum over every keyword subset for
    which an explicit witness document exists: an id held by each of
    the subset's fetched keywords whose bit is set in each of its dense
    keywords' signatures.  No downward closure is assumed."""
    # Ids are < 24 and eta <= 9, so every id and every signature bit
    # has a witness candidate below 24.
    universe = range(24)
    carries = []
    for is_dense, _score, ids, sig in mix:
        if is_dense:
            carries.append(lambda d, bits=sig.bits: bits >> d % eta & 1)
        else:
            carries.append(lambda d, ids=ids: d in ids)
    best = 0.0
    for size in range(1, len(mix) + 1):
        for subset in combinations(range(len(mix)), size):
            if not any(all(carries[j](d) for j in subset) for d in universe):
                continue
            total = mix[subset[0]][1]
            for j in subset[1:]:
                total += mix[j][1]
            best = max(best, total)
    return best


def words_and_query(mix):
    words = tuple(f"w{n}" for n in range(len(mix)))
    return words, TopKQuery(0.5, 0.5, words, semantics=Semantics.OR)


def dense_refs(mix, words):
    return {
        word: DenseRef(SummaryInfo(sig, score, len(ids)), node_id=0)
        for word, (is_dense, score, ids, sig) in zip(words, mix)
        if is_dense
    }


class TestWitnessForm:
    """Both feeders equal the brute-force lattice bit for bit, or the
    two engines' traversals part."""

    # Small eta forces signature collisions (false positives); a small
    # id universe forces overlapping id sets.
    _ids = st.frozensets(st.integers(0, 23), min_size=1, max_size=8)
    _scores = st.floats(0.0, 1.0, width=32, allow_subnormal=False)
    _mixes = st.lists(
        st.tuples(st.booleans(), _scores, _ids), min_size=1, max_size=5
    )

    @staticmethod
    def specs(eta, mix, blank):
        # `blank` also covers the degenerate all-zero dense signature
        # on the first item.
        return [
            (is_dense, score, ids,
             sig_of(eta, () if blank and n == 0 else ids) if is_dense else None)
            for n, (is_dense, score, ids) in enumerate(mix)
        ]

    @given(eta=st.integers(1, 9), mix=_mixes, blank=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_tuple_feeder_equals_apriori_bit_for_bit(self, eta, mix, blank):
        mix = self.specs(eta, mix, blank)
        words, query = words_and_query(mix)
        docs = {}
        for word, (is_dense, score, ids, _sig) in zip(words, mix):
            if not is_dense:
                for doc_id in ids:
                    acc = docs.setdefault(doc_id, DocAccumulator(0.5, 0.5))
                    acc.absorb(word, score)
        cand = Candidate(
            cell=ROOT_CELL,
            dense=dense_refs(mix, words),
            docs=docs,
            fetched=frozenset(w for w, spec in zip(words, mix) if not spec[0]),
        )
        got = OrSemantics(eta).textual_bound(cand, query)
        assert got.hex() == brute_force(mix, eta).hex()

    @given(eta=st.integers(1, 9), mix=_mixes, blank=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_equals_apriori_bit_for_bit(self, eta, mix, blank):
        from repro.exec.columns import WordColumns
        from repro.exec.vector import ColumnOr

        mix = self.specs(eta, mix, blank)
        words, query = words_and_query(mix)
        columns = {}
        for word, (is_dense, score, ids, _sig) in zip(words, mix):
            if not is_dense:
                order = np.array(sorted(ids), dtype=np.uint64)
                blanks = np.zeros(order.size)
                columns[word] = WordColumns(
                    order, blanks, blanks, np.full(order.size, score, np.float32)
                )
        cand = Candidate(
            cell=ROOT_CELL,
            dense=dense_refs(mix, words),
            docs=columns,
            fetched=frozenset(columns),
        )
        got = ColumnOr(eta).textual_bound(cand, query)
        assert got.hex() == brute_force(mix, eta).hex()

    def test_holder_signature_is_the_scalar_signature(self):
        ids = [0, 5, 299, 300, 601, 2**40 + 7]
        for eta in (1, 7, 64, 300):
            assert HolderIds(ids).sig_bits(eta) == sig_of(eta, ids).bits

    def test_column_signature_is_the_scalar_signature(self):
        from repro.exec.columns import WordColumns

        ids = [0, 5, 299, 300, 601, 2**40 + 7]
        blanks = np.zeros(len(ids))
        col = WordColumns(
            np.array(ids, dtype=np.uint64), blanks, blanks,
            blanks.astype(np.float32),
        )
        for eta in (1, 7, 64, 300, 7):  # the cached value follows eta
            assert col.sig_bits(eta) == sig_of(eta, ids).bits
        assert col.id_set() == set(ids)
