"""OR-semantics pruning and the Apriori upper-bound lattice (Section 5.3).

Under OR semantics any document containing a *subset* of the query
keywords is a candidate, so a cell's textual upper bound is the maximum
over all keyword subsets that could co-occur in one document there.  The
paper solves this with the Apriori algorithm (Figure 4): singletons are
the per-keyword maximum scores; a subset is valid only if a common
document id can be found (exactly, via fetched documents' ids, or
approximately, via signature intersection for dense keywords); the bound
is the best total score among valid subsets.

Because signatures only produce false positives, subset validity is
over-approximated and the bound stays admissible; and since a common
document for S is a common document for every subset of S, validity is
downward closed — the property that lets the lattice stop growing a
subset the moment it turns invalid.

The lattice (:func:`witness_max`) and the OR prune and bound
(:class:`OrBound`) are written once, here, for both engines.  An
engine's OR cell model only says how a fetched keyword's documents are
held (``OrBound.held``): the scalar model as :class:`HolderIds`,
the columnar one as its ``WordColumns``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.candidates import AccumulatorCells, Candidate
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import CellGrid

__all__ = ["HolderIds", "OrBound", "OrSemantics", "witness_max"]

# One available query keyword in a cell: (best score, dense signature
# bits, fetched holder) — exactly one of the last two is not None.  A
# holder answers ``sig_bits(eta)`` (bit ``id % eta`` set per id) and
# ``id_set()`` (its ids as a set).
BoundItem = Tuple[float, Optional[int], Optional[object]]


def witness_max(items: Sequence[BoundItem], eta: int) -> float:
    """Section 5.3's lattice bound: the best score sum over the keyword
    subsets some document could carry.

    A subset is valid when some id common to its fetched keywords has a
    bit that survives the AND of its dense keywords' signatures.
    Subsets are enumerated depth-first in item order, each sum
    accumulated left to right, and a subset that turns invalid is not
    grown (downward closure: no superset is valid either).  Validity is
    answered with integers:

    * dense keywords only — the signature AND is non-zero;
    * one fetched keyword — ``holder.sig_bits(eta) & dense bits != 0``:
      a set bit *is* a fetched id that passes every dense signature;
    * two or more fetched keywords — their id sets (``id_set()``, asked
      for once per call) are intersected, and the few common ids are
      tested against the dense bits.
    """
    n = len(items)
    best = 0.0
    fetched_ids: Dict[int, Set[int]] = {}

    def ids_of(j: int) -> Set[int]:
        found = fetched_ids.get(j)
        if found is None:
            found = fetched_ids[j] = items[j][2].id_set()
        return found

    def grow(start: int, score: float, dense, single: int, common) -> None:
        # (dense, single, common): AND of the subset's dense signatures
        # (None: no dense keyword yet), the item index of its only
        # fetched keyword (-1: none), and the ids common to its fetched
        # keywords once there are two or more (None before that).
        nonlocal best
        for j in range(start, n):
            item_score, bits, held = items[j]
            if held is None:
                next_dense = bits if dense is None else dense & bits
                next_single, next_common = single, common
            else:
                next_dense = dense
                if common is not None:
                    next_single, next_common = single, common & ids_of(j)
                elif single >= 0:
                    next_single, next_common = single, ids_of(single) & ids_of(j)
                else:
                    next_single, next_common = j, None
            if next_common is not None:
                valid = bool(next_common) and (
                    next_dense is None
                    or any(next_dense >> (d % eta) & 1 for d in next_common)
                )
            elif next_single >= 0:
                valid = next_dense is None or bool(
                    items[next_single][2].sig_bits(eta) & next_dense
                )
            else:
                valid = bool(next_dense)
            if not valid:
                continue  # downward closure: no superset is valid either
            total = item_score if start == 0 else score + item_score
            if total > best:
                best = total
            if j + 1 < n:
                grow(j + 1, total, next_dense, next_single, next_common)

    grow(0, 0.0, None, -1, None)
    return best


class HolderIds(frozenset):
    """The ids of the accumulated documents holding one fetched keyword:
    how the scalar cell model answers the lattice's two questions."""

    __slots__ = ()

    def id_set(self) -> "HolderIds":
        return self

    def sig_bits(self, eta: int) -> int:
        bits = 0
        for doc_id in self:
            bits |= 1 << doc_id % eta
        return bits


class OrBound:
    """The OR prune and the lattice bound, for either engine's cells.

    A subclass supplies ``eta`` and ``held(candidate, word)``: ``(best
    score, holder)`` for a fetched keyword with tuples in the cell, else
    None.  ``use_lattice =
    False`` replaces the Apriori subset bound with the naive "sum of
    every available keyword's maximum" bound — still admissible but
    looser (it assumes one document could carry all the maxima).  The
    ablation benchmark uses it to quantify what the paper's Section 5.3
    contributes.
    """

    eta: int
    use_lattice = True

    def prune(self, candidate: Candidate, query: TopKQuery) -> bool:
        """A cell is prunable only when it contains no query keyword at
        all: no dense keyword and no fetched document (Section 5.3)."""
        return not candidate.dense and not candidate.docs

    def upper_bound(
        self,
        candidate: Candidate,
        query: TopKQuery,
        ranker: Ranker,
        grid: CellGrid,
    ) -> float:
        """Admissible bound: spatial bound + best valid-subset score."""
        phi_s = ranker.spatial_upper_bound(query.x, query.y, grid.rect(candidate.cell))
        return ranker.combine(phi_s, self.textual_bound(candidate, query))

    def textual_bound(self, candidate: Candidate, query: TopKQuery) -> float:
        """Maximum total keyword score over valid subsets (the lattice)."""
        items: List[BoundItem] = []
        for word in query.words:
            ref = candidate.dense.get(word)
            if ref is not None and ref.info.count > 0:
                items.append((ref.info.max_s, ref.info.sig.bits, None))
            elif word in candidate.fetched:
                found = self.held(candidate, word)
                if found is not None:
                    items.append((found[0], None, found[1]))
        if not items:
            return 0.0
        if not self.use_lattice:
            return sum(score for score, _, _ in items)
        return witness_max(items, self.eta)


class OrSemantics(AccumulatorCells, OrBound):
    """The scalar cell model for disjunctive (OR) top-k queries."""

    def __init__(self, eta: int, use_lattice: bool = True) -> None:
        self.eta = eta
        self.use_lattice = use_lattice

    def held(
        self, candidate: Candidate, word: str
    ) -> Optional[Tuple[float, HolderIds]]:
        """The accumulators holding ``word``: their best weight and ids."""
        holders = {
            doc_id: acc.weights[word]
            for doc_id, acc in candidate.docs.items()
            if word in acc.weights
        }
        if not holders:
            return None
        return max(holders.values()), HolderIds(holders)

    @staticmethod
    def document_qualifies(acc_words, query: TopKQuery) -> bool:
        """Final check at scoring time: at least one keyword matched."""
        return bool(acc_words)
