"""OR-semantics pruning and the Apriori upper-bound lattice (Section 5.3).

Under OR semantics any document containing a *subset* of the query
keywords is a candidate, so a cell's textual upper bound is the maximum
over all keyword subsets that could co-occur in one document there.  The
paper solves this with the Apriori algorithm (Figure 4): singletons are
the per-keyword maximum scores; two subsets merge only if a common
document id can be found (exactly, via fetched documents' id sets, or
approximately, via signature intersection for dense keywords); the bound
is the best total score among valid subsets.

Because signatures only produce false positives, subset validity is
over-approximated and the bound stays admissible; and since a common
document for S is a common document for every subset of S, validity is
downward closed — the property Apriori's level-wise generation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.candidates import AccumulatorCells, Candidate
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import CellGrid
from repro.text.signature import Signature

__all__ = ["OrSemantics"]


@dataclass(frozen=True, slots=True)
class _Item:
    """One available query keyword in the cell: its best score plus the
    evidence of *which* documents may carry it."""

    word: str
    score: float
    doc_ids: Optional[FrozenSet[int]]  # exact ids (fetched keywords)
    sig: Optional[Signature]           # signature (dense keywords)


@dataclass(frozen=True, slots=True)
class _SubsetState:
    """Merged evidence for a keyword subset.

    ``doc_ids`` (when known) is already filtered through ``sig``, so the
    subset is valid iff ``doc_ids`` is non-empty — or, with no exact ids
    at all, iff the signature intersection is non-zero.
    """

    score: float
    doc_ids: Optional[FrozenSet[int]]
    sig: Optional[Signature]

    @property
    def valid(self) -> bool:
        if self.doc_ids is not None:
            return bool(self.doc_ids)
        return self.sig is not None and not self.sig.is_zero


class OrSemantics(AccumulatorCells):
    """The scalar cell model for disjunctive (OR) top-k queries.

    ``use_lattice = False`` replaces the Apriori subset bound with the
    naive "sum of every available keyword's maximum" bound — still
    admissible but looser (it assumes one document could carry all the
    maxima).  The ablation benchmark uses it to quantify what the
    paper's Section 5.3 contributes.
    """

    def __init__(self, eta: int, use_lattice: bool = True) -> None:
        self.eta = eta
        self.use_lattice = use_lattice

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
        items = self._items(candidate, query)
        if not items:
            return 0.0
        if not self.use_lattice:
            return sum(item.score for item in items)
        return self._apriori_max(items)

    # ------------------------------------------------------------------
    # Lattice construction
    # ------------------------------------------------------------------
    def _items(self, candidate: Candidate, query: TopKQuery) -> List[_Item]:
        items: List[_Item] = []
        for word in query.words:
            ref = candidate.dense.get(word)
            if ref is not None and ref.info.count > 0:
                items.append(
                    _Item(word=word, score=ref.info.max_s, doc_ids=None, sig=ref.info.sig)
                )
                continue
            if word in candidate.fetched:
                holders = {
                    doc_id: acc.weights[word]
                    for doc_id, acc in candidate.docs.items()
                    if word in acc.weights
                }
                if holders:
                    items.append(
                        _Item(
                            word=word,
                            score=max(holders.values()),
                            doc_ids=frozenset(holders),
                            sig=None,
                        )
                    )
        return items

    def _apriori_max(self, items: List[_Item]) -> float:
        """Level-wise subset expansion; returns the best valid score."""
        level: Dict[Tuple[int, ...], _SubsetState] = {}
        best = 0.0
        for i, item in enumerate(items):
            state = _SubsetState(score=item.score, doc_ids=item.doc_ids, sig=item.sig)
            if state.valid:
                level[(i,)] = state
                best = max(best, state.score)
        while len(level) > 1:
            next_level: Dict[Tuple[int, ...], _SubsetState] = {}
            keys = sorted(level)
            for a, b in combinations(keys, 2):
                if a[:-1] != b[:-1] or a[-1] >= b[-1]:
                    continue
                subset = a + (b[-1],)
                # Downward closure: every (len-1)-subset must be valid.
                if any(
                    subset[:i] + subset[i + 1 :] not in level
                    for i in range(len(subset) - 2)
                ):
                    continue
                merged = self._merge(level[a], items[b[-1]])
                if merged.valid:
                    next_level[subset] = merged
                    best = max(best, merged.score)
            level = next_level
        return best

    @staticmethod
    def _merge(state: _SubsetState, item: _Item) -> _SubsetState:
        score = state.score + item.score
        if state.doc_ids is not None and item.doc_ids is not None:
            doc_ids: Optional[FrozenSet[int]] = state.doc_ids & item.doc_ids
        else:
            doc_ids = state.doc_ids if state.doc_ids is not None else item.doc_ids
        if state.sig is not None and item.sig is not None:
            sig: Optional[Signature] = state.sig.intersect(item.sig)
        else:
            sig = state.sig if state.sig is not None else item.sig
        if doc_ids is not None and sig is not None:
            doc_ids = frozenset(d for d in doc_ids if sig.might_contain(d))
        return _SubsetState(score=score, doc_ids=doc_ids, sig=sig)

    @staticmethod
    def document_qualifies(acc_words, query: TopKQuery) -> bool:
        """Final check at scoring time: at least one keyword matched."""
        return bool(acc_words)
