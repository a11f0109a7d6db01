"""AND-semantics pruning and upper bounds (paper Algorithms 5 and 6).

Under AND semantics a result must contain *every* query keyword, which
yields two powerful prunes on a candidate cell:

* **signature intersection** — intersecting the signatures of all dense
  query keywords in the cell; an empty intersection proves no document
  there carries all of them (Algorithm 5, lines 1-6);
* **document filtering** — a document accumulated from fetched keywords
  is dead if it misses any already-fetched query keyword (those tuples
  will never appear again deeper down) or if its id is absent from the
  dense-keyword signature intersection (lines 7-12).

The upper bound (Algorithm 6) adds the cell's spatial proximity bound to
the sum of the dense keywords' ``max_s`` plus the best fetched weight
sum among surviving documents.
"""

from __future__ import annotations

from typing import Optional

from repro.core.candidates import AccumulatorCells, Candidate
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import CellGrid
from repro.text.signature import Signature

__all__ = ["AndSemantics"]


class AndSemantics(AccumulatorCells):
    """The scalar cell model for conjunctive (AND) top-k queries."""

    def __init__(self, eta: int) -> None:
        self.eta = eta

    def prune(self, candidate: Candidate, query: TopKQuery) -> bool:
        """Whether the candidate cell provably contains no result
        (Algorithm 5, strengthened by the fetched-keyword check)."""
        # Every query keyword must be present in the cell, either dense
        # or already fetched; a keyword absent from the cell kills it.
        for word in query.words:
            if word not in candidate.dense and word not in candidate.fetched:
                return True
        intersection = self._dense_intersection(candidate)
        if intersection is not None and intersection.is_zero:
            return True
        if candidate.fetched:
            required = set(candidate.fetched)
            survivors = {
                doc_id: acc
                for doc_id, acc in candidate.docs.items()
                if required <= acc.words
                and (intersection is None or intersection.might_contain(doc_id))
            }
            candidate.docs = survivors
            if not survivors:
                return True
        return False

    def _dense_intersection(self, candidate: Candidate) -> Optional[Signature]:
        if not candidate.dense:
            return None
        out = Signature.full(self.eta)
        for ref in candidate.dense.values():
            out = out.intersect(ref.info.sig)
        return out

    def upper_bound(
        self,
        candidate: Candidate,
        query: TopKQuery,
        ranker: Ranker,
        grid: CellGrid,
    ) -> float:
        """Admissible score upper bound for the cell (Algorithm 6)."""
        phi_s = ranker.spatial_upper_bound(query.x, query.y, grid.rect(candidate.cell))
        dense_part = sum(ref.info.max_s for ref in candidate.dense.values())
        fetched_part = max(
            (acc.weight_sum for acc in candidate.docs.values()), default=0.0
        )
        return ranker.combine(phi_s, dense_part + fetched_part)

    def document_qualifies(self, acc_words, query: TopKQuery) -> bool:
        """Final check at scoring time: all query keywords matched."""
        return set(query.words) <= acc_words
