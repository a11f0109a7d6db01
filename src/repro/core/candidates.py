"""Candidate cells and per-document accumulators for I3 query processing.

Algorithm 4 maintains, per candidate search cell,

    C = <C.cell, C.denseKwds, C.docs, C.upperScore>

plus (in this implementation) the set of query keywords already fetched
on the path from the root — needed to decide, under AND semantics,
whether a partially-matched document can still be completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.headfile import SummaryInfo, SummaryNode

__all__ = ["DocAccumulator", "DenseRef", "Candidate", "AccumulatorCells"]


@dataclass(slots=True)
class DocAccumulator:
    """Partial knowledge about one document within a candidate cell.

    Grows as the query keywords that are non-dense along the cell's root
    path get fetched: ``weights`` maps each matched query keyword to its
    term weight in this document.
    """

    x: float
    y: float
    weights: Dict[str, float] = field(default_factory=dict)

    @property
    def words(self) -> Set[str]:
        """The matched query keywords."""
        return set(self.weights)

    @property
    def weight_sum(self) -> float:
        """Sum of matched term weights — the document's phi_t so far."""
        return sum(self.weights.values())

    def absorb(self, word: str, weight: float) -> None:
        """Fold in one fetched tuple of this document."""
        self.weights.setdefault(word, weight)

    def copy(self) -> "DocAccumulator":
        """Independent copy, used when a candidate splits into children."""
        return DocAccumulator(x=self.x, y=self.y, weights=dict(self.weights))


@dataclass(slots=True)
class DenseRef:
    """A query keyword that is dense in the candidate's cell.

    ``info`` is the keyword cell's summary E (available from the parent
    summary node without reading the child); ``node_id`` locates the
    child's own summary node, read lazily — only when the candidate is
    actually expanded — so pruned candidates cost no head-file I/O.
    """

    info: SummaryInfo
    node_id: int
    node: Optional[SummaryNode] = None


@dataclass(slots=True)
class Candidate:
    """One candidate search cell of the best-first traversal.

    ``docs`` holds the tuples fetched on the path from the root, in the
    representation of the engine's cell model (see
    :class:`repro.core.query.BestFirstProcessor`), which alone looks
    inside: doc id -> :class:`DocAccumulator` in the scalar model
    (:class:`AccumulatorCells`), keyword -> ``WordColumns`` in the
    columnar one.
    """

    cell: int
    dense: Dict[str, DenseRef]
    docs: dict
    fetched: FrozenSet[str]
    upper_score: float = 0.0

    @property
    def is_resolved(self) -> bool:
        """Whether no query keyword is dense here — every relevant tuple
        has been fetched, so the documents can be finally scored."""
        return not self.dense


class AccumulatorCells:
    """How the scalar cell model holds fetched tuples: one
    :class:`DocAccumulator` per document id.

    The base of ``AndSemantics`` and ``OrSemantics``, which add the
    semantics-specific ``prune``, ``upper_bound`` and
    ``document_qualifies``.
    """

    def fetch(self, index, word: str, cell, docs: Dict[int, DocAccumulator]) -> None:
        """Load a non-dense keyword cell into document accumulators."""
        for record in index.data.read_cell(cell):
            acc = docs.get(record.doc_id)
            if acc is None:
                acc = DocAccumulator(x=record.x, y=record.y)
                docs[record.doc_id] = acc
            acc.absorb(word, record.weight)

    def split(
        self, docs: Dict[int, DocAccumulator], rect
    ) -> List[Dict[int, DocAccumulator]]:
        """Each document, copied, into the quadrant of ``rect`` it lies in."""
        groups: List[Dict[int, DocAccumulator]] = [{}, {}, {}, {}]
        for doc_id, acc in docs.items():
            groups[rect.quadrant_of(acc.x, acc.y)][doc_id] = acc.copy()
        return groups

    def finalise(
        self, candidate: Candidate, query, ranker, collector, trace, spatial_filter
    ) -> None:
        """Score every accumulated document of a fully-fetched cell
        (Algorithm 4, lines 6-10)."""
        for doc_id, acc in candidate.docs.items():
            if not self.document_qualifies(acc.words, query):
                continue
            if spatial_filter is not None and not spatial_filter.contains(
                acc.x, acc.y
            ):
                continue
            score = ranker.score_partial(query, acc.x, acc.y, acc.weight_sum)
            trace.docs_scored += 1
            collector.offer(doc_id, score)
