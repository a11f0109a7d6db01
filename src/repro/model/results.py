"""Bounded top-k result collection with a running k-th-score threshold.

Every search algorithm in this library maintains the same state: the best
``k`` scored documents seen so far and the score ``delta`` of the k-th
best, which drives all pruning ("if the upper bound score of a cell is
smaller than delta, the cell can be pruned" — paper Section 5.1).

A *collector* is anything with that ``delta`` and an ``offer(doc_id,
score)``: :class:`TopKCollector`, and :class:`AllHitsCollector` for the
searches that have no k (streams, region queries).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["AllHitsCollector", "ScoredDoc", "TopKCollector"]


@dataclass(frozen=True, slots=True, order=True)
class ScoredDoc:
    """A (score, doc_id) result pair.  Ordered by score, ties by doc id."""

    score: float
    doc_id: int


class TopKCollector:
    """Maintains the k highest-scoring documents seen so far.

    Ties at the k-th position are broken by preferring the smaller doc id,
    which makes every index produce the same result list and keeps the
    cross-index equivalence tests deterministic.

    The threshold :attr:`delta` is the paper's ``delta``: the k-th best
    score once k results have been collected, ``-inf`` before that.  A
    candidate (cell or document) whose upper bound is **not greater than**
    ``delta`` cannot enter the result set and is safely pruned; with fewer
    than k results nothing may be pruned, which ``-inf`` encodes.
    """

    __slots__ = ("k", "_heap", "_members")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # Min-heap of (score, -doc_id): the root is the *worst* kept result,
        # and among equal scores the root is the one with the LARGEST doc id,
        # so smaller doc ids win ties.
        self._heap: List[Tuple[float, int]] = []
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._members

    @property
    def delta(self) -> float:
        """The k-th best score so far, or ``-inf`` with fewer than k results."""
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def would_accept(self, score: float) -> bool:
        """Whether a document with this score would enter the result set."""
        return len(self._heap) < self.k or score > self._heap[0][0]

    def offer(self, doc_id: int, score: float) -> bool:
        """Offer a scored document; returns True if it was kept.

        Offering the same ``doc_id`` again keeps only the highest score
        (indexes may discover a document through several keyword cells).
        """
        if doc_id in self._members:
            self._replace_if_better(doc_id, score)
            return True
        entry = (score, -doc_id)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            self._members.add(doc_id)
            return True
        if entry > self._heap[0]:
            evicted = heapq.heapreplace(self._heap, entry)
            self._members.discard(-evicted[1])
            self._members.add(doc_id)
            return True
        return False

    def _replace_if_better(self, doc_id: int, score: float) -> None:
        for i, (old_score, neg_id) in enumerate(self._heap):
            if -neg_id == doc_id:
                if score > old_score:
                    self._heap[i] = (score, neg_id)
                    heapq.heapify(self._heap)
                return

    def results(self) -> List[ScoredDoc]:
        """The collected results, best first (score desc, doc id asc)."""
        ordered = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [ScoredDoc(score=s, doc_id=-neg) for s, neg in ordered]

    def best(self) -> Optional[ScoredDoc]:
        """The single best result, or ``None`` if empty."""
        results = self.results()
        return results[0] if results else None


class AllHitsCollector:
    """The unbounded collector: keeps every offered document.

    :attr:`delta` never rises, so a search driven by it cuts nothing by
    score.  Documents sit on :attr:`heap` as ``(-score, doc_id)`` — a
    ``heapq`` min-heap whose root is the best result so far (doc id
    ascending on ties); a streaming search pops it as results become
    final, a region search takes :meth:`results` at the end.
    """

    delta = float("-inf")

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int]] = []

    def offer(self, doc_id: int, score: float) -> None:
        """Keep a scored document."""
        heapq.heappush(self.heap, (-score, doc_id))

    def results(self) -> List[ScoredDoc]:
        """Everything offered, best first (score desc, doc id asc)."""
        return [ScoredDoc(score=-neg, doc_id=doc_id) for neg, doc_id in sorted(self.heap)]
