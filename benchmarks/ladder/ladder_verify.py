"""Answer checks of the ladder benchmark.

The oracle is ``NaiveScanIndex`` — score every document, keep the top
k.  To keep a 100-answer sample affordable on 60 000 documents the
oracle hands it only the documents that hold at least one keyword of
the query; a document holding none is rejected by both matching
semantics, so the answer is the full scan's (the smoke test compares
the two).
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set

from ladder_api import (
    NaiveScanIndex,
    Ranker,
    ScoredDoc,
    SpatialDocument,
    TopKQuery,
    results_to_wire,
)

SAMPLE = 100
ALPHA = 0.5  # `repro serve` default; every layer below ranks with it


def wire_bytes(results: Sequence[ScoredDoc]) -> str:
    return json.dumps(results_to_wire(results))


def well_formed(results, k: int) -> bool:
    """At most k results, scores non-increasing."""
    if not isinstance(results, list) or len(results) > k:
        return False
    return all(a.score >= b.score for a, b in zip(results, results[1:]))


class Oracle:
    """The naive scan over a document set that mutations keep current."""

    def __init__(self, documents: Iterable[SpatialDocument], space) -> None:
        self.ranker = Ranker(space, ALPHA)
        self._docs: Dict[int, SpatialDocument] = {}
        self._holders: Dict[str, Set[int]] = defaultdict(set)
        for doc in documents:
            self.insert(doc)

    def insert(self, doc: SpatialDocument) -> None:
        self._docs[doc.doc_id] = doc
        for word in doc.terms:
            self._holders[word].add(doc.doc_id)

    def delete(self, doc: SpatialDocument) -> None:
        del self._docs[doc.doc_id]
        for word in doc.terms:
            self._holders[word].discard(doc.doc_id)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    def query(self, query: TopKQuery, full_scan: bool = False) -> List[ScoredDoc]:
        if full_scan:
            ids: Iterable[int] = self._docs
        else:
            ids = set().union(*(self._holders.get(w, ()) for w in query.words))
        naive = NaiveScanIndex()
        for doc_id in sorted(ids):
            naive.insert_document(self._docs[doc_id])
        return naive.query(query, self.ranker)

    @staticmethod
    def sample(items: Sequence, seed: int) -> Sequence:
        """A seeded sample of at most ``SAMPLE`` of ``items``."""
        if len(items) <= SAMPLE:
            return items
        return random.Random(f"{seed}/verify").sample(items, SAMPLE)

    def mismatches(self, answered: Sequence) -> int:
        """How many ``(query, results)`` pairs are not byte-identical
        to the oracle's answer."""
        return sum(
            wire_bytes(results) != wire_bytes(self.query(query))
            for query, results in answered
        )
