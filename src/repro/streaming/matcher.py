"""The incremental matcher: mutation events in, top-k maintenance out.

Fed by its target — an index's mutation listener, or a cluster once a
write has landed — the matcher keeps every registered standing query's
:class:`~repro.model.results.TopKCollector` exactly equal to what the
target's ``answer`` would return from scratch, without re-running
searches on the common path:

* **insert** — the registry narrows the event to the queries it can
  affect; each gets the document's *exact* score offered into its
  collector (a document's weights are the f32 values the index stores,
  so the few-term double sum here is float-identical to the query
  processor's accumulation).  An accepted offer is exactly a top-k change.
* **delete** — removing a document that is *not* in a query's current
  top-k cannot change that top-k (all other scores are unaffected), so
  the only cost is one membership check per keyword-sharing query.  A
  deletion that evicts a current result is the one case that genuinely
  needs the target: the query is re-answered from scratch to find the
  promoted document.
* **bulk_load** — everything is refreshed.

``emit`` is called with each standing query whose result
list actually changed — the delivery layer turns that into subscriber
updates.  A re-answer the target cannot give exactly (it raises a
:class:`~repro.service.errors.ServiceError`: a cluster shard with no
live replica) is never delivered: the query is held *stale*, skipped by
incremental matching, and re-answered at the start of the next event
(or :meth:`IncrementalMatcher.retry_stale`).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.index import MutationEvent
from repro.model.document import SpatialDocument
from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc
from repro.model.scoring import Ranker
from repro.service.errors import ServiceError
from repro.service.metrics import MetricsRegistry
from repro.streaming.registry import QueryRegistry, StandingQuery

__all__ = ["IncrementalMatcher"]


class IncrementalMatcher:
    """Applies mutation events to the registered standing queries."""

    def __init__(
        self,
        answer: Callable[[TopKQuery, Ranker], List[ScoredDoc]],
        registry: QueryRegistry,
        metrics: MetricsRegistry,
        emit: Callable[[StandingQuery], None],
    ) -> None:
        self.answer = answer
        self.registry = registry
        self.metrics = metrics
        self._emit = emit
        self._stale: Dict[int, StandingQuery] = {}

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def handle(self, event: MutationEvent) -> None:
        """Process one mutation event of the target."""
        self.metrics.counter("stream.events").inc()
        self.retry_stale()
        if event.kind == "insert":
            self.apply_insert(event.doc)
        elif event.kind == "delete":
            self.apply_delete(event.doc)
        elif event.kind == "bulk_load":
            self.refresh_all()

    def apply_insert(self, doc: SpatialDocument) -> None:
        """Apply one document insertion."""
        candidates, skipped = self.registry.candidates_insert(doc)
        self.metrics.counter("stream.buckets_skipped").inc(skipped)
        self.metrics.counter("stream.queries_touched").inc(len(candidates))
        for sq in candidates:
            if sq.query_id in self._stale:
                continue
            if sq.holds(doc.doc_id):
                # A doc already in the top-k was re-inserted (its stored
                # tuples changed); incremental scores would be stale.
                self._refresh(sq)
                continue
            score = sq.score(doc)
            if score is None:
                continue  # keyword semantics not satisfied (AND miss)
            if sq.collector.offer(doc.doc_id, score):
                self.metrics.counter("stream.updates").inc()
                self._emit(sq)

    def apply_delete(self, doc: SpatialDocument) -> None:
        """Apply one document deletion."""
        for sq in self.registry.candidates_delete(doc):
            if sq.holds(doc.doc_id) and sq.query_id not in self._stale:
                # The one case needing the target: a current result left.
                self._refresh(sq)

    # ------------------------------------------------------------------
    # Full re-query fallback
    # ------------------------------------------------------------------
    def _refresh(self, sq: StandingQuery) -> None:
        """Re-answer ``sq`` from scratch against the live target."""
        old = sq.results()
        try:
            fresh = self.answer(sq.query, sq.ranker)
        except ServiceError:
            if sq.query_id not in self._stale:
                self.metrics.counter("stream.stale").inc()
            self._stale[sq.query_id] = sq
            return
        self._stale.pop(sq.query_id, None)
        sq.seed(fresh)
        self.registry.bound_dropped(sq)
        self.metrics.counter("stream.requeries").inc()
        if fresh != old:
            self.metrics.counter("stream.updates").inc()
            self._emit(sq)

    def refresh_all(self) -> None:
        """Re-answer every standing query (bulk load, index swap,
        retention)."""
        for sq in self.registry.queries():
            self._refresh(sq)

    def retry_stale(self) -> None:
        """Re-answer every query held stale by a failed re-answer."""
        for sq in list(self._stale.values()):
            self._refresh(sq)

    def forget(self, query_id: int) -> None:
        """Drop an unregistered query's stale mark."""
        self._stale.pop(query_id, None)
