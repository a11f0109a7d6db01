"""The incremental matcher: mutation events in, top-k maintenance out.

Hooked into :meth:`repro.core.index.I3Index.add_mutation_listener`, the
matcher keeps every registered standing query's
:class:`~repro.model.results.TopKCollector` exactly equal to what a
from-scratch ``I3Index.query`` would return, without re-running searches
on the common path:

* **insert** — the registry narrows the event to the queries it can
  affect; each gets the document's *exact* score offered into its
  collector (term weights are f32-quantised on storage, so the few-term
  double sum here is float-identical to the query processor's
  accumulation).  An accepted offer is exactly a top-k change.
* **delete** — removing a document that is *not* in a query's current
  top-k cannot change that top-k (all other scores are unaffected), so
  the only cost is one membership check per keyword-sharing query.  A
  deletion that evicts a current result is the one case that genuinely
  needs the index: the query is re-run from scratch to find the
  promoted document.
* **tuple-level events** (raw ``insert_tuple``/``delete_tuple`` outside
  a document operation) carry partial documents, so exact incremental
  scoring is impossible; every keyword-sharing query is conservatively
  refreshed.
* **bulk_load** — everything is refreshed.

``emit`` (when given) is called with each standing query whose result
list actually changed — the delivery layer turns that into subscriber
updates.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.index import I3Index, MutationEvent
from repro.model.document import SpatialDocument
from repro.service.metrics import MetricsRegistry
from repro.storage.records import f32
from repro.streaming.registry import QueryRegistry, StandingQuery

__all__ = ["IncrementalMatcher"]


def _quantize(doc: SpatialDocument) -> SpatialDocument:
    """The document as the index stores it: term weights f32-rounded.

    Incremental scores must be float-identical to what ``I3Index.query``
    computes from the stored tuples, so the matcher scores the
    quantised weights, never the caller's raw ones.  (Also keeps the
    registry's textual upper bound admissible: f32 rounds to nearest,
    so a raw weight may sit slightly *below* its stored value.)
    """
    terms = {word: f32(weight) for word, weight in doc.terms.items()}
    if terms == doc.terms:
        return doc
    return SpatialDocument(doc.doc_id, doc.x, doc.y, terms)


class IncrementalMatcher:
    """Applies mutation events to the registered standing queries."""

    def __init__(
        self,
        index: I3Index,
        registry: QueryRegistry,
        metrics: Optional[MetricsRegistry] = None,
        emit: Optional[Callable[[StandingQuery], None]] = None,
    ) -> None:
        self.index = index
        self.registry = registry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._emit = emit if emit is not None else (lambda sq: None)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def handle(self, event: MutationEvent) -> None:
        """Process one index mutation event."""
        self.metrics.counter("stream.events").inc()
        if event.kind == "insert":
            self.apply_insert(event.doc)
        elif event.kind == "delete":
            self.apply_delete(event.doc)
        elif event.kind in ("tuple_insert", "tuple_delete"):
            self._on_tuple(event.doc)
        elif event.kind == "bulk_load":
            self.refresh_all()

    def apply_insert(self, doc: SpatialDocument) -> None:
        """Apply one document insertion."""
        doc = _quantize(doc)
        candidates, skipped = self.registry.candidates_insert(doc)
        self.metrics.counter("stream.buckets_skipped").inc(skipped)
        self.metrics.counter("stream.queries_touched").inc(len(candidates))
        for sq in candidates:
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
            if sq.holds(doc.doc_id):
                # The one case needing the index: a current result left.
                self._refresh(sq)

    def _on_tuple(self, doc: SpatialDocument) -> None:
        for sq in self.registry.candidates_delete(doc):
            self._refresh(sq)

    # ------------------------------------------------------------------
    # Full re-query fallback
    # ------------------------------------------------------------------
    def _refresh(self, sq: StandingQuery) -> None:
        """Re-run ``sq`` from scratch against the live index."""
        old = sq.results()
        fresh = self.index.query(sq.query, sq.ranker)
        sq.seed(fresh)
        self.registry.bound_dropped(sq)
        self.metrics.counter("stream.requeries").inc()
        if fresh != old:
            self.metrics.counter("stream.updates").inc()
            self._emit(sq)

    def refresh_all(self) -> None:
        """Re-run every standing query (bulk load, index swap)."""
        for sq in self.registry.queries():
            self._refresh(sq)
