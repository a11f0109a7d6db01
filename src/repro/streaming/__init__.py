"""Continuous query subsystem: standing top-k queries over live ingest.

Instead of clients re-running searches to notice change, the index
pushes change to them: standing queries are registered once, indexed
FAST-style in a :class:`QueryRegistry` (keyword x spatial-grid buckets
with entry-threshold pruning), maintained incrementally by the
:class:`IncrementalMatcher` as documents arrive and leave, and served
through one coalescing :class:`StreamSubscription` queue per
subscriber.  A disconnected subscriber resumes by re-running its
standing queries.

One stream for every target: :meth:`repro.service.QueryService.streams`
and :meth:`repro.cluster.ClusterService.streams` both return a
:class:`StreamingService`, and nothing in this package asks which kind
of target it serves.  A cluster holds each standing query once, at its
router, and feeds the one matcher from its own writes; it re-answers
through its one scatter-gather only to seed a query or when a delete
evicts a current result.
"""

from repro.streaming.delivery import ResultUpdate, StreamSubscription
from repro.streaming.matcher import IncrementalMatcher
from repro.streaming.registry import (
    DEFAULT_GRID_LEVEL,
    QueryRegistry,
    StandingQuery,
)
from repro.streaming.service import StreamingService

__all__ = [
    "ResultUpdate",
    "StreamSubscription",
    "IncrementalMatcher",
    "DEFAULT_GRID_LEVEL",
    "QueryRegistry",
    "StandingQuery",
    "StreamingService",
]
