"""Continuous query subsystem: standing top-k queries over live ingest.

Instead of clients re-running searches to notice change, the index
pushes change to them: standing queries are registered once, indexed
FAST-style in a :class:`QueryRegistry` (keyword x spatial-grid buckets
with entry-threshold pruning), maintained incrementally by the
:class:`IncrementalMatcher` as documents arrive and leave, and served
through one bounded, coalescing :class:`StreamSubscription` queue per
subscriber.  A disconnected subscriber resumes by re-running its
standing queries; on clusters the :class:`ClusterStreamRouter` merges
per-shard standing queries into global top-k notifications.

Entry points: :meth:`repro.service.QueryService.streams` for a served
index (a stream hangs off its :class:`~repro.service.QueryService`),
:meth:`repro.cluster.ClusterService.stream_router` for clusters.
"""

from repro.streaming.cluster import ClusterStreamRouter
from repro.streaming.delivery import ResultUpdate, StreamSubscription
from repro.streaming.matcher import IncrementalMatcher
from repro.streaming.registry import (
    DEFAULT_GRID_LEVEL,
    QueryRegistry,
    StandingQuery,
)
from repro.streaming.service import StreamingService

__all__ = [
    "ClusterStreamRouter",
    "ResultUpdate",
    "StreamSubscription",
    "IncrementalMatcher",
    "DEFAULT_GRID_LEVEL",
    "QueryRegistry",
    "StandingQuery",
    "StreamingService",
]
