"""Typed failures of the query service layer.

Every error the serving layer can produce is a subclass of
:class:`ServiceError`, so callers can catch the whole family or react
to individual conditions (shed vs timed out vs shut down) differently —
the distinction a load balancer or client retry policy needs.
"""

from __future__ import annotations

__all__ = ["ServiceError", "ServiceOverloaded", "QueryTimeout", "ServiceClosed", "AnswerDegraded"]


class ServiceError(RuntimeError):
    """Base class of all query-service failures."""


class ServiceOverloaded(ServiceError):
    """The service shed the query: admission control found the queue at
    its configured depth.  Retrying after a backoff is appropriate; the
    query was never executed."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"service overloaded: {pending} queries pending, admission limit {limit}"
        )
        self.pending = pending
        self.limit = limit


class QueryTimeout(ServiceError):
    """The query exceeded the service's per-query deadline — either it
    expired while still queued (never executed) or the caller stopped
    waiting for a result that was still being computed."""

    def __init__(self, seconds: float, queued: bool) -> None:
        where = "in queue" if queued else "waiting for execution"
        super().__init__(f"query exceeded {seconds:.3f}s deadline {where}")
        self.seconds = seconds
        self.queued = queued


class ServiceClosed(ServiceError):
    """The service is shut down (or shutting down) and accepts no new
    queries; pending queries cancelled by a non-draining close also
    fail with this error."""


class AnswerDegraded(ServiceError):
    """A cluster reached no replica of some shard where an exact answer
    is required (a standing query's seed or re-answer)."""

    def __init__(self, failed_shards) -> None:
        super().__init__(f"answer degraded (failed shards {failed_shards})")
        self.failed_shards = failed_shards
