"""Shard replicas: health-tracked query endpoints.

A shard is served by one or more replicas, each a full copy of the
shard's index behind its own :class:`~repro.service.QueryService`
(per-shard admission control and the one lane that executes its
queries come with it).  The
cluster router talks to replicas through this wrapper, which adds the
three things a router needs that a service does not provide:

* **health tracking** — consecutive failures beyond a threshold mark
  the replica unhealthy, demoting it in the router's attempt order
  until a success (or explicit :meth:`revive`) restores it;
* **per-attempt timeouts** — a replica that holds a query past the
  router's attempt budget counts as failed for *this* attempt without
  poisoning the service for others;
* **kill** — tests and examples kill replicas (:meth:`kill`) to
  exercise failover exactly like a dead process would; transient
  faults are injected one level up, through the cluster's
  :class:`~repro.cluster.service.ShardChannel` seam.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.model.query import TopKQuery
from repro.service.errors import ServiceError
from repro.service.service import QueryService

__all__ = ["ReplicaFault", "ShardReplica"]


class ReplicaFault(ServiceError):
    """A replica attempt failed: closed service, overload, or an
    attempt timeout.  The router's failover loop treats every
    :class:`ReplicaFault` the same way — try the next replica."""

    def __init__(self, shard_id: int, replica_id: int, reason: str) -> None:
        super().__init__(
            f"shard {shard_id} replica {replica_id} unavailable: {reason}"
        )
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.reason = reason


class ShardReplica:
    """One replica of one shard: a query service plus router-side state.

    Attributes:
        shard_id: The shard this replica serves.
        replica_id: Position within the shard's replica set (0 = primary).
        service: The replica's :class:`~repro.service.QueryService`.
        failure_threshold: Consecutive failures before the replica is
            considered unhealthy.
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        service: QueryService,
        failure_threshold: int = 2,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.service = service
        self.failure_threshold = failure_threshold
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._total_failures = 0

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def search(self, query: TopKQuery, timeout: Optional[float] = None) -> List[Any]:
        """One attempt against this replica.

        Raises :class:`ReplicaFault` when the replica is dead.
        Service-level failures (overload shedding, closed mid-flight,
        the attempt outliving ``timeout`` — see
        :meth:`repro.service.QueryService.search`) surface as
        :class:`ReplicaFault` too, so the router's failover loop has a
        single failure type to react to.
        """
        if self.service.closed:
            raise ReplicaFault(self.shard_id, self.replica_id, "service closed")
        try:
            return self.service.search(query, timeout)
        except ServiceError as exc:
            raise ReplicaFault(self.shard_id, self.replica_id, str(exc)) from exc

    def read(self, fn):
        """A consistent read of this replica's index (see
        :meth:`repro.service.QueryService.read`)."""
        return self.service.read(fn)

    @property
    def index(self):
        """The replica's underlying :class:`~repro.core.index.I3Index`."""
        return self.service.index

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the replica's service still accepts queries."""
        return not self.service.closed

    @property
    def healthy(self) -> bool:
        """Alive and below the consecutive-failure threshold."""
        with self._lock:
            return self.alive and self._consecutive_failures < self.failure_threshold

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    @property
    def total_failures(self) -> int:
        with self._lock:
            return self._total_failures

    def mark_success(self) -> None:
        """Record a successful attempt: health restored."""
        with self._lock:
            self._consecutive_failures = 0

    def mark_failure(self) -> None:
        """Record a failed attempt."""
        with self._lock:
            self._consecutive_failures += 1
            self._total_failures += 1

    def revive(self) -> None:
        """Clear failure state (a repaired replica rejoining the
        rotation)."""
        with self._lock:
            self._consecutive_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Permanently kill the replica (closes its service, dropping
        queued queries) — the test stand-in for a dead process."""
        self.service.close(drain=False)

    def describe(self) -> Dict[str, Any]:
        """Health snapshot for the cluster metrics rollup."""
        with self._lock:
            return {
                "replica_id": self.replica_id,
                "alive": self.alive,
                "healthy": self.alive
                and self._consecutive_failures < self.failure_threshold,
                "consecutive_failures": self._consecutive_failures,
                "total_failures": self._total_failures,
            }
