"""Admission control: a bounded-pending gate in front of the lane.

Unbounded queues turn overload into unbounded latency — every query
eventually gets served, long after its caller stopped caring.  The
serving layer instead bounds the number of *admitted-but-unfinished*
queries (running plus queued).  At the bound, a non-blocking admit is
refused outright (the caller sheds with
:class:`~repro.service.errors.ServiceOverloaded`), while batch callers
may opt into blocking admission, which applies backpressure instead of
failing.

Thread-safety contract: a single lock/condition protects the pending
count; :meth:`release` wakes blocked admitters.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

__all__ = ["AdmissionController"]


class AdmissionController:
    """Caps the number of simultaneously pending (queued + running) tasks.

    Attributes:
        limit: Maximum pending tasks; admissions beyond it are refused
            (non-blocking) or wait (blocking).
    """

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError(f"admission limit must be positive, got {limit}")
        self.limit = limit
        self._cond = threading.Condition()
        self._pending = 0
        self._admitted = 0
        self._rejected = 0

    def try_acquire(self) -> bool:
        """Admit one task if under the limit; False means *shed*."""
        with self._cond:
            if self._pending >= self.limit:
                self._rejected += 1
                return False
            self._pending += 1
            self._admitted += 1
            return True

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Admit one task, waiting for capacity (backpressure).

        Returns False only if ``timeout`` elapsed with the gate still
        full.  ``timeout`` must be ``None`` or a non-negative finite
        number — a negative or NaN wait is always a caller bug, not a
        zero-wait poll.
        """
        if timeout is not None and (timeout < 0 or math.isnan(timeout)):
            raise ValueError(f"timeout must be non-negative, got {timeout}")
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._pending < self.limit, timeout=timeout
            ):
                self._rejected += 1
                return False
            self._pending += 1
            self._admitted += 1
            return True

    def release(self) -> None:
        """Mark one admitted task finished, unblocking a waiter."""
        with self._cond:
            if self._pending <= 0:
                raise RuntimeError("release without a matching acquire")
            self._pending -= 1
            self._cond.notify()

    @property
    def pending(self) -> int:
        """Currently admitted, unfinished tasks."""
        with self._cond:
            return self._pending

    @property
    def admitted(self) -> int:
        """Total tasks ever admitted (lifetime counter)."""
        with self._cond:
            return self._admitted

    @property
    def rejected(self) -> int:
        """Total admissions refused — failed ``try_acquire`` calls plus
        ``acquire`` timeouts (lifetime counter)."""
        with self._cond:
            return self._rejected

    def snapshot(self) -> Dict:
        """The gate's state and lifetime counters, as one plain dict
        (surfaced by ``QueryService.metrics_snapshot``)."""
        with self._cond:
            return {
                "pending": self._pending,
                "limit": self.limit,
                "admitted": self._admitted,
                "rejected": self._rejected,
            }
