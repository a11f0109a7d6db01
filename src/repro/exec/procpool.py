"""A process-pool query executor over an mmap-served snapshot.

In-process serving (:class:`~repro.service.QueryService`) keeps one
mutable index consistent under a read/write lock, but Python threads
share one GIL: per-query CPU (traversal, scoring) serialises — two
in-process traversals together answer fewer queries than one, which is
why a service runs one at a time (``docs/exec.md``, "Taking turns").
:class:`SnapshotProcessPool` trades mutability for
parallelism: it freezes the index into an I3IX v2 snapshot file and
fans queries out to worker *processes*, each of which opens the file
through :func:`repro.exec.snapshot.open_snapshot`.  The page images are
``mmap``-shared — the OS keeps one physical copy for all workers — and
every worker scores with its own interpreter, so CPU scales with
cores instead of saturating one GIL.

Exactness is unchanged: each worker answers with the same engine seam
(tuple or vector) over byte-identical page images, so results equal
in-process answers bit for bit (asserted in ``tests/test_exec.py`` and
fuzzed in ``tests/test_exec_properties.py``).

Freshness contract: the pool serves the snapshot's epoch, full stop.
There is no write path — writers keep mutating the live index and cut a
new snapshot when the staleness budget says so; :meth:`refresh` swaps
the pool to a newer file without dropping in-flight queries.

The ``fork`` start method is preferred (cheap, inherits nothing mutable
we care about — workers re-open the file anyway); where unavailable the
default context is used, which only requires the snapshot *path* to
cross the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, List, Optional, Sequence

from repro.exec import resolve_engine
from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc
from repro.model.scoring import Ranker

__all__ = ["SnapshotProcessPool"]

# Worker-process state, installed once by the pool initializer.  One
# snapshot per process, re-used across every task the worker runs.
_worker_index = None
_worker_ranker: Optional[Ranker] = None
_worker_engine: Optional[str] = None


def _init_worker(path: str, alpha: float, engine: Optional[str]) -> None:
    from repro.exec.snapshot import open_snapshot

    global _worker_index, _worker_ranker, _worker_engine
    _worker_index, _ = open_snapshot(path, verify=False)
    _worker_ranker = Ranker(_worker_index.space, alpha)
    _worker_engine = engine


def _run_chunk(queries: Sequence[TopKQuery]) -> List[List[ScoredDoc]]:
    return _worker_index.query_many(
        queries, _worker_ranker, engine=_worker_engine
    )


class SnapshotProcessPool:
    """Parallel query execution over one read-only snapshot file.

    Args:
        path: An I3IX v2 snapshot (``repro.core.persistence.save_index``).
        workers: Worker process count; defaults to ``os.cpu_count()``.
        alpha: Ranking weight the workers score with.
        engine: Execution engine pinned in every worker (``"tuple"`` /
            ``"vector"``); ``None`` applies the usual default resolution
            *in the worker process*.
        verify: Verify every page CRC in the parent before serving
            (workers skip re-verification; they open the same bytes).

    Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: str,
        workers: Optional[int] = None,
        alpha: float = 0.5,
        engine: Optional[str] = None,
        verify: bool = True,
    ) -> None:
        if engine is not None:
            resolve_engine(engine)  # fail fast on a bad name
        if verify:
            from repro.exec.snapshot import open_snapshot

            open_snapshot(path, verify=True)
        self.path = path
        self.alpha = alpha
        self.engine = engine
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        self._followed: List[Any] = []  # durable stores we auto-refresh on
        self._pool = self._spawn(path)

    def _spawn(self, path: str) -> ProcessPoolExecutor:
        try:
            context: Any = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = None
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(path, self.alpha, self.engine),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, query: TopKQuery) -> List[ScoredDoc]:
        """Answer one query on some worker process."""
        return self._pool.submit(_run_chunk, [query]).result()[0]

    def search_many(
        self, queries: Sequence[TopKQuery], chunk_size: Optional[int] = None
    ) -> List[List[ScoredDoc]]:
        """Answer a batch across the pool; results in input order.

        The batch is split into per-worker chunks (each worker keeps
        its own decoded cells across chunks) and scattered; chunking
        preserves input order on reassembly.
        """
        queries = list(queries)
        if not queries:
            return []
        if chunk_size is None:
            chunk_size = max(1, (len(queries) + self.workers - 1) // self.workers)
        chunks = [
            queries[i : i + chunk_size]
            for i in range(0, len(queries), chunk_size)
        ]
        futures = [self._pool.submit(_run_chunk, chunk) for chunk in chunks]
        out: List[List[ScoredDoc]] = []
        for future in futures:
            out.extend(future.result())
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def refresh(self, path: str) -> None:
        """Serve a newer snapshot file.

        Spawns a fresh pool over ``path`` and retires the old one
        without cancelling its in-flight work — the rolling-epoch swap a
        snapshot-serving tier needs.
        """
        old = self._pool
        self._pool = self._spawn(path)
        self.path = path
        old.shutdown(wait=False)

    def follow(self, durable) -> None:
        """Refresh automatically whenever ``durable`` (a
        :class:`~repro.core.recovery.DurableIndex`) checkpoints.

        Registers a checkpoint listener that swaps the pool to the
        freshly written snapshot, so a mutating write path and a
        process-pool read path stay one checkpoint apart with no manual
        plumbing.  :meth:`unfollow` (or :meth:`close`) detaches.
        """
        self._followed.append(durable)
        durable.add_checkpoint_listener(self.refresh)

    def unfollow(self, durable) -> None:
        """Stop refreshing on ``durable``'s checkpoints (no-op if not
        followed)."""
        try:
            self._followed.remove(durable)
        except ValueError:
            return
        durable.remove_checkpoint_listener(self.refresh)

    def close(self) -> None:
        for durable in list(self._followed):
            self.unfollow(durable)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SnapshotProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
