"""Experiment harness: build indexes, run query sets, collect metrics.

The unit of measurement matches the paper's Section 6.3: a *query set*
of equivalent queries is executed against a built index and the average
processing time and the I/O cost per query are reported.  I/O comes
from the index's :class:`~repro.storage.iostats.IOStats` (snapshot
deltas around the run), attributed per component so Figures 8-9's
stacked histograms can be regenerated.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable

from repro.baselines.irtree import IRTree
from repro.baselines.s2i import S2IIndex
from repro.core.index import I3Index
from repro.datasets.generators import Corpus
from repro.datasets.querylog import QuerySet
from repro.model.scoring import Ranker
from repro.storage.iostats import IOSnapshot

__all__ = ["BuiltIndex", "QueryRunMetrics", "UpdateMetrics", "build_index", "run_query_set", "run_updates", "INDEX_KINDS"]

INDEX_KINDS = ("I3", "S2I", "IR-tree")
"""The three compared systems, in the paper's presentation order."""


@dataclass
class BuiltIndex:
    """A constructed index plus its build-cost metrics.

    ``build_flushed_io`` counts distinct pages touched during the build
    (the buffer-then-flush model, like Figure 13's update methodology);
    ``build_io`` is the raw unbuffered total.
    """

    name: str
    index: object
    corpus: Corpus
    build_seconds: float
    build_io: IOSnapshot
    build_flushed_io: int = 0

    def size_breakdown(self) -> Dict[str, int]:
        """Bytes per index component."""
        return self.index.size_breakdown()

    @property
    def size_bytes(self) -> int:
        """Total index bytes."""
        return sum(self.size_breakdown().values())


@dataclass
class QueryRunMetrics:
    """Aggregate metrics of one query set against one index."""

    index_name: str
    query_set: str
    num_queries: int
    total_seconds: float
    io: IOSnapshot
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_ms(self) -> float:
        """Average per-query processing time in milliseconds."""
        return 1000.0 * self.total_seconds / max(self.num_queries, 1)

    @property
    def mean_io(self) -> float:
        """Average page reads per query."""
        return self.io.total_reads / max(self.num_queries, 1)

    def mean_reads(self, component: str) -> float:
        """Average page reads per query for one component."""
        return self.io.reads.get(component, 0) / max(self.num_queries, 1)


@dataclass
class UpdateMetrics:
    """Aggregate metrics of an update (insert/delete) workload.

    ``flushed_io`` follows the paper's Figure 13 methodology ("execute
    4,000 randomly generated data operations ... and finally flush the
    update back to disk"): operations are buffered, so a page touched
    many times costs one physical read plus one flush write — it counts
    *distinct* pages read and written.  ``io`` is the unbuffered total.
    """

    index_name: str
    num_operations: int
    total_seconds: float
    io: IOSnapshot
    flushed_reads: int = 0
    flushed_writes: int = 0

    @property
    def flushed_io(self) -> int:
        """Distinct pages read + written (buffer-then-flush model)."""
        return self.flushed_reads + self.flushed_writes

    @property
    def mean_ms(self) -> float:
        """Average per-operation time in milliseconds."""
        return 1000.0 * self.total_seconds / max(self.num_operations, 1)


def build_index(
    kind: str,
    corpus: Corpus,
    page_size: int = 4096,
    eta: int = 300,
    **kwargs,
) -> BuiltIndex:
    """Build one of the three compared indexes over a corpus.

    ``kind`` is ``"I3"``, ``"S2I"`` or ``"IR-tree"``.  Build wall time
    and build I/O are recorded — Figure 6's quantities.
    """
    if kind == "I3":
        index = I3Index(corpus.space, eta=eta, page_size=page_size, **kwargs)
    elif kind == "S2I":
        index = S2IIndex(corpus.space, page_size=page_size, **kwargs)
    elif kind == "IR-tree":
        index = IRTree(corpus.space, page_size=page_size, **kwargs)
    else:
        raise ValueError(f"unknown index kind {kind!r}; pick one of {INDEX_KINDS}")
    gc.collect()
    before = index.stats.snapshot()
    index.stats.reset_unique()
    start = time.perf_counter()
    for doc in corpus.documents:
        index.insert_document(doc)
    elapsed = time.perf_counter() - start
    return BuiltIndex(
        name=kind,
        index=index,
        corpus=corpus,
        build_seconds=elapsed,
        build_io=index.stats.snapshot() - before,
        build_flushed_io=index.stats.unique_reads() + index.stats.unique_writes(),
    )


def run_query_set(
    built: BuiltIndex,
    queries: QuerySet,
    ranker: Ranker,
    repeat: int = 1,
) -> QueryRunMetrics:
    """Execute a query set cold and return per-query averages.

    The paper clears the OS cache before each query set; here the pager
    counts every read, and the one thing an index keeps warm between
    queries — I3's decoded cells — is dropped before each query, outside
    the timed span.  So every page a query needs is read and counted, for
    all three systems alike, and a buffer pool the caller attached
    behaves as it always did.
    """
    gc.collect()
    cells = getattr(getattr(built.index, "data", None), "cells", None)
    before = built.index.stats.snapshot()
    elapsed = 0.0
    for _ in range(repeat):
        for query in queries:
            if cells is not None:
                cells.clear()
            start = time.perf_counter()
            built.index.query(query, ranker)
            elapsed += time.perf_counter() - start
    io = built.index.stats.snapshot() - before
    return QueryRunMetrics(
        index_name=built.name,
        query_set=queries.name,
        num_queries=len(queries) * repeat,
        total_seconds=elapsed,
        io=io,
    )


def run_updates(
    built: BuiltIndex,
    operations: Iterable[Callable[[object], None]],
) -> UpdateMetrics:
    """Execute a prepared list of update closures against the index.

    Each operation is a callable taking the index (e.g. created by
    :func:`repro.bench.workloads.update_workload`), so insert/delete
    mixes are reproducible across indexes.
    """
    ops = list(operations)
    gc.collect()
    stats = built.index.stats
    before = stats.snapshot()
    stats.reset_unique()
    start = time.perf_counter()
    for op in ops:
        op(built.index)
    elapsed = time.perf_counter() - start
    return UpdateMetrics(
        index_name=built.name,
        num_operations=len(ops),
        total_seconds=elapsed,
        io=stats.snapshot() - before,
        flushed_reads=stats.unique_reads(),
        flushed_writes=stats.unique_writes(),
    )
