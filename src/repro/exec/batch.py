"""``query_many``: amortized execution of a query batch.

Motivation (WISK, arXiv:2302.14287): concurrent queries over the same
hot regions touch the same keyword cells, and identical queries repeat.

The batch runs sequentially inside one snapshot of the index — callers
holding a read lock around the call (``QueryService.search_many``) get
one consistent epoch for every answer.  Identical ``(query, alpha)``
pairs are executed once and the result list is copied per occurrence.
Cells are shared the way every vector-engine query shares them: through
the data file's decoded-cell cache
(:class:`~repro.core.kwcells.DecodedCellCache`), so a keyword cell that
fits the cache's budget is read and decoded once however many queries —
of this batch or of the calls before it — traverse it.  The batch itself
keeps no cell state.

Results are returned in input order, and each is exactly what
``index.query`` would have produced for that query alone — the batch is
a pure amortization, never an approximation (asserted by
``tests/test_query_many.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc
from repro.model.scoring import Ranker

__all__ = ["run_batch"]


def run_batch(
    index,
    queries: Sequence[TopKQuery],
    ranker: Optional[Ranker],
    cache,
    io_sink,
    engine: Optional[str],
    guard: Optional[Callable[[TopKQuery], None]] = None,
    capture_errors: bool = False,
) -> List:
    """Execute ``queries`` against ``index``; results in input order.

    ``guard`` (if given) runs before each query's execution and may
    raise to abort that query — the service layer uses it to enforce
    per-query deadlines inside a batch.  With ``capture_errors`` a
    query's exception becomes its entry in the returned list instead of
    aborting the batch (failures are never cached or deduplicated — a
    later duplicate of a failed query is attempted again).
    """
    if ranker is None:
        ranker = Ranker(index.space)
    queries = list(queries)
    if not queries:
        return []
    processor = index.engine_processor(engine)

    def execute(query: TopKQuery) -> List[ScoredDoc]:
        if guard is not None:
            guard(query)
        return processor.search(query, ranker)

    def run_all() -> List:
        unique: Dict[Tuple[TopKQuery, float], List[ScoredDoc]] = {}
        out: List = []
        for query in queries:
            key = (query, ranker.alpha)
            hit = unique.get(key)
            if hit is None:
                try:
                    if cache is not None:
                        hit = cache.get_or_compute(
                            key, index.epoch, lambda q=query: execute(q)
                        )
                    else:
                        hit = execute(query)
                except Exception as exc:
                    if not capture_errors:
                        raise
                    out.append(exc)
                    continue
                unique[key] = hit
            # Independent copies: callers may mutate their result list.
            out.append(list(hit))
        return out

    if io_sink is None:
        return run_all()
    with index.stats.tee(io_sink):
        return run_all()
