"""I3 top-k query processing: best-first cell traversal (Algorithm 4).

All keywords share one quadtree decomposition, so the search walks a
single hierarchy of cells top-down.  A priority queue holds candidate
cells ordered by their upper-bound score; each pop either finalises the
cell (no query keyword is dense there any more — every relevant tuple
has been fetched and the documents get their exact scores) or *zooms*:
creates one candidate per child cell, moving each dense query keyword
either down the summary-node chain (still dense in the child) or into
the candidate's document accumulators (its child keyword cell is fetched
from the data file with one page I/O).

The traversal terminates when the best remaining upper bound no longer
beats delta, the current k-th score.

The walk is written once, in :class:`BestFirstProcessor`; how fetched
tuples are held, bounded and scored is the engine's *cell model*.
:class:`I3QueryProcessor` walks with the scalar model (``AndSemantics``
/ ``OrSemantics``), ``repro.exec.vector.VectorQueryProcessor`` with the
columnar one.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core.and_semantics import AndSemantics
from repro.core.candidates import Candidate, DenseRef
from repro.core.or_semantics import OrSemantics
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.cells import ROOT_CELL, child_cell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import I3Index

__all__ = ["BestFirstProcessor", "I3QueryProcessor", "QueryTrace", "SpatialFilter"]


class SpatialFilter:
    """A spatial predicate restricting query results (e.g. a sector).

    ``may_intersect`` must be conservative: returning True for a cell
    that contains no qualifying point only costs work; returning False
    for a cell that does would lose results.
    """

    def may_intersect(self, rect) -> bool:  # pragma: no cover - interface
        """Whether the filter region could intersect ``rect``."""
        raise NotImplementedError

    def contains(self, x: float, y: float) -> bool:  # pragma: no cover
        """Whether the point satisfies the filter exactly."""
        raise NotImplementedError


class QueryTrace:
    """Diagnostics of one query run (candidates examined, cells pruned).

    The benchmark harness reads I/O from the index's
    :class:`~repro.storage.iostats.IOStats`; this trace captures the
    algorithmic counters that I/O alone does not show.
    """

    __slots__ = ("candidates_pushed", "candidates_popped", "cells_pruned", "docs_scored")

    def __init__(self) -> None:
        self.candidates_pushed = 0
        self.candidates_popped = 0
        self.cells_pruned = 0
        self.docs_scored = 0


class BestFirstProcessor:
    """Algorithm 4, once: the best-first walk both engines share.

    A subclass supplies :meth:`cells_for`, which picks the **cell
    model** for a query's semantics — the object that knows how fetched
    tuples are held in ``Candidate.docs``.  The walk creates ``docs``
    as an empty dict, tests it for emptiness, and otherwise only passes
    it back to the model's five methods:

    ``fetch(index, word, cell, docs)``
        load keyword cell ``cell`` (a ``CellPages``) of ``word`` into
        ``docs``.  Called in the order keywords turn non-dense along the
        root path — the order textual sums accumulate in.
    ``split(docs, rect)``
        four fresh ``docs``, one per quadrant of ``rect`` (non-empty
        ``docs`` only); the children fetch into them.
    ``prune(candidate, query)``
        whether the cell provably holds no result; may narrow
        ``candidate.docs`` to the tuples that can still matter.
    ``upper_bound(candidate, query, ranker, grid)``
        an admissible score bound: never below the final score of any
        document in the cell.  Tightness only costs work — a bound that
        ties delta is still expanded.
    ``finalise(candidate, query, ranker, collector, trace, spatial_filter)``
        exact scores for a resolved cell's qualifying documents, offered
        to ``collector`` and counted in ``trace.docs_scored``.

    The model knows nothing about the heap, and the walk nothing about
    tuples.
    """

    def __init__(self, index: "I3Index") -> None:
        self.index = index
        self._trace_local = threading.local()

    def cells_for(self, semantics: Semantics):  # pragma: no cover - interface
        """The cell model answering queries under ``semantics``."""
        raise NotImplementedError

    @property
    def last_trace(self) -> Optional[QueryTrace]:
        """The trace of the *calling thread's* most recent search.

        Thread-local so concurrent queries (the serving layer) never
        overwrite each other's diagnostics.
        """
        return getattr(self._trace_local, "trace", None)

    def search(
        self,
        query: TopKQuery,
        ranker: Ranker,
        spatial_filter: Optional["SpatialFilter"] = None,
        trace: Optional[QueryTrace] = None,
    ) -> List[ScoredDoc]:
        """Answer ``query``; returns at most ``query.k`` scored documents.

        ``spatial_filter`` optionally restricts results to an arbitrary
        spatial predicate (e.g. a direction sector): cells the filter
        rules out are skipped, documents it rejects are dropped at
        scoring time.  The filter must be *conservative* on cells —
        ``may_intersect(rect)`` may err toward True, never toward False.

        ``trace`` optionally supplies an external :class:`QueryTrace` to
        fill (callers attributing diagnostics per query); by default a
        fresh one is created and exposed as :attr:`last_trace`.
        """
        if trace is None:
            trace = QueryTrace()
        self._trace_local.trace = trace
        cells = self.cells_for(query.semantics)
        collector = TopKCollector(query.k)
        root = self._root_candidate(query, cells)
        if root is None:
            return []
        grid = self.index.grid
        counter = itertools.count()
        heap: List[tuple] = []

        def consider(candidate: Candidate) -> None:
            """Prune-or-push a freshly created candidate (lines 21-24)."""
            if spatial_filter is not None and not spatial_filter.may_intersect(
                grid.rect(candidate.cell)
            ):
                trace.cells_pruned += 1
                return
            if cells.prune(candidate, query):
                trace.cells_pruned += 1
                return
            candidate.upper_score = cells.upper_bound(candidate, query, ranker, grid)
            if candidate.upper_score < collector.delta:
                trace.cells_pruned += 1
                return
            trace.candidates_pushed += 1
            heapq.heappush(heap, (-candidate.upper_score, next(counter), candidate))

        consider(root)
        while heap:
            neg_upper, _, candidate = heapq.heappop(heap)
            trace.candidates_popped += 1
            # Strictly below delta nothing can change the result set; an
            # upper bound *equal* to delta is still expanded so that
            # equal-score ties resolve by doc id exactly like the oracle.
            if -neg_upper < collector.delta:
                break
            if candidate.is_resolved:
                cells.finalise(
                    candidate, query, ranker, collector, trace, spatial_filter
                )
                continue
            # Expansion (Algorithm 4, lines 12-24).
            for child in self._children_of(candidate, cells):
                consider(child)
        return collector.results()

    # ------------------------------------------------------------------
    # Candidate creation
    # ------------------------------------------------------------------
    def _root_candidate(self, query: TopKQuery, cells) -> Optional[Candidate]:
        """Build the whole-space candidate from the lookup table."""
        dense: Dict[str, DenseRef] = {}
        docs: dict = {}
        fetched: Set[str] = set()
        for word in query.words:
            entry = self.index.lookup.get(word)
            if entry is None:
                if query.semantics is Semantics.AND:
                    return None  # a missing keyword empties an AND query
                continue
            if entry.dense:
                node = self.index.head.read(entry.target)
                if node.own.count == 0:
                    if query.semantics is Semantics.AND:
                        return None
                    continue
                dense[word] = DenseRef(
                    info=node.own, node_id=entry.target, node=node
                )
            else:
                fetched.add(word)
                cells.fetch(self.index, word, entry.target, docs)
        return Candidate(
            cell=ROOT_CELL, dense=dense, docs=docs, fetched=frozenset(fetched)
        )

    def _children_of(self, candidate: Candidate, cells) -> List[Candidate]:
        """Materialise the four child candidates (shared by the
        best-first top-k expansion, the streaming search and the region
        search): each dense keyword moves down its summary-node chain or,
        where it stops being dense, is fetched into the child's docs."""
        nodes = {}
        for word, ref in candidate.dense.items():
            if ref.node is None:
                ref.node = self.index.head.read(ref.node_id)
            nodes[word] = ref.node
        if candidate.docs:
            doc_groups = cells.split(
                candidate.docs, self.index.grid.rect(candidate.cell)
            )
        else:
            doc_groups = [{}, {}, {}, {}]
        children: List[Candidate] = []
        for quadrant in range(4):
            child_id = child_cell(candidate.cell, quadrant)
            dense: Dict[str, DenseRef] = {}
            docs = doc_groups[quadrant]
            fetched: Set[str] = set(candidate.fetched)
            for word, node in nodes.items():
                ptr = node.child_ptrs[quadrant]
                info = node.children[quadrant]
                if isinstance(ptr, int) and info.count > 0:
                    dense[word] = DenseRef(info=info, node_id=ptr)
                elif ptr is None or isinstance(ptr, int) or info.count == 0:
                    fetched.add(word)
                else:
                    fetched.add(word)
                    cells.fetch(self.index, word, ptr, docs)
            children.append(
                Candidate(
                    cell=child_id, dense=dense, docs=docs, fetched=frozenset(fetched)
                )
            )
        return children


class I3QueryProcessor(BestFirstProcessor):
    """The scalar reference engine: the shared walk over
    :class:`~repro.core.candidates.DocAccumulator` cells, plus the two
    accumulator-only searches (streaming and region)."""

    def __init__(self, index: "I3Index", or_lattice: bool = True) -> None:
        super().__init__(index)
        self.or_lattice = or_lattice

    def cells_for(self, semantics: Semantics):
        """``AndSemantics`` or ``OrSemantics`` over document accumulators."""
        if semantics is Semantics.AND:
            return AndSemantics(self.index.eta)
        return OrSemantics(self.index.eta, use_lattice=self.or_lattice)

    # ------------------------------------------------------------------
    # Incremental (streaming) search
    # ------------------------------------------------------------------
    def iter_search(self, query: TopKQuery, ranker: Ranker):
        """Yield matching documents in decreasing score order, lazily.

        The distance-browsing analogue of Algorithm 4: instead of a
        fixed k, results stream out as soon as their exact score
        dominates every remaining cell's upper bound, and cells are only
        expanded when the consumer actually needs more results.  Useful
        for "give me results until I say stop" interfaces; consuming
        exactly k results touches no more pages than a k-query would.

        ``query.k`` is ignored; ``query.semantics`` applies as usual.
        """
        semantics = self.cells_for(query.semantics)
        root = self._root_candidate(query, semantics)
        if root is None:
            return
        counter = itertools.count()
        cells: List[tuple] = []  # max-heap of candidate cells by bound
        ready: List[tuple] = []  # max-heap of exactly-scored documents
        emitted: Set[int] = set()

        def push_cell(candidate: Candidate) -> None:
            if semantics.prune(candidate, query):
                return
            candidate.upper_score = semantics.upper_bound(
                candidate, query, ranker, self.index.grid
            )
            heapq.heappush(
                cells, (-candidate.upper_score, next(counter), candidate)
            )

        push_cell(root)
        while cells or ready:
            # Emit every ready document that strictly beats all remaining
            # cell bounds (a tie is resolved by expanding the cell first,
            # so equal-score results still come out in doc-id order).
            while ready and (not cells or ready[0][0] < cells[0][0]):
                neg_score, doc_id = heapq.heappop(ready)
                if doc_id not in emitted:
                    emitted.add(doc_id)
                    yield ScoredDoc(score=-neg_score, doc_id=doc_id)
            if not cells:
                continue
            _, _, candidate = heapq.heappop(cells)
            if candidate.is_resolved:
                for doc_id, acc in candidate.docs.items():
                    if not semantics.document_qualifies(acc.words, query):
                        continue
                    score = ranker.score_partial(query, acc.x, acc.y, acc.weight_sum)
                    heapq.heappush(ready, (-score, doc_id))
                continue
            for child in self._children_of(candidate, semantics):
                push_cell(child)

    # ------------------------------------------------------------------
    # Region-constrained search (the Section 2 query family with a
    # spatial range constraint instead of a top-k ranking)
    # ------------------------------------------------------------------
    def range_search(
        self, region, words, semantics: Semantics = Semantics.OR
    ) -> List[ScoredDoc]:
        """All documents inside ``region`` matching ``words``.

        Results carry the textual relevance (matched weight sum) as
        their score and are ordered score-descending (doc id ascending
        on ties).  Cells outside the region are skipped outright; under
        AND semantics the signature-intersection prune of Algorithm 5
        applies unchanged — region queries reuse the same summaries.
        """
        words = tuple(dict.fromkeys(words))
        if not words:
            return []
        probe = TopKQuery(
            region.center[0], region.center[1], words, k=1, semantics=semantics
        )
        strategy = self.cells_for(semantics)
        root = self._root_candidate(probe, strategy)
        if root is None:
            return []
        grid = self.index.grid
        hits: List[ScoredDoc] = []
        stack = [root]
        while stack:
            candidate = stack.pop()
            if not region.intersects(grid.rect(candidate.cell)):
                continue
            if strategy.prune(candidate, probe):
                continue
            if candidate.is_resolved:
                for doc_id, acc in candidate.docs.items():
                    if not region.contains_point(acc.x, acc.y):
                        continue
                    if not strategy.document_qualifies(acc.words, probe):
                        continue
                    hits.append(ScoredDoc(score=acc.weight_sum, doc_id=doc_id))
                continue
            stack.extend(self._children_of(candidate, strategy))
        hits.sort(key=lambda h: (-h.score, h.doc_id))
        return hits
