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
beats delta, the collector's current cut-off score.

One loop, two cell models, three collectors: the walk is written once,
in :class:`BestFirstProcessor`; how fetched tuples are held, bounded and
scored is the *cell model* (``repro.exec.vector``: columnar, what every
query runs on; :class:`I3QueryProcessor`: the scalar ``AndSemantics`` /
``OrSemantics`` reference, reached by ``engine="tuple"``);
what becomes of the scored documents is the search's *collector* — the
top k, a best-first stream, or every match inside a region.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.core.and_semantics import AndSemantics
from repro.core.candidates import Candidate, DenseRef
from repro.core.or_semantics import OrSemantics
from repro.model.query import Semantics, TopKQuery
from repro.model.results import AllHitsCollector, ScoredDoc, TopKCollector
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
    tuples.  The three public searches are three **collectors** on the
    one loop: a collector provides ``delta``, the score strictly below
    which nothing matters to it any more, and ``offer(doc_id, score)``
    — ``TopKCollector`` for :meth:`search`, ``AllHitsCollector`` for
    :meth:`iter_search` and :meth:`range_search`.
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

    def _walk(
        self, query: TopKQuery, ranker: Ranker, collector, spatial_filter=None, trace=None
    ) -> Iterator[float]:
        """The one loop.  Yields each candidate's upper bound just before
        processing it (finalise into ``collector``, or expand): nothing
        unseen beats that bound, and a driver that stops, stops the I/O."""
        if trace is None:
            trace = QueryTrace()
        self._trace_local.trace = trace
        cells = self.cells_for(query.semantics)
        root = self._root_candidate(query, cells)
        if root is None:
            return
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
            yield -neg_upper
            if candidate.is_resolved:
                cells.finalise(
                    candidate, query, ranker, collector, trace, spatial_filter
                )
                continue
            # Expansion (Algorithm 4, lines 12-24).
            for child in self._children_of(candidate, cells):
                consider(child)

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
        collector = TopKCollector(query.k)
        for _ in self._walk(query, ranker, collector, spatial_filter, trace):
            pass
        return collector.results()

    def iter_search(self, query: TopKQuery, ranker: Ranker) -> Iterator[ScoredDoc]:
        """Yield matching documents in decreasing score order, lazily.

        The distance-browsing analogue of Algorithm 4: instead of a
        fixed k, results stream out as soon as their exact score
        dominates every remaining cell's upper bound, and cells are only
        expanded when the consumer actually needs more results.  Useful
        for "give me results until I say stop" interfaces; consuming
        exactly n results reads the pages a top-n query reads.

        ``query.k`` is ignored; ``query.semantics`` applies as usual.
        """
        ready = AllHitsCollector()
        # Before a candidate is processed, emit every ready document that
        # strictly beats its bound (a tie is resolved by processing the
        # cell first, so equal-score results still come out in doc-id
        # order); the closing -inf flushes what is left.
        for bound in itertools.chain(self._walk(query, ranker, ready), [float("-inf")]):
            while ready.heap and -ready.heap[0][0] > bound:
                neg_score, doc_id = heapq.heappop(ready.heap)
                yield ScoredDoc(score=-neg_score, doc_id=doc_id)

    def range_search(
        self, region, words, semantics: Semantics = Semantics.OR
    ) -> List[ScoredDoc]:
        """All documents inside ``region`` matching ``words`` (the
        Section 2 query family with a spatial range constraint instead
        of a top-k ranking).

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
        inside = SpatialFilter()  # the rectangle: exact on cells and on points
        inside.may_intersect, inside.contains = region.intersects, region.contains_point
        # alpha = 0: combine() returns the matched weight sum bit for bit.
        textual = Ranker(self.index.space, 0.0)
        hits = AllHitsCollector()
        for _ in self._walk(probe, textual, hits, inside):
            pass
        return hits.results()

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
        """Materialise the four child candidates: each dense keyword
        moves down its summary-node chain or, where it stops being
        dense, is fetched into the child's docs."""
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
    :class:`~repro.core.candidates.DocAccumulator` cells."""

    def __init__(self, index: "I3Index", or_lattice: bool = True) -> None:
        super().__init__(index)
        self.or_lattice = or_lattice

    def cells_for(self, semantics: Semantics):
        """``AndSemantics`` or ``OrSemantics`` over document accumulators."""
        if semantics is Semantics.AND:
            return AndSemantics(self.index.eta)
        return OrSemantics(self.index.eta, use_lattice=self.or_lattice)
