"""The I3 index: a scalable integrated inverted index (paper Section 4).

I3 combines three components:

* an in-memory **lookup table** mapping each keyword to either its root
  summary node (keyword dense in the whole space) or directly to the
  data page of its single keyword cell;
* a disk-resident **head file** of summary nodes for dense keyword
  cells, each carrying signatures and weight upper bounds for pruning;
* a disk-resident **data file** of slotted pages storing the spatial
  tuples of all keyword cells of all inverted lists, intermixed.

Data operations follow the paper's Algorithms 1-3, with one documented
deviation (see ``DESIGN.md``): when a keyword cell overflows its page
and turns dense, its ``capacity + 1`` tuples are *redistributed* into
the four child keyword cells (fresh source ids, pages chosen by the
free-slot allocator) rather than left behind in the overflowing page —
this preserves the paper's core invariant that every non-dense keyword
cell is fetchable with a single page I/O.

Query processing lives in :mod:`repro.core.query`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.headfile import CellPages, ChildPtr, HeadFile, SummaryInfo, SummaryNode
from repro.core.kwcells import DataFile
from repro.core.lookup import LookupTable
from repro.core.query import I3QueryProcessor
from repro.exec.vector import VectorQueryProcessor
from repro.model.document import SpatialDocument
from repro.model.results import ScoredDoc
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.cells import CellGrid, ROOT_CELL, child_cell
from repro.spatial.geometry import Rect
from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.records import Row

__all__ = ["I3Index", "MutationEvent", "DEFAULT_ETA", "DEFAULT_MAX_DEPTH"]

DEFAULT_ETA = 300
"""The paper's tuned signature length (Figure 5)."""

DEFAULT_MAX_DEPTH = 24
"""Quadtree depth limit; cells this deep chain pages instead of splitting,
which keeps pathological co-located tuple sets from splitting forever."""


@dataclass(frozen=True, slots=True)
class MutationEvent:
    """One observed index mutation, delivered to mutation listeners.

    Attributes:
        kind: ``"insert"`` / ``"delete"`` for a document operation
            (``update_document`` emits its delete and insert halves) and
            ``"bulk_load"`` (``doc`` is then ``None``).
        epoch: The index mutation epoch *after* the operation applied.
        doc: The document the operation concerned, if any.
    """

    kind: str
    epoch: int
    doc: Optional[SpatialDocument]


class I3Index:
    """The integrated inverted index for top-k spatial keyword search.

    Attributes:
        space: The data-space rectangle (the root quadtree cell).
        eta: Signature bitmap length used in summary nodes.
        grid: Shared quadtree cell geometry.
        stats: I/O counters covering the head and data files.
        epoch: Mutation counter, bumped by every tuple a document
            operation inserts or deletes and by a bulk load.  External
            result caches (see :mod:`repro.service.cache`) stamp
            entries with it, which makes cached results
            self-invalidating.
    """

    def __init__(
        self,
        space: Rect,
        eta: int = DEFAULT_ETA,
        page_size: int = DEFAULT_PAGE_SIZE,
        max_depth: int = DEFAULT_MAX_DEPTH,
        stats: Optional[IOStats] = None,
    ) -> None:
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.space = space
        self.eta = eta
        self.max_depth = max_depth
        self.stats = stats if stats is not None else IOStats()
        self.grid = CellGrid(space)
        self.data = DataFile(stats=self.stats, page_size=page_size)
        self.head = HeadFile(stats=self.stats, page_size=page_size)
        self.lookup = LookupTable()
        self.num_documents = 0
        self.num_tuples = 0
        self.epoch = 0
        # Per-keyword max_s upper bounds advertised to the cluster layer
        # (see keyword_bound); missing entries are computed on demand.
        self._word_bound: Dict[str, float] = {}
        self._vector_processor = VectorQueryProcessor(self)
        self._tuple_processor = I3QueryProcessor(self)
        # Mutation listeners (the streaming subsystem's hook).  Events
        # are emitted synchronously after each mutation applies; with no
        # listeners registered the write path pays one truthiness check.
        self._listeners: List[Callable[[MutationEvent], None]] = []

    @property
    def capacity(self) -> int:
        """Keyword-cell capacity: the paper's P/B tuples per page."""
        return self.data.capacity

    def clear_cache(self) -> None:
        """Drop the data file's decoded cells, so the next query reads
        every page it needs — run before a query (set) to measure
        cold-cache I/O like the paper."""
        self.data.clear_cache()

    # ------------------------------------------------------------------
    # Mutation listeners
    # ------------------------------------------------------------------
    def add_mutation_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Register a callback invoked after every mutation applies.

        Listeners run synchronously on the mutating thread, after the
        index state (and :attr:`epoch`) reflects the operation — a
        listener that queries the index observes the post-mutation
        state.  Listeners must not mutate the index.
        """
        self._listeners.append(listener)

    def remove_mutation_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Unregister a previously added listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, kind: str, doc: Optional[SpatialDocument]) -> None:
        if not self._listeners:
            return
        event = MutationEvent(kind=kind, epoch=self.epoch, doc=doc)
        for listener in list(self._listeners):
            listener(event)

    # ------------------------------------------------------------------
    # Document-level operations
    # ------------------------------------------------------------------
    def insert_document(self, doc: SpatialDocument) -> None:
        """Insert a spatial document: one ``(doc_id, x, y, weight)`` row
        per distinct keyword, each placed by Algorithm 1."""
        doc_id, x, y = doc.doc_id, doc.x, doc.y
        if not self.space.contains_point(x, y):
            raise ValueError(f"document {doc_id} lies outside the data space")
        for word, weight in doc.terms.items():
            self._insert_tuple(word, (doc_id, x, y, weight))
        self.num_documents += 1
        self._emit("insert", doc)

    def delete_document(self, doc: SpatialDocument) -> bool:
        """Delete a previously inserted document; True if all its tuples
        were found."""
        found = [
            self._delete_tuple(word, doc.doc_id, doc.x, doc.y) for word in doc.terms
        ]
        if any(found):  # an absent document was never counted
            self.num_documents -= 1
        self._emit("delete", doc)
        return all(found)

    def update_document(self, old: SpatialDocument, new: SpatialDocument) -> None:
        """Update = delete followed by insert (paper Section 4.5): the
        location or keywords may have changed, moving tuples across
        keyword cells."""
        if old.doc_id != new.doc_id:
            raise ValueError("update must keep the document id")
        self.delete_document(old)
        self.insert_document(new)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, documents) -> None:
        """Build the index from scratch over a document collection.

        Shreds every document into ``(doc_id, x, y, weight)`` rows
        grouped by keyword — checking every document before anything is
        written, so a refused load leaves the index empty — and
        materialises each keyword's quadtree decomposition top-down.
        The resulting cell structure is identical to what incremental
        insertion produces (a keyword cell splits iff it holds more than
        ``capacity`` tuples, and splits never merge back), but each page
        and summary node is written once instead of once per tuple.

        The index must be empty.
        """
        if self.num_tuples or self.num_documents:
            raise ValueError("bulk_load requires an empty index")
        contains = self.space.contains_point
        by_word: Dict[str, List[Row]] = {}
        count = 0
        for doc in documents:
            doc_id, x, y = doc.doc_id, doc.x, doc.y
            if not contains(x, y):
                raise ValueError(f"document {doc_id} lies outside the data space")
            count += 1
            for word, weight in doc.terms.items():
                rows = by_word.get(word)
                if rows is None:
                    rows = by_word[word] = []
                rows.append((doc_id, x, y, weight))
        for word, rows in by_word.items():
            if len(rows) <= self.capacity:
                self.lookup.set_non_dense(word, self.data.create_cell(rows))
            else:
                node_id, _ = self._build_dense(word, ROOT_CELL, 0, rows)
                self.lookup.set_dense(word, node_id)
            self.num_tuples += len(rows)
            self._word_bound[word] = max(row[3] for row in rows)
        self.num_documents = count
        self.epoch += 1
        self._emit("bulk_load", None)

    # ------------------------------------------------------------------
    # Tuple insertion (Algorithms 1-3)
    # ------------------------------------------------------------------
    def _insert_tuple(self, word: str, row: Row) -> None:
        """Algorithm 1: place one of a document's rows in ``word``'s
        inverted list."""
        entry = self.lookup.get(word)
        self.num_tuples += 1
        self.epoch += 1
        if entry is None:
            # A brand-new keyword: one tuple, one cell, any page with room.
            cell = self.data.create_cell([row])
            self.lookup.set_non_dense(word, cell)
            self._word_bound[word] = row[3]
        else:
            cached_bound = self._word_bound.get(word)
            if cached_bound is not None:
                self._word_bound[word] = max(cached_bound, row[3])
            if not entry.dense:
                self._insert_non_dense_root(word, entry.target, row)
            else:
                self._insert_dense(word, entry.target, row)

    def _insert_non_dense_root(self, word: str, cell: CellPages, row: Row) -> None:
        """Algorithm 2: the keyword is not dense in the root cell."""
        if cell.count < self.capacity:
            self.data.insert_into_cell(cell, row)
            return
        # The root keyword cell overflows: the keyword becomes dense in
        # the whole space; redistribute into child keyword cells.
        rows = self.data.dissolve_cell(cell)
        rows.append(row)
        node_id, _ = self._build_dense(word, ROOT_CELL, 0, rows)
        self.lookup.set_dense(word, node_id)

    def _insert_dense(self, word: str, node_id: int, row: Row) -> None:
        """Algorithms 1 and 3: descend the dense chain, updating summaries."""
        doc_id, x, y, weight = row
        node = self.head.read(node_id)
        cell_id = ROOT_CELL
        level = 0
        while True:
            quadrant = self.grid.quadrant_of(cell_id, x, y)
            node.own.add(doc_id, weight)
            node.children[quadrant].add(doc_id, weight)
            ptr = node.child_ptrs[quadrant]
            child_id = child_cell(cell_id, quadrant)
            child_level = level + 1
            if isinstance(ptr, int):
                # Child keyword cell still dense: persist and descend.
                self.head.write(node_id, node)
                node_id, node = ptr, self.head.read(ptr)
                cell_id, level = child_id, child_level
                continue
            if ptr is None:
                node.child_ptrs[quadrant] = self.data.create_cell([row])
                self.head.write(node_id, node)
                return
            cell = ptr
            if cell.count < self.capacity or child_level >= self.max_depth:
                self.data.insert_into_cell(
                    cell, row, allow_overflow=child_level >= self.max_depth
                )
                self.head.write(node_id, node)
                return
            # The child keyword cell overflows and may still split.
            rows = self.data.dissolve_cell(cell)
            rows.append(row)
            node.child_ptrs[quadrant], _ = self._build_dense(
                word, child_id, child_level, rows
            )
            self.head.write(node_id, node)
            return

    def _build_dense(
        self, word: str, cell_id: int, level: int, rows: List[Row]
    ) -> Tuple[int, SummaryInfo]:
        """Turn an overflowing keyword cell into a summary node subtree.

        Partitions the rows by quadrant in one pass, creates non-dense
        child cells in the data file, and recurses for any child that
        itself exceeds capacity (possible when every row falls in one
        quadrant).  Returns the node id and a summary of the whole cell
        for the parent's child entry: a node's summary is the union of
        its children's, so each row is summarised once, in its leaf cell.
        """
        # Rect.quadrant_of's test; the rows already lie inside the cell.
        cx, cy = self.grid.rect(cell_id).center
        groups: Tuple[List[Row], ...] = ([], [], [], [])
        for row in rows:
            groups[(row[2] >= cy) << 1 | (row[1] >= cx)].append(row)
        children: List[SummaryInfo] = []
        child_ptrs: List[ChildPtr] = []
        child_level = level + 1
        for quadrant, group in enumerate(groups):
            if not group:
                ptr, info = None, SummaryInfo.empty(self.eta)
            elif len(group) > self.capacity and child_level < self.max_depth:
                ptr, info = self._build_dense(
                    word, child_cell(cell_id, quadrant), child_level, group
                )
            else:
                ptr = self.data.create_cell(group)
                info = SummaryInfo.of_rows(self.eta, group)
            child_ptrs.append(ptr)
            children.append(info)
        own = SummaryInfo.combine(self.eta, children)
        node = SummaryNode(
            word=word, cell=cell_id, own=own, children=children, child_ptrs=child_ptrs
        )
        return self.head.allocate(node), own.copy()

    # ------------------------------------------------------------------
    # Tuple deletion (Section 4.5)
    # ------------------------------------------------------------------
    def _delete_tuple(self, word: str, doc_id: int, x: float, y: float) -> bool:
        """Delete one of a document's tuples; returns whether it was found.

        For a dense keyword the leaf cell's summary is rebuilt by
        re-scanning its page and the change is propagated up the summary
        chain (signature bitmaps cannot unset bits incrementally).
        Dense status is sticky: a cell that shrinks below capacity keeps
        its summary node, matching the paper's lack of a merge step.
        """
        entry = self.lookup.get(word)
        if entry is None:
            return False
        if not entry.dense:
            cell = entry.target
            if not self.data.delete_from_cell(cell, doc_id):
                return False
            self.num_tuples -= 1
            self.epoch += 1
            if cell.count == 0:
                self.lookup.remove(word)
                self._word_bound.pop(word, None)
            return True
        # Descend the dense chain, remembering the path for propagation.
        path: List[tuple[int, SummaryNode, int]] = []
        node_id = entry.target
        node = self.head.read(node_id)
        cell_id = ROOT_CELL
        while True:
            quadrant = self.grid.quadrant_of(cell_id, x, y)
            ptr = node.child_ptrs[quadrant]
            if isinstance(ptr, int):
                path.append((node_id, node, quadrant))
                node_id, node = ptr, self.head.read(ptr)
                cell_id = child_cell(cell_id, quadrant)
                continue
            if ptr is None:
                return False
            found, remaining = self.data.delete_and_collect(ptr, doc_id)
            if not found:
                return False
            self.num_tuples -= 1
            self.epoch += 1
            node.children[quadrant] = SummaryInfo.of_rows(self.eta, remaining)
            if ptr.count == 0:
                node.child_ptrs[quadrant] = None
            node.own = SummaryInfo.combine(self.eta, node.children)
            self.head.write(node_id, node)
            descendant_own = node.own
            for ancestor_id, ancestor, through in reversed(path):
                ancestor.children[through] = descendant_own.copy()
                ancestor.own = SummaryInfo.combine(self.eta, ancestor.children)
                self.head.write(ancestor_id, ancestor)
                descendant_own = ancestor.own
            return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def engine_processor(self, engine: Optional[str] = None):
        """The query processor for ``engine``, the one place an engine
        name resolves.

        ``None`` and ``"vector"`` are the columnar cell model every query
        runs on (:class:`~repro.exec.vector.VectorQueryProcessor`);
        ``"tuple"`` names the scalar reference
        (:class:`~repro.core.query.I3QueryProcessor`), which answers
        byte-identically and is reached only by name.  Any other name
        is a ``ValueError``.
        """
        if engine is None or engine == "vector":
            return self._vector_processor
        if engine == "tuple":
            return self._tuple_processor
        raise ValueError(
            f"unknown engine {engine!r}; expected 'tuple' or 'vector'"
        )

    def query(
        self,
        query: TopKQuery,
        ranker: Optional[Ranker] = None,
        io_sink: Optional[IOStats] = None,
        engine: Optional[str] = None,
    ) -> List[ScoredDoc]:
        """Answer a top-k spatial keyword query (Algorithm 4).

        ``io_sink`` is an optional external :class:`IOStats` receiving a
        private copy of this call's I/O (this thread's only), letting
        concurrent callers attribute I/O per query.

        ``engine`` names the tuple reference (``"tuple"``) instead of
        the default cell model (see :meth:`engine_processor`).
        """
        if ranker is None:
            ranker = Ranker(self.space)
        processor = self.engine_processor(engine)
        if io_sink is None:
            return processor.search(query, ranker)
        with self.stats.tee(io_sink):
            return processor.search(query, ranker)

    def query_many(
        self,
        queries,
        ranker: Optional[Ranker] = None,
        io_sink: Optional[IOStats] = None,
        engine: Optional[str] = None,
    ) -> List[List[ScoredDoc]]:
        """Answer a batch of queries; results in input order.

        Each answer is exactly what :meth:`query` would return for that
        query alone — the batch is an amortization, never an
        approximation.  Identical queries execute once and every
        occurrence gets its own copy of the result list; cells
        are shared the way all queries share them, through the data
        file's decoded-cell cache
        (:class:`~repro.core.kwcells.DecodedCellCache`), which is why the
        batch keeps no cell state of its own.  A query that raises
        aborts the batch.

        As with :meth:`query`, the caller keeps writers out for the
        duration of the call (the service layer holds its read lock
        across the whole batch), which gives every answer one epoch.
        """
        if ranker is None:
            ranker = Ranker(self.space)
        processor = self.engine_processor(engine)

        def run_all() -> List[List[ScoredDoc]]:
            unique: Dict[TopKQuery, List[ScoredDoc]] = {}
            out = []
            for query in queries:
                hit = unique.get(query)
                if hit is None:
                    hit = unique[query] = processor.search(query, ranker)
                out.append(list(hit))
            return out

        if io_sink is None:
            return run_all()
        with self.stats.tee(io_sink):
            return run_all()

    def iter_query(self, query: TopKQuery, ranker: Optional[Ranker] = None):
        """Stream matching documents best-first, without a k bound.

        A lazy generator: consuming n results reads exactly the pages a
        top-n query reads.  ``query.k`` is ignored.
        """
        if ranker is None:
            ranker = Ranker(self.space)
        return self.engine_processor().iter_search(query, ranker)

    def range_query(self, region: Rect, words, semantics=None) -> List[ScoredDoc]:
        """All documents inside ``region`` matching ``words``.

        The region-constrained variant of spatial keyword search (the
        paper's Section 2 first query family).  Scores are the textual
        relevance (matched weight sums); ordering is score-descending.
        """
        from repro.model.query import Semantics

        if semantics is None:
            semantics = Semantics.OR
        return self.engine_processor().range_search(region, words, semantics)

    def documents(self) -> List[SpatialDocument]:
        """Reconstruct every stored document, in id order.

        Inverts the textual partition: walks each keyword's cell chain
        and regroups the stored tuples by document id.  Weights come
        back exactly as stored (f32-quantised), so reinserting a
        reconstructed document elsewhere reproduces bit-identical
        scores — the property ``ClusterService.rebalance`` relies on
        when it moves documents between shards.
        """
        locations: Dict[int, tuple] = {}
        terms: Dict[int, Dict[str, float]] = {}

        def absorb(word: str, tuples) -> None:
            for record in tuples:
                locations[record.doc_id] = (record.x, record.y)
                terms.setdefault(record.doc_id, {})[word] = record.weight

        def walk(word: str, node_id: int) -> None:
            node = self.head._nodes[node_id]  # bypass I/O counters
            for ptr in node.child_ptrs:
                if ptr is None:
                    continue
                if isinstance(ptr, int):
                    walk(word, ptr)
                else:
                    absorb(word, self.data.read_cell(ptr))

        for word, entry in self.lookup.items():
            if entry.dense:
                walk(word, entry.target)
            else:
                absorb(word, self.data.read_cell(entry.target))
        return [
            SpatialDocument(doc_id, x, y, terms[doc_id])
            for doc_id, (x, y) in sorted(locations.items())
        ]

    # ------------------------------------------------------------------
    # Shard-level score bounds (cluster layer)
    # ------------------------------------------------------------------
    def keyword_bound(self, word: str) -> Optional[float]:
        """Upper bound on the stored ``max_s`` term weight of ``word``.

        ``None`` means the keyword holds no tuples here — a shard router
        can rule this index out entirely for AND semantics.  The bound is
        *admissible, not tight*: inserts keep it exact, deletions leave
        it sticky (an overestimate only ever costs pruning power, never
        correctness), and on an index restored from disk the first call
        per keyword recomputes it from the root summary node (dense) or
        the keyword cell's page (non-dense) and memoises the result.
        """
        entry = self.lookup.get(word)
        if entry is None:
            return None
        bound = self._word_bound.get(word)
        if bound is not None:
            return bound
        if entry.dense:
            # Bypass the I/O counters like check_invariants: advertising
            # bounds is router metadata, not query work.
            bound = self.head._nodes[entry.target].own.max_s
        else:
            tuples = self.data.read_cell(entry.target)
            bound = max((t.weight for t in tuples), default=0.0)
        self._word_bound[word] = bound
        return bound

    def keyword_bounds(self, words) -> Dict[str, float]:
        """``{word: max_s upper bound}`` for the given words present here.

        Absent keywords are omitted, so ``len(result) < len(words)``
        tells an AND-semantics router this index cannot contribute, and
        an empty result tells an OR-semantics router the same.
        """
        bounds: Dict[str, float] = {}
        for word in words:
            bound = self.keyword_bound(word)
            if bound is not None:
                bounds[word] = bound
        return bounds

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self):
        """Structural snapshot (see :mod:`repro.core.introspect`)."""
        from repro.core.introspect import describe

        return describe(self)

    def size_breakdown(self) -> Dict[str, int]:
        """Bytes per component — the paper's Table 5 columns for I3."""
        return {
            "lookup": self.lookup.size_bytes,
            "head": self.head.size_bytes,
            "data": self.data.size_bytes,
        }

    @property
    def size_bytes(self) -> int:
        """Total on-disk size."""
        return sum(self.size_breakdown().values())

    def check_invariants(self) -> None:
        """Assert structural invariants; used heavily by the test suite.

        - every stored tuple is reachable through exactly one keyword cell,
        - non-dense cells fit one page (except at the depth limit),
        - summary counts equal the sum over children,
        - summary signatures contain every reachable doc id,
        - ``max_s`` is an upper bound on reachable weights.
        """
        reached = 0
        for word, entry in self.lookup.items():
            if not entry.dense:
                cell = entry.target
                tuples = self.data.read_cell(cell)
                assert len(tuples) == cell.count, f"count drift in root cell of {word!r}"
                assert cell.count <= self.capacity or self.max_depth == 0
                reached += len(tuples)
                continue
            reached += self._check_node(word, entry.target, ROOT_CELL, 0)
        assert reached == self.num_tuples, (
            f"reached {reached} tuples, expected {self.num_tuples}"
        )

    def _check_node(self, word: str, node_id: int, cell_id: int, level: int) -> int:
        node = self.head._nodes[node_id]  # bypass I/O counters
        assert node.cell == cell_id, f"node {node_id} cell mismatch"
        total = 0
        child_sum = SummaryInfo.empty(self.eta)
        for quadrant, ptr in enumerate(node.child_ptrs):
            info = node.children[quadrant]
            if ptr is None:
                assert info.count == 0, "absent child with non-zero count"
                continue
            child_id = child_cell(cell_id, quadrant)
            rect = self.grid.rect(child_id)
            if isinstance(ptr, int):
                total += self._check_node(word, ptr, child_id, level + 1)
                child_node = self.head._nodes[ptr]
                assert child_node.own.count == info.count, "stale child summary"
            else:
                tuples = self.data.read_cell(ptr)
                assert len(tuples) == ptr.count == info.count, (
                    f"cell count drift for {word!r} in cell {child_id}"
                )
                assert len(ptr.pages) <= 1 or level + 1 >= self.max_depth, (
                    "multi-page cell above the depth limit"
                )
                for record in tuples:
                    assert rect.contains_point(record.x, record.y)
                    assert info.sig.might_contain(record.doc_id), (
                        "signature lost a doc id"
                    )
                    assert record.weight <= info.max_s + 1e-9, "max_s undershoots"
                total += len(tuples)
        for info in node.children:
            child_sum.sig = child_sum.sig.union(info.sig)
            child_sum.max_s = max(child_sum.max_s, info.max_s)
            child_sum.count += info.count
        assert node.own.count == child_sum.count == total, (
            f"own count {node.own.count} != children {child_sum.count} != {total}"
        )
        assert node.own.max_s >= child_sum.max_s - 1e-9
        return total
