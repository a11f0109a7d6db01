"""The IR-tree baseline (Cong et al. [6], Li et al. [14]).

An R-tree in which every node is augmented with an *inverted file* over
its entries:

* an **internal** node's inverted file maps each keyword to, per child
  entry, the maximum term weight anywhere in that child's subtree (the
  "pseudo-document" of the child);
* a **leaf** node's inverted file maps each keyword to the actual
  ``(document, weight)`` postings of the documents in the leaf.

Query processing is best-first: a priority queue over entries ordered by
``alpha * phi_s(MBR) + (1-alpha) * sum of per-keyword maxima``, which
upper-bounds the score of every document beneath the entry.  Scoring the
entries of a node requires fetching each query keyword's posting list
from that node's inverted file — one inverted-file I/O per (node,
keyword), the access pattern whose cost the paper's Figures 8-9 show
dominating IR-tree queries (their implementation kept a B-tree per
inverted file).

Storage model: node pages live in the tree's
:class:`~repro.storage.objectpager.ObjectPager`; each node's inverted
file occupies its own whole pages in a separate component.  Every
node duplicating its subtree's vocabulary is what makes the inverted
file component explode with scale (Table 5's 623 GB cell).

Maintenance model: inserting a document merges its terms into the
pseudo-documents along the insertion path (cheap); node splits rebuild
the two result nodes' inverted files from their entries (expensive, and
increasingly frequent with scale — the paper's Figure 6 construction
blow-up).  Deletion rebuilds summaries bottom-up and is provided for
completeness; the paper's IR-tree had no update implementation at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect
from repro.spatial.rtree import REntry, RNode, RTree
from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE

__all__ = ["IRTree"]

_POSTING_BYTES = 12  # doc/child reference (8) + f32 weight
_WORD_HEADER_BYTES = 9  # word length byte + 8-byte offset into the file
_BTREE_ENTRY_BYTES = 16  # per-keyword B-tree key + child pointer
_BTREE_FILL_FACTOR = 0.67  # typical B-tree page utilisation


class IRTree:
    """R-tree with per-node inverted files for top-k spatial keyword search.

    Attributes:
        space: The data-space rectangle.
        tree: The underlying paged R-tree (leaf payloads are doc ids).
        stats: Shared I/O counters (``<component>.nodes`` for tree pages,
            ``<component>.inv`` for inverted-file pages).
    """

    def __init__(
        self,
        space: Rect,
        stats: Optional[IOStats] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        max_entries: Optional[int] = None,
        component: str = "irtree",
        insertion_policy: Optional["InsertionPolicy"] = None,
    ) -> None:
        self.space = space
        self.stats = stats if stats is not None else IOStats()
        self.page_size = page_size
        self.inv_component = f"{component}.inv"
        self.tree = _SummarisedRTree(
            owner=self,
            stats=self.stats,
            component=f"{component}.nodes",
            page_size=page_size,
            max_entries=max_entries,
        )
        self.insertion_policy = insertion_policy
        self._docs: Dict[int, SpatialDocument] = {}
        # Per-node pseudo-document: keyword -> max weight in the subtree.
        self._summaries: Dict[int, Dict[str, float]] = {self.tree.root_id: {}}

    def __len__(self) -> int:
        return len(self._docs)

    @property
    def num_documents(self) -> int:
        """Indexed document count (API parity with the other indexes)."""
        return len(self._docs)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_document(self, doc: SpatialDocument) -> None:
        """Insert a document: R-tree insert + pseudo-document merges."""
        if not self.space.contains_point(doc.x, doc.y):
            raise ValueError(f"document {doc.doc_id} lies outside the data space")
        if doc.doc_id in self._docs:
            raise ValueError(f"document {doc.doc_id} already indexed")
        self._docs[doc.doc_id] = doc
        mbr = Rect.around_point(doc.x, doc.y)
        # Descend to a leaf, merging the document's terms into every
        # pseudo-document along the way.
        node = self.tree._read(self.tree.root_id)
        self._merge_terms(node.node_id, doc.terms)
        while not node.is_leaf:
            entry = self._choose_subtree(node, mbr, doc)
            node = self.tree._read(entry.child)
            self._merge_terms(node.node_id, doc.terms)
        node.entries.append(REntry(mbr=mbr, payload=doc.doc_id))
        self.tree._count += 1
        self.tree._write(node)
        self.tree._handle_overflow_and_adjust(node)

    def _choose_subtree(self, node: RNode, mbr: Rect, doc: SpatialDocument) -> REntry:
        if self.insertion_policy is not None:
            return self.insertion_policy.choose(self, node, mbr, doc)
        return min(node.entries, key=lambda e: (e.mbr.enlargement(mbr), e.mbr.area))

    def _merge_terms(self, node_id: int, terms) -> None:
        """Fold a document's terms into a node's pseudo-document.

        The paper's IR-tree implementation keeps a B-tree per node's
        inverted file, so each of the document's keywords is a separate
        lookup-and-update there — one read and one write per keyword per
        node on the insertion path.  This per-keyword charging is what
        makes IR-tree maintenance blow up with scale (Figure 6) and with
        document length (the Wikipedia corpus).
        """
        n = len(terms)
        self.stats.record_rewrite(self.inv_component, n, key=node_id)
        summary = self._summaries.setdefault(node_id, {})
        for word, weight in terms.items():
            if weight > summary.get(word, 0.0):
                summary[word] = weight

    def delete_document(self, doc: SpatialDocument) -> bool:
        """Delete a document and rebuild every affected pseudo-document.

        Pseudo-document maxima cannot be decremented incrementally, so
        this recomputes all summaries bottom-up — correct but costly,
        like the real structure (the paper's IR-tree shipped without
        updates and is excluded from the update experiment).
        """
        if doc.doc_id not in self._docs:
            return False
        ok = self.tree.delete_point(doc.x, doc.y, doc.doc_id)
        if ok:
            del self._docs[doc.doc_id]
            self.rebuild_summaries()
        return ok

    def rebuild_summaries(self) -> None:
        """Recompute every node's pseudo-document from scratch."""
        self._summaries = {}
        self._rebuild_node(self.tree.root_id)

    def _rebuild_node(self, node_id: int) -> Dict[str, float]:
        node = self.tree.pager._objects[node_id]
        summary: Dict[str, float] = {}
        if node.is_leaf:
            for entry in node.entries:
                for word, weight in self._docs[entry.payload].terms.items():
                    if weight > summary.get(word, 0.0):
                        summary[word] = weight
        else:
            for entry in node.entries:
                for word, weight in self._rebuild_node(entry.child).items():
                    if weight > summary.get(word, 0.0):
                        summary[word] = weight
        self._summaries[node_id] = summary
        return summary

    def _rebuild_one(self, node: RNode) -> None:
        """Rebuild a single node's pseudo-document (after a split).

        A split re-materialises the node's whole inverted file: the
        dominant and scale-growing part of IR-tree maintenance ("all the
        textual information in the node has to be re-organized",
        Section 1).  Charged as writing every page of the new file.
        """
        summary: Dict[str, float] = {}
        if node.is_leaf:
            for entry in node.entries:
                for word, weight in self._docs[entry.payload].terms.items():
                    if weight > summary.get(word, 0.0):
                        summary[word] = weight
        else:
            for entry in node.entries:
                child_summary = self._summaries.get(entry.child, {})
                for word, weight in child_summary.items():
                    if weight > summary.get(word, 0.0):
                        summary[word] = weight
        self._summaries[node.node_id] = summary
        file_bytes = sum(_WORD_HEADER_BYTES + _POSTING_BYTES for _ in summary)
        self.stats.record_write(self.inv_component, max(1, -(-file_bytes // self.page_size)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: TopKQuery, ranker: Ranker) -> List[ScoredDoc]:
        """Best-first top-k search with pseudo-document pruning."""
        import heapq
        import itertools

        collector = TopKCollector(query.k)
        counter = itertools.count()
        heap: List[Tuple[float, int, int]] = []
        heap.append((-float("inf"), next(counter), self.tree.root_id))
        while heap:
            neg_bound, _, node_id = heapq.heappop(heap)
            # Strict comparison: bounds equal to delta are still explored
            # so equal-score ties resolve by doc id like the oracle.
            if -neg_bound < collector.delta:
                break
            node = self.tree._read(node_id)
            postings = self._fetch_postings(node, query.words)
            for idx, entry in enumerate(node.entries):
                weights = [
                    postings[word].get(idx) for word in query.words
                ]
                if query.semantics is Semantics.AND and any(
                    w is None for w in weights
                ):
                    continue
                matched = sum(w for w in weights if w is not None)
                if node.is_leaf:
                    phi_s = ranker.spatial_proximity(
                        query.x, query.y, entry.mbr.min_x, entry.mbr.min_y
                    )
                    if matched > 0.0 or query.semantics is Semantics.AND:
                        collector.offer(
                            entry.payload, ranker.combine(phi_s, matched)
                        )
                elif matched > 0.0 or query.semantics is Semantics.AND:
                    bound = ranker.combine(
                        ranker.spatial_upper_bound(query.x, query.y, entry.mbr),
                        matched,
                    )
                    if bound >= collector.delta:
                        heapq.heappush(heap, (-bound, next(counter), entry.child))
        return collector.results()

    def _fetch_postings(
        self, node: RNode, words: Iterable[str]
    ) -> Dict[str, Dict[int, float]]:
        """Per query keyword, the node's posting list keyed by entry index.

        Costs one inverted-file I/O per keyword — the lookup in the
        node's inverted file happens whether or not the keyword is
        present (absence is only known after the lookup).
        """
        out: Dict[str, Dict[int, float]] = {}
        for word in words:
            self.stats.record_read(self.inv_component)
            per_entry: Dict[int, float] = {}
            if node.is_leaf:
                for idx, entry in enumerate(node.entries):
                    weight = self._docs[entry.payload].terms.get(word)
                    if weight is not None:
                        per_entry[idx] = weight
            else:
                for idx, entry in enumerate(node.entries):
                    weight = self._summaries.get(entry.child, {}).get(word)
                    if weight is not None:
                        per_entry[idx] = weight
            out[word] = per_entry
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def inverted_file_bytes(self) -> int:
        """On-disk size of all per-node inverted files.

        Models the paper's implementation: each node's inverted file is
        a B-tree keyed by keyword.  Per node that costs, beyond the raw
        postings, a B-tree entry per distinct keyword and the usual
        ~2/3 page fill factor, with a one-page minimum per file.  The
        resulting duplication of the vocabulary at every tree level is
        what makes this component explode with scale (Table 5).
        """
        total_pages = 0
        for node in self.tree.nodes():
            summary = self._summaries.get(node.node_id, {})
            node_bytes = len(summary) * (_WORD_HEADER_BYTES + _BTREE_ENTRY_BYTES)
            if node.is_leaf:
                for entry in node.entries:
                    node_bytes += _POSTING_BYTES * len(self._docs[entry.payload].terms)
            else:
                for word in summary:
                    node_bytes += _POSTING_BYTES * sum(
                        1
                        for entry in node.entries
                        if word in self._summaries.get(entry.child, {})
                    )
            padded = int(node_bytes / _BTREE_FILL_FACTOR)
            total_pages += max(1, -(-padded // self.page_size))
        return total_pages * self.page_size

    def size_breakdown(self) -> Dict[str, int]:
        """Bytes per component — Table 5's IR-tree columns."""
        return {
            "rtree": self.tree.size_bytes,
            "inverted": self.inverted_file_bytes(),
        }

    @property
    def size_bytes(self) -> int:
        """Total on-disk size."""
        return sum(self.size_breakdown().values())


class _SummarisedRTree(RTree):
    """R-tree that keeps its owner's pseudo-documents fresh across splits."""

    def __init__(self, owner: IRTree, **kwargs) -> None:
        self._owner: Optional[IRTree] = None
        super().__init__(**kwargs)
        self._owner = owner

    def _split(self, node: RNode) -> RNode:
        sibling = super()._split(node)
        if self._owner is not None:
            self._owner._rebuild_one(node)
            self._owner._rebuild_one(sibling)
        return sibling

    def _grow_root(self, old_root: RNode, sibling: RNode) -> None:
        super()._grow_root(old_root, sibling)
        if self._owner is not None:
            self._owner._rebuild_one(self.pager._objects[self.root_id])


class InsertionPolicy:
    """Strategy hook for choosing the insertion subtree (DIR-tree etc.)."""

    def choose(
        self, index: IRTree, node: RNode, mbr: Rect, doc: SpatialDocument
    ) -> REntry:
        """Pick the entry of ``node`` to descend into."""
        raise NotImplementedError
