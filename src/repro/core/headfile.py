"""I3's head file: summary nodes for dense keyword cells (Section 4.3.2).

A keyword cell that outgrows one page is *dense*; it gets a **summary
node** holding, for the cell itself and for each of its four children,
the summary information

    E = <E.sig, E.max_s>        (we also keep the tuple count)

— a signature bitmap aggregating the document ids in the keyword cell
and the keyword's maximum term weight there.  The node further holds
four child pointers: to a child summary node (child still dense), to the
data page(s) of a non-dense child keyword cell, or nothing (keyword
absent in that quadrant).

The head file stores these nodes back to back at byte offsets (the
lookup table and parent nodes address them by offset).  I/O is counted
per node access — one access per node, matching how the paper's Figures
8-9 attribute "head file" I/O — while the file's disk footprint is its
total bytes rounded up to whole pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.records import Row
from repro.text.signature import Signature

__all__ = ["SummaryInfo", "CellPages", "ChildPtr", "SummaryNode", "HeadFile"]


@dataclass(slots=True)
class SummaryInfo:
    """The paper's E: signature, upper-bound weight, and tuple count."""

    sig: Signature
    max_s: float = 0.0
    count: int = 0

    @classmethod
    def empty(cls, eta: int) -> "SummaryInfo":
        """Summary of an empty keyword cell."""
        return cls(sig=Signature(eta))

    @classmethod
    def of_rows(cls, eta: int, rows: Sequence[Row]) -> "SummaryInfo":
        """Summary of a concrete cell's ``(doc_id, x, y, weight)`` rows,
        in one pass (the same result as :meth:`add` for each row)."""
        bits = 0
        best = 0.0
        for doc_id, _, _, weight in rows:
            bits |= 1 << doc_id % eta
            if weight > best:
                best = weight
        return cls(Signature(eta, bits), best, len(rows))

    def add(self, doc_id: int, weight: float) -> None:
        """Fold one tuple into the summary (insertion path)."""
        self.sig.add(doc_id)
        self.max_s = max(self.max_s, weight)
        self.count += 1

    def copy(self) -> "SummaryInfo":
        """An independent copy (no shared signature bits).

        Needed where a parent node's child summary is refreshed from the
        child node's own summary: sharing the object would double-count
        subsequent incremental updates.
        """
        return SummaryInfo(sig=self.sig.copy(), max_s=self.max_s, count=self.count)

    @classmethod
    def combine(cls, eta: int, parts: Iterable["SummaryInfo"]) -> "SummaryInfo":
        """Union of child summaries — recomputes a node's own E after a
        deletion invalidated the incremental one."""
        out = cls.empty(eta)
        for part in parts:
            out.sig = out.sig.union(part.sig)
            out.max_s = max(out.max_s, part.max_s)
            out.count += part.count
        return out

    @property
    def size_bytes(self) -> int:
        """Serialised size: bitmap + f32 weight + u32 count."""
        return self.sig.size_bytes + 8


@dataclass(slots=True)
class CellPages:
    """Pointer to a *non-dense* keyword cell's storage in the data file.

    Normally a keyword cell occupies exactly one page (the design
    invariant that makes a cell fetch one I/O).  The single documented
    exception is a cell at the maximum quadtree depth — e.g. many tuples
    at one exact location — which is allowed to chain additional pages
    instead of splitting forever.

    Attributes:
        source_id: The cell's unique source id tagging its tuples.
        pages: Data-file page ids holding the cell's tuples.
        count: Number of tuples in the cell.
    """

    source_id: int
    pages: List[int] = field(default_factory=list)
    count: int = 0


ChildPtr = Union[None, int, CellPages]
"""A summary node's child pointer: ``None`` (keyword absent in that
quadrant), an ``int`` head-file node id (child cell still dense), or
:class:`CellPages` (non-dense child cell in the data file)."""


@dataclass(slots=True)
class SummaryNode:
    """One dense keyword cell's summary node.

    Attributes:
        word: The keyword (kept for diagnostics; addressing never needs it).
        cell: The quadtree cell id this node summarises.
        own: Summary of the whole keyword cell.
        children: Summaries of the four child keyword cells.
        child_ptrs: Where each child keyword cell lives.
    """

    word: str
    cell: int
    own: SummaryInfo
    children: List[SummaryInfo]
    child_ptrs: List[ChildPtr]

    def __post_init__(self) -> None:
        if len(self.children) != 4 or len(self.child_ptrs) != 4:
            raise ValueError("a summary node has exactly four children")

    def size_bytes(self) -> int:
        """Serialised size: header + word + 5 summaries + 4 pointers."""
        header = 16
        summaries = self.own.size_bytes + sum(c.size_bytes for c in self.children)
        pointers = sum(
            8 if not isinstance(p, CellPages) else 12 + 8 * len(p.pages)
            for p in self.child_ptrs
        )
        return header + len(self.word) + 1 + summaries + pointers


class HeadFile:
    """Append-allocated storage of summary nodes with counted access.

    Nodes are addressed by dense ids; each logical node access costs one
    I/O against the ``component``.  Disk footprint is the sum of node
    byte sizes rounded up to whole pages, reflecting the back-to-back
    on-disk layout.
    """

    __slots__ = ("stats", "component", "page_size", "_nodes", "_nodes_per_page")

    def __init__(
        self,
        stats: Optional[IOStats] = None,
        component: str = "i3.head",
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.stats = stats if stats is not None else IOStats()
        self.component = component
        self.page_size = page_size
        self._nodes: List[SummaryNode] = []
        # Unique-page keys are page-granular: several back-to-back nodes
        # share a page, so a flush writes the page once (nominal node
        # size 300 bytes at the default eta).
        self._nodes_per_page = max(1, page_size // 300)

    def _page_key(self, node_id: int) -> int:
        return node_id // self._nodes_per_page

    def allocate(self, node: SummaryNode) -> int:
        """Append a new summary node; costs one write I/O."""
        node_id = len(self._nodes)
        self.stats.record_write(self.component, key=self._page_key(node_id))
        self._nodes.append(node)
        return node_id

    def read(self, node_id: int) -> SummaryNode:
        """Fetch a node; costs one read I/O."""
        self.stats.record_read(self.component, key=self._page_key(node_id))
        return self._nodes[node_id]

    def write(self, node_id: int, node: SummaryNode) -> None:
        """Persist an updated node; costs one write I/O."""
        self.stats.record_write(self.component, key=self._page_key(node_id))
        self._nodes[node_id] = node

    @property
    def num_nodes(self) -> int:
        """Summary nodes allocated so far."""
        return len(self._nodes)

    @property
    def raw_bytes(self) -> int:
        """Summed node bytes before page rounding (eta-tuning metric)."""
        return sum(node.size_bytes() for node in self._nodes)

    @property
    def size_bytes(self) -> int:
        """On-disk size: summed node bytes, rounded up to whole pages.

        Recomputed on demand because nodes are mutated in place; size
        queries are rare (index-size reporting) so the scan is cheap
        relative to what it measures.
        """
        total = sum(node.size_bytes() for node in self._nodes)
        if total == 0:
            return 0
        pages = -(-total // self.page_size)
        return pages * self.page_size
