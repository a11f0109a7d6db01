"""A disk-paged R-tree with quadratic split and best-first search.

This is the substrate underneath both baselines of the paper:

* **IR-tree** augments these nodes with inverted pseudo-documents
  (:mod:`repro.baselines.irtree`);
* **S2I** builds one *aggregated* R-tree per frequent keyword
  (:mod:`repro.spatial.artree`), which is this tree with a max-weight
  aggregate maintained per subtree.

Nodes live one-per-page in an :class:`~repro.storage.objectpager.ObjectPager`,
so every node touched by a query costs one counted I/O and the tree's
disk footprint is ``nodes x page_size`` — the quantities the paper's
Figures 8-9 and Table 5 report.

The implementation follows Guttman's original design: ChooseLeaf by
least area enlargement, quadratic split, AdjustTree upward, and
CondenseTree with orphan reinsertion on deletion.  Best-first (priority
queue) traversal is exposed generically so callers can rank subtrees by
any admissible bound, which is how top-k spatial keyword search maps
onto the tree.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.spatial.geometry import Rect
from repro.storage.iostats import IOStats
from repro.storage.objectpager import ObjectPager
from repro.storage.pager import DEFAULT_PAGE_SIZE

__all__ = ["REntry", "RNode", "RTree", "ENTRY_BYTES"]

ENTRY_BYTES = 44
"""Serialised entry size: 4 x f64 MBR + 8-byte child/payload + f32 aggregate."""

NODE_HEADER_BYTES = 16
"""Per-node page header (node id, leaf flag, entry count, parent)."""


@dataclass(slots=True)
class REntry:
    """One slot of an R-tree node.

    Leaf entries carry a ``payload`` (opaque to the tree; typically a
    document id); internal entries carry the page id of a ``child``
    node.  ``agg`` is the subtree maximum of the weights supplied at
    insert time — the aggregated-R-tree augmentation of Papadias et al.,
    0.0 when unused.
    """

    mbr: Rect
    child: Optional[int] = None
    payload: Optional[object] = None
    agg: float = 0.0


@dataclass(slots=True)
class RNode:
    """An R-tree node; occupies exactly one page."""

    node_id: int
    is_leaf: bool
    entries: List[REntry] = field(default_factory=list)
    parent: Optional[int] = None

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        if not self.entries:
            raise ValueError(f"node {self.node_id} has no entries")
        out = self.entries[0].mbr
        for entry in self.entries[1:]:
            out = out.union(entry.mbr)
        return out

    def agg(self) -> float:
        """Maximum aggregate over all entries."""
        return max((e.agg for e in self.entries), default=0.0)


def _enlargement(mbr: Rect, other: Rect) -> float:
    """Area growth of ``mbr`` to also cover ``other``.

    Equivalent to :meth:`Rect.enlargement` but allocation-free; ChooseLeaf
    and the quadratic split evaluate this for every entry of every node on
    the insertion path, which makes it the tree's hottest function.
    """
    min_x = mbr.min_x if mbr.min_x < other.min_x else other.min_x
    min_y = mbr.min_y if mbr.min_y < other.min_y else other.min_y
    max_x = mbr.max_x if mbr.max_x > other.max_x else other.max_x
    max_y = mbr.max_y if mbr.max_y > other.max_y else other.max_y
    return (max_x - min_x) * (max_y - min_y) - (
        (mbr.max_x - mbr.min_x) * (mbr.max_y - mbr.min_y)
    )


class RTree:
    """Disk-paged R-tree over 2-D rectangles (typically point MBRs).

    Attributes:
        pager: Node storage; one node per page, I/O counted.
        max_entries: Node capacity, derived from the page size unless
            overridden (tests use tiny capacities to force deep trees).
        min_entries: Underflow threshold for CondenseTree.
    """

    def __init__(
        self,
        stats: Optional[IOStats] = None,
        component: str = "rtree",
        page_size: int = DEFAULT_PAGE_SIZE,
        max_entries: Optional[int] = None,
        min_fill: float = 0.4,
    ) -> None:
        derived = (page_size - NODE_HEADER_BYTES) // ENTRY_BYTES
        self.max_entries = max_entries if max_entries is not None else derived
        if self.max_entries < 2:
            raise ValueError("an R-tree node must hold at least 2 entries")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError(f"min_fill must be in (0, 0.5], got {min_fill}")
        # Guttman's m >= 2 (when capacity allows) keeps CondenseTree
        # dissolving single-entry chains so the tree actually shrinks.
        floor = 2 if self.max_entries >= 4 else 1
        self.min_entries = max(floor, int(self.max_entries * min_fill))
        def sizer(node: RNode) -> int:
            # A node may transiently hold max_entries + 1 entries between
            # the overflowing write and the split that follows it; only
            # the settled state must fit the page.
            settled = min(len(node.entries), self.max_entries)
            return NODE_HEADER_BYTES + settled * ENTRY_BYTES

        self.pager: ObjectPager[RNode] = ObjectPager(
            page_size=page_size,
            stats=stats,
            component=component,
            sizer=None if max_entries is not None else sizer,
        )
        root = RNode(node_id=-1, is_leaf=True)
        root.node_id = self.pager.allocate(root)
        self.root_id = root.node_id
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Node I/O helpers
    # ------------------------------------------------------------------
    def _read(self, node_id: int) -> RNode:
        return self.pager.read(node_id)

    def _write(self, node: RNode) -> None:
        self.pager.write(node.node_id, node)
        self._node_changed(node)

    def _node_changed(self, node: RNode) -> None:
        """Hook invoked after a node's entry list changed.

        The base tree needs nothing here; IR-tree overrides it to keep
        per-node pseudo-documents consistent.
        """

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, mbr: Rect, payload: object, weight: float = 0.0) -> None:
        """Insert a payload with bounding rectangle ``mbr``.

        ``weight`` feeds the max-aggregate augmentation; plain R-tree
        usage leaves it at 0.
        """
        leaf = self._choose_leaf(mbr)
        leaf.entries.append(REntry(mbr=mbr, payload=payload, agg=weight))
        self._count += 1
        self._write(leaf)
        self._handle_overflow_and_adjust(leaf)

    def insert_point(self, x: float, y: float, payload: object, weight: float = 0.0) -> None:
        """Insert a point payload (degenerate MBR)."""
        self.insert(Rect.around_point(x, y), payload, weight)

    def _choose_leaf(self, mbr: Rect) -> RNode:
        node = self._read(self.root_id)
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (_enlargement(e.mbr, mbr), e.mbr.area),
            )
            node = self._read(best.child)
        return node

    def _handle_overflow_and_adjust(self, node: RNode) -> None:
        """Split overflowing nodes bottom-up, then fix ancestor MBRs."""
        while True:
            if len(node.entries) > self.max_entries:
                sibling = self._split(node)
                if node.parent is None:
                    self._grow_root(node, sibling)
                    return
                parent = self._read(node.parent)
                self._refresh_parent_entry(parent, node)
                parent.entries.append(
                    REntry(mbr=sibling.mbr(), child=sibling.node_id, agg=sibling.agg())
                )
                self._write(parent)
                node = parent
                continue
            if node.parent is None:
                return
            parent = self._read(node.parent)
            self._refresh_parent_entry(parent, node)
            self._write(parent)
            node = parent

    def _refresh_parent_entry(self, parent: RNode, child: RNode) -> None:
        for entry in parent.entries:
            if entry.child == child.node_id:
                entry.mbr = child.mbr()
                entry.agg = child.agg()
                return
        raise RuntimeError(
            f"node {child.node_id} not referenced by its parent {parent.node_id}"
        )

    def _split(self, node: RNode) -> RNode:
        """Quadratic split; ``node`` keeps one group, a new sibling the other."""
        group_a, group_b = self._quadratic_partition(node.entries)
        sibling = RNode(node_id=-1, is_leaf=node.is_leaf, parent=node.parent)
        sibling.node_id = self.pager.allocate(sibling)
        node.entries = group_a
        sibling.entries = group_b
        if not node.is_leaf:
            for entry in sibling.entries:
                child = self._read(entry.child)
                child.parent = sibling.node_id
                self.pager.write(child.node_id, child)
        self._write(node)
        self._write(sibling)
        return sibling

    def _quadratic_partition(
        self, entries: List[REntry]
    ) -> Tuple[List[REntry], List[REntry]]:
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a, mbr_b = group_a[0].mbr, group_b[0].mbr
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while rest:
            # Force-assign when one group must absorb everything left to
            # reach the minimum fill.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(rest):
                group_a.extend(rest)
                break
            if need_b >= len(rest):
                group_b.extend(rest)
                break
            # PickNext: the entry with the strongest preference.
            best_idx, best_diff = 0, -1.0
            for i, entry in enumerate(rest):
                d_a = _enlargement(mbr_a, entry.mbr)
                d_b = _enlargement(mbr_b, entry.mbr)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_idx, best_diff = i, diff
            entry = rest.pop(best_idx)
            d_a = _enlargement(mbr_a, entry.mbr)
            d_b = _enlargement(mbr_b, entry.mbr)
            if (d_a, mbr_a.area, len(group_a)) <= (d_b, mbr_b.area, len(group_b)):
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.mbr)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.mbr)
        return group_a, group_b

    @staticmethod
    def _pick_seeds(entries: List[REntry]) -> Tuple[int, int]:
        best = (0, 1)
        worst_waste = float("-inf")
        rects = [e.mbr for e in entries]
        areas = [r.area for r in rects]
        for i, (ri, area_i) in enumerate(zip(rects, areas)):
            for j in range(i + 1, len(rects)):
                rj = rects[j]
                min_x = ri.min_x if ri.min_x < rj.min_x else rj.min_x
                min_y = ri.min_y if ri.min_y < rj.min_y else rj.min_y
                max_x = ri.max_x if ri.max_x > rj.max_x else rj.max_x
                max_y = ri.max_y if ri.max_y > rj.max_y else rj.max_y
                waste = (max_x - min_x) * (max_y - min_y) - area_i - areas[j]
                if waste > worst_waste:
                    worst_waste = waste
                    best = (i, j)
        return best

    def _grow_root(self, old_root: RNode, sibling: RNode) -> None:
        new_root = RNode(node_id=-1, is_leaf=False)
        new_root.node_id = self.pager.allocate(new_root)
        new_root.entries = [
            REntry(mbr=old_root.mbr(), child=old_root.node_id, agg=old_root.agg()),
            REntry(mbr=sibling.mbr(), child=sibling.node_id, agg=sibling.agg()),
        ]
        old_root.parent = new_root.node_id
        sibling.parent = new_root.node_id
        self.pager.write(old_root.node_id, old_root)
        self.pager.write(sibling.node_id, sibling)
        self.root_id = new_root.node_id
        self._write(new_root)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, mbr: Rect, payload: object) -> bool:
        """Delete one leaf entry matching ``(mbr, payload)``.

        Returns whether an entry was found.  Underflowing nodes are
        dissolved and their entries reinserted (CondenseTree).
        """
        found = self._find_leaf(self._read(self.root_id), mbr, payload)
        if found is None:
            return False
        leaf, idx = found
        leaf.entries.pop(idx)
        self._count -= 1
        self._write(leaf)
        self._condense(leaf)
        return True

    def delete_point(self, x: float, y: float, payload: object) -> bool:
        """Delete a point entry inserted via :meth:`insert_point`."""
        return self.delete(Rect.around_point(x, y), payload)

    def _find_leaf(
        self, node: RNode, mbr: Rect, payload: object
    ) -> Optional[Tuple[RNode, int]]:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.payload == payload and entry.mbr == mbr:
                    return (node, i)
            return None
        for entry in node.entries:
            if entry.mbr.contains_rect(mbr):
                found = self._find_leaf(self._read(entry.child), mbr, payload)
                if found is not None:
                    return found
        return None

    def _condense(self, node: RNode) -> None:
        orphans: List[Tuple[Rect, object, float, bool]] = []
        while node.parent is not None:
            parent = self._read(node.parent)
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e.child != node.node_id]
                self._collect_orphans(node, orphans)
                self.pager.free(node.node_id)
            else:
                self._refresh_parent_entry(parent, node)
            self._write(parent)
            node = parent
        # Shrink the root if it became a single-child internal node.
        root = node
        while not root.is_leaf and len(root.entries) == 1:
            child = self._read(root.entries[0].child)
            child.parent = None
            self.pager.write(child.node_id, child)
            self.pager.free(root.node_id)
            self.root_id = child.node_id
            root = child
        for mbr, payload, weight, _ in orphans:
            self._count -= 1  # reinsert below re-counts them
            self.insert(mbr, payload, weight)

    def _collect_orphans(
        self, node: RNode, out: List[Tuple[Rect, object, float, bool]]
    ) -> None:
        """Gather all leaf entries beneath ``node`` for reinsertion."""
        if node.is_leaf:
            for e in node.entries:
                out.append((e.mbr, e.payload, e.agg, True))
            return
        for e in node.entries:
            child = self._read(e.child)
            self._collect_orphans(child, out)
            self.pager.free(child.node_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, rect: Rect) -> Iterator[Tuple[Rect, object]]:
        """Yield ``(mbr, payload)`` of all leaf entries intersecting rect."""
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            for entry in node.entries:
                if not rect.intersects(entry.mbr):
                    continue
                if node.is_leaf:
                    yield (entry.mbr, entry.payload)
                else:
                    stack.append(entry.child)

    def best_first(
        self,
        internal_bound: Callable[[Rect, float], float],
        leaf_score: Callable[[REntry], Optional[float]],
    ) -> Iterator[Tuple[float, REntry]]:
        """Yield leaf entries in decreasing score order.

        ``internal_bound(mbr, agg)`` must upper-bound ``leaf_score`` over
        every leaf entry in the subtree; ``leaf_score`` may return None
        to drop an entry.  Node reads happen lazily as subtrees reach the
        front of the queue, so consuming only a prefix of the iterator
        touches only the pages that prefix needed — this is the access
        pattern of every top-k algorithm built on this tree.
        """
        counter = itertools.count()
        heap: List[Tuple[float, int, bool, object]] = []
        root = self._read(self.root_id)
        self._push_node(heap, root, internal_bound, leaf_score, counter)
        while heap:
            neg_score, _, is_leaf_entry, item = heapq.heappop(heap)
            if is_leaf_entry:
                yield (-neg_score, item)
                continue
            node = self._read(item)
            self._push_node(heap, node, internal_bound, leaf_score, counter)

    def _push_node(self, heap, node, internal_bound, leaf_score, counter) -> None:
        for entry in node.entries:
            if node.is_leaf:
                score = leaf_score(entry)
                if score is not None:
                    heapq.heappush(heap, (-score, next(counter), True, entry))
            else:
                bound = internal_bound(entry.mbr, entry.agg)
                heapq.heappush(heap, (-bound, next(counter), False, entry.child))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        node = self._read(self.root_id)
        h = 1
        while not node.is_leaf:
            node = self._read(node.entries[0].child)
            h += 1
        return h

    def nodes(self) -> Iterator[RNode]:
        """Iterate over every live node (no I/O counted; diagnostics)."""
        stack = [self.root_id]
        while stack:
            node = self.pager._objects[stack.pop()]  # bypass counters
            if node is None:
                continue
            yield node
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries)

    @property
    def size_bytes(self) -> int:
        """On-disk size of the node file."""
        return self.pager.size_bytes

    def check_invariants(self) -> None:
        """Assert structural invariants; used heavily by the test suite.

        - every child's MBR equals its parent entry's MBR,
        - every parent entry's aggregate equals the child's aggregate,
        - parent pointers are consistent,
        - non-root nodes respect the fill bounds.
        """
        root = self.pager._objects[self.root_id]
        assert root is not None, "root page freed"
        assert root.parent is None, "root must not have a parent"
        stack: List[int] = [self.root_id]
        leaf_depths = set()
        depth_of = {self.root_id: 0}
        while stack:
            node_id = stack.pop()
            node = self.pager._objects[node_id]
            assert node is not None, f"dangling child pointer to {node_id}"
            if node_id != self.root_id:
                assert self.min_entries <= len(node.entries) <= self.max_entries, (
                    f"node {node_id} has {len(node.entries)} entries"
                )
            if node.is_leaf:
                leaf_depths.add(depth_of[node_id])
                continue
            for entry in node.entries:
                child = self.pager._objects[entry.child]
                assert child is not None
                assert child.parent == node_id, (
                    f"child {entry.child} parent pointer mismatch"
                )
                assert entry.mbr == child.mbr(), f"stale MBR for child {entry.child}"
                assert abs(entry.agg - child.agg()) < 1e-9, (
                    f"stale aggregate for child {entry.child}"
                )
                depth_of[entry.child] = depth_of[node_id] + 1
                stack.append(entry.child)
        assert len(leaf_depths) <= 1, f"leaves at different depths: {leaf_depths}"
