"""Document partitioners: how a corpus is split across I³ shards.

Both partitioners assign *whole documents* to shards — every tuple of a
document lands on one shard, so AND/OR candidate sets are computable
shard-locally and the scatter-gather merge never has to join partial
documents across the wire.  Two placement policies are provided:

* :class:`HashPartitioner` — a bit-mixed hash of the document id.
  Location-oblivious, perfectly balanced in expectation, and immune to
  spatial hot spots (the FAST observation, arXiv:1709.02529: real
  spatio-textual workloads concentrate on a few hot regions).  The
  price: every shard overlaps the whole space, so the router can never
  prune a shard spatially, only by keyword bounds.
* :class:`SpatialGridPartitioner` — quadtree leaves sized to the data
  distribution (WISK's argument, arXiv:2302.14287: partition boundaries
  should follow the workload, not a uniform grid), packed onto shards
  by a greedy balance of document counts.  Shards own disjoint regions,
  so the router additionally prunes shards by spatial upper bound.

A third policy lives in :mod:`repro.planner`:
``WorkloadPartitioner`` (kind ``"workload"``) subclasses the spatial
grid but *learns* its leaf assignment from a recorded query workload.

Every policy answers the router's one spatial question,
``shard_min_dists(x, y, shards)`` — how far the query point is from the
nearest region of each shard in the mask ``shards`` — and serialises its
routing state into a :class:`~repro.cluster.manifest.ShardManifest`, and
:func:`partitioner_from_manifest` restores it, so a router restarted
from disk routes exactly as the one that built the cluster.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.manifest import ShardInfo, ShardManifest
from repro.model.document import SpatialDocument
from repro.spatial.cells import (
    ROOT_CELL,
    CellGrid,
    cell_level,
    parent_cell,
)
from repro.spatial.geometry import Rect

__all__ = [
    "HashPartitioner",
    "SpatialGridPartitioner",
    "partitioner_from_manifest",
    "build_manifest",
    "grow_leaves",
]

DEFAULT_LEAF_CAPACITY = 64
"""Documents per quadtree leaf before it splits (spatial partitioner)."""

DEFAULT_MAX_LEVEL = 12
"""Quadtree depth limit of the spatial partitioner — co-located
documents stop splitting here and stay in one leaf."""


def _mix64(value: int) -> int:
    """SplitMix64 finaliser: decorrelates sequential document ids so
    ``mix(id) % shards`` balances even for the common 0,1,2,... id
    assignment (plain ``id % shards`` would stripe, which is fine, but
    correlates with insertion order and round-robin generators)."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 % (1 << 64)
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB % (1 << 64)
    return (value ^ (value >> 31)) % (1 << 64)


class HashPartitioner:
    """Shard by a bit-mixed hash of the document id.

    Attributes:
        num_shards: Number of shards documents are spread over.
        space: The data space (every shard covers all of it).
    """

    kind = "hash"

    def __init__(self, num_shards: int, space: Rect) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.space = space

    def shard_of(self, doc: SpatialDocument) -> int:
        """The shard holding ``doc``."""
        return self.shard_of_id(doc.doc_id)

    def shard_of_id(self, doc_id: int) -> int:
        """The shard holding the document with this id."""
        return _mix64(doc_id) % self.num_shards

    def shard_regions(self) -> Dict[int, List[Rect]]:
        """Spatial coverage per shard — the whole space for every shard,
        so hash-sharded routers get no spatial pruning."""
        return {sid: [self.space] for sid in range(self.num_shards)}

    def shard_min_dists(
        self, x: float, y: float, shards: int = -1
    ) -> List[Optional[float]]:
        """Distance from ``(x, y)`` to every shard's nearest region — the
        same for all (each covers the whole space; ``shards`` is ignored)."""
        return [self.space.min_dist(x, y)] * self.num_shards

    def manifest_params(self) -> Dict[str, object]:
        return {}


class SpatialGridPartitioner:
    """Shard by quadtree leaf, leaves packed to balance document counts.

    The quadtree is grown over the build-time documents: a leaf splits
    while it holds more than ``leaf_capacity`` documents (up to
    ``max_level``), so leaf boundaries densify exactly where the data
    does.  Leaves are then assigned greedily — largest leaf first, onto
    the currently lightest shard — which keeps shard loads within one
    leaf of each other without solving bin packing.

    Routing a document (or query point) walks the quadtree from the
    root until it lands in a leaf; unseen regions fall into whatever
    leaf covers them, so inserts outside the build distribution still
    route deterministically.

    The leaves must tile the space — every point under exactly one
    leaf.  The constructor rejects a table that does not (it is also
    what :func:`partitioner_from_manifest` feeds with bytes from disk),
    so a hole or a shadowed leaf surfaces when the table is loaded, not
    at the first document routed into it.

    Attributes:
        num_shards: Number of shards.
        space: The data-space rectangle (the root leaf's extent).
        leaves: ``{cell_id: shard}`` — the persisted routing table.
    """

    kind = "spatial"

    def __init__(self, num_shards: int, space: Rect, leaves: Dict[int, int]) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if not leaves:
            raise ValueError("a spatial partitioner needs at least one leaf")
        for cell, shard in leaves.items():
            if cell < ROOT_CELL:
                raise ValueError(f"invalid leaf cell id {cell}")
            if not 0 <= shard < num_shards:
                raise ValueError(f"leaf {cell} assigned to bad shard {shard}")
        self.num_shards = num_shards
        self.space = space
        self.leaves = dict(leaves)
        self._grid = CellGrid(space)
        self._max_level = max(cell_level(cell) for cell in self.leaves)
        self._descent = self._build_descent()

    def _build_descent(
        self,
    ) -> Dict[int, Tuple[int, float, float, float, float]]:
        """The table :meth:`shard_min_dists` walks, checked on the way.

        For every cell on a root-to-leaf path: the bitmask of shards
        owning a leaf at or beneath it, and the cell's ``(min_x, max_x,
        min_y, max_y)``.  Raises ``ValueError`` unless the leaves tile
        the space: no leaf under another leaf, and the leaf areas —
        ``4**-level`` of the root each, summed as integers in units of
        the deepest level's cell — adding up to exactly the root.
        """
        masks: Dict[int, int] = {}
        covered = 0
        for cell, shard in self.leaves.items():
            covered += 4 ** (self._max_level - cell_level(cell))
            bit = 1 << shard
            masks[cell] = bit
            while cell > ROOT_CELL:
                cell = parent_cell(cell)
                if cell in self.leaves:
                    raise ValueError(
                        f"leaf {cell} has another leaf beneath it — "
                        "the leaf table is not a tiling"
                    )
                masks[cell] = masks.get(cell, 0) | bit
        if covered != 4 ** self._max_level:
            # Leaves are disjoint by now, so the shortfall is a hole: a
            # cell off every root-to-leaf path whose parent is on one.
            hole = next(
                child
                for cell in sorted(masks)
                if cell not in self.leaves
                for child in self._grid.children(cell)
                if child not in masks
            )
            raise ValueError(
                f"no leaf covers cell {hole} — the leaf table is not a tiling"
            )
        descent = {}
        for cell, mask in masks.items():
            rect = self._grid.rect(cell)
            descent[cell] = (mask, rect.min_x, rect.max_x, rect.min_y, rect.max_y)
        return descent

    # ------------------------------------------------------------------
    # Construction from data
    # ------------------------------------------------------------------
    @classmethod
    def from_documents(
        cls,
        num_shards: int,
        space: Rect,
        documents: Iterable[SpatialDocument],
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        max_level: int = DEFAULT_MAX_LEVEL,
    ) -> "SpatialGridPartitioner":
        """Grow the leaf decomposition over ``documents`` and pack the
        leaves onto shards by document count."""
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if leaf_capacity <= 0:
            raise ValueError(f"leaf_capacity must be positive, got {leaf_capacity}")
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        grown = grow_leaves(
            space,
            list(documents),
            lambda cell, level, members: len(members) > leaf_capacity
            and level < max_level,
        )
        # Greedy balance: heaviest leaves first, each onto the lightest
        # shard so far (ties broken by shard id for determinism).
        loads = [0] * num_shards
        leaves: Dict[int, int] = {}
        for cell, members in sorted(
            grown.items(), key=lambda item: (-len(item[1]), item[0])
        ):
            shard = min(range(num_shards), key=lambda sid: (loads[sid], sid))
            leaves[cell] = shard
            loads[shard] += len(members)
        return cls(num_shards, space, leaves)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, doc: SpatialDocument) -> int:
        """The shard holding ``doc`` (by its location)."""
        return self.shard_of_point(doc.x, doc.y)

    def shard_of_point(self, x: float, y: float) -> int:
        """The shard owning the leaf containing ``(x, y)``."""
        if not self.space.contains_point(x, y):
            raise ValueError(f"point ({x}, {y}) outside the data space")
        leaves, descent = self.leaves, self._descent
        cell = ROOT_CELL
        while True:  # the leaves tile the space: every descent ends in one
            shard = leaves.get(cell)
            if shard is not None:
                return shard
            # Rect.quadrant_of's test against Rect.center's expression
            # over the grid's cached rect: the same split line, bit for bit.
            _, min_x, max_x, min_y, max_y = descent[cell]
            cell = (
                cell << 2
                | (y >= (min_y + max_y) / 2.0) << 1
                | (x >= (min_x + max_x) / 2.0)
            )

    def shard_regions(self) -> Dict[int, List[Rect]]:
        """Spatial coverage per shard: the rectangles of its leaves."""
        regions: Dict[int, List[Rect]] = {sid: [] for sid in range(self.num_shards)}
        for cell, shard in sorted(self.leaves.items()):
            regions[shard].append(self._grid.rect(cell))
        return regions

    def shard_min_dists(
        self, x: float, y: float, shards: int = -1
    ) -> List[Optional[float]]:
        """Distance from ``(x, y)`` to the nearest leaf of every shard in
        the bit mask ``shards`` (``-1``: all), else ``None`` — as for a
        shard that owns no leaf.

        A best-first descent of the leaf quadtree under MINDIST — the
        paper's Algorithm 4 one level up.  A child's box lies inside its
        parent's, so its distance is never smaller (exactly, in floating
        point: subtraction, ``max``, squaring, sum and ``sqrt`` are all
        monotone) and the first leaf popped for a shard carries that
        shard's minimum of :meth:`Rect.min_dist` over its leaves, bit
        for bit.  Only children with a still-unseen shard beneath them
        are pushed, and the walk stops when every asked-for shard is
        seen, so the cost is O(depth x shards) heap steps, not O(leaves).

        Reads only tables built in the constructor: safe to call from
        any number of threads at once.
        """
        descent = self._descent
        leaves = self.leaves
        dists: List[Optional[float]] = [None] * self.num_shards
        unseen = descent[ROOT_CELL][0] & shards
        heap: List[Tuple[float, int]] = []
        cells: Tuple[int, ...] = (ROOT_CELL,)
        while unseen:
            for cell in cells:
                mask, min_x, max_x, min_y, max_y = descent[cell]
                if mask & unseen:
                    # The expression of Rect.min_dist (sqrt of squares,
                    # not hypot), so bounds equal the per-leaf scan's.
                    dx = max(min_x - x, 0.0, x - max_x)
                    dy = max(min_y - y, 0.0, y - max_y)
                    heapq.heappush(heap, (math.sqrt(dx * dx + dy * dy), cell))
            dist, cell = heapq.heappop(heap)
            shard = leaves.get(cell)
            if shard is None:
                base = cell << 2
                cells = (base, base | 1, base | 2, base | 3)
            else:
                cells = ()
                if unseen >> shard & 1:
                    dists[shard] = dist
                    unseen &= ~(1 << shard)
        return dists

    def manifest_params(self) -> Dict[str, object]:
        return {
            "leaves": [
                [cell, shard] for cell, shard in sorted(self.leaves.items())
            ]
        }


def grow_leaves(
    space: Rect,
    documents: Sequence[SpatialDocument],
    split: Callable[[int, int, List[int]], bool],
) -> Dict[int, List[int]]:
    """``{leaf: member indices}`` of the quadtree grown over
    ``documents`` (depth-first, quadrant order): a cell splits while
    ``split(cell, level, members)`` says so, sending each member where
    :meth:`Rect.quadrant_of` would, by its ``>=`` test against the
    centre of the grid's cached rect.  Every document is checked
    against ``space`` once, here, so the descent tests no containment.
    """
    contains = space.contains_point
    points: List[Tuple[float, float]] = []
    for doc in documents:
        if not contains(doc.x, doc.y):
            raise ValueError(f"document {doc.doc_id} lies outside the data space")
        points.append((doc.x, doc.y))
    grid = CellGrid(space)
    leaves: Dict[int, List[int]] = {}

    def grow(cell: int, level: int, members: List[int]) -> None:
        if not split(cell, level, members):
            leaves[cell] = members
            return
        cx, cy = grid.rect(cell).center
        groups: Tuple[List[int], ...] = ([], [], [], [])
        for i in members:
            x, y = points[i]
            groups[(y >= cy) << 1 | (x >= cx)].append(i)
        for quadrant, group in enumerate(groups):
            grow(cell << 2 | quadrant, level + 1, group)

    grow(ROOT_CELL, 0, list(range(len(points))))
    return leaves


def partitioner_from_manifest(manifest: ShardManifest):
    """Reconstruct the partitioner a manifest describes.

    The returned instance routes identically to the one that produced
    the manifest — the property every restart relies on.
    """
    if manifest.partitioner == "hash":
        return HashPartitioner(manifest.num_shards, manifest.space)
    if manifest.partitioner in ("spatial", "workload"):
        leaves = {
            int(cell): int(shard)
            for cell, shard in manifest.params.get("leaves", [])
        }
        if manifest.partitioner == "workload":
            # Imported lazily: the planner package builds on this module.
            from repro.planner.partition import WorkloadPartitioner

            return WorkloadPartitioner(manifest.num_shards, manifest.space, leaves)
        return SpatialGridPartitioner(manifest.num_shards, manifest.space, leaves)
    raise ValueError(f"unknown partitioner kind {manifest.partitioner!r}")


def build_manifest(
    partitioner,
    replicas: int,
    shard_documents: Sequence[int],
    index_paths: Sequence[str] | None = None,
) -> ShardManifest:
    """Assemble the manifest for a partitioned deployment.

    ``shard_documents`` is the per-shard document count, id order;
    ``index_paths`` optionally names each shard's persisted index file.
    """
    shards = [
        ShardInfo(
            shard_id=sid,
            num_documents=count,
            index_path=index_paths[sid] if index_paths else None,
        )
        for sid, count in enumerate(shard_documents)
    ]
    return ShardManifest(
        partitioner=partitioner.kind,
        num_shards=partitioner.num_shards,
        replicas=replicas,
        space=partitioner.space,
        shards=shards,
        params=partitioner.manifest_params(),
    )
