"""WISK-style cost-based partitioning from a workload model.

The router skips a shard when it can prove the shard holds no useful
candidates: under AND semantics a shard missing any query keyword is
skipped outright, and under both semantics a shard whose combined
spatial/textual upper bound falls below the current top-k floor is
pruned.  Hash placement defeats both mechanisms — every keyword and
every region ends up on every shard.  :class:`WorkloadPartitioner`
makes them fire by construction:

1. **Grow** a quadtree leaf decomposition over the documents, splitting
   where documents *or recorded query heat* concentrate (WISK's
   argument, arXiv:2302.14287: partition boundaries should follow the
   workload), so hot regions get fine-grained leaves the packer can
   place independently.
2. **Pack** leaves onto shards greedily, charging each candidate shard
   the *expected shards-touched* increase it would cause: an AND shape
   is charged when the shard would newly cover all its keywords, an OR
   shape when the shard would newly gain a leaf that is spatially and
   textually relevant to it.  Ties break toward the lightest shard, and
   a load cap (1.25x the mean) keeps placement balanced, so the search
   minimises router fan-out without starving any shard.

The result routes documents exactly like a
:class:`~repro.cluster.partition.SpatialGridPartitioner` (it *is* one,
with ``kind = "workload"``) and persists through the same shard
manifest, so ``ClusterService.build``/``recover`` work unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.partition import (
    DEFAULT_LEAF_CAPACITY,
    DEFAULT_MAX_LEVEL,
    SpatialGridPartitioner,
    grow_leaves,
)
from repro.model.document import SpatialDocument
from repro.planner.model import WorkloadModel
from repro.planner.recorder import WorkloadEntry
from repro.spatial.cells import ROOT_CELL, CellGrid
from repro.spatial.geometry import Rect

__all__ = ["WorkloadPartitioner", "estimate_shards_touched"]

HOT_SPLIT_FRACTION = 0.125
"""A leaf concentrating more than this fraction of the total query heat
keeps splitting below ``leaf_capacity`` so the packer can isolate it."""

LOAD_SLACK = 1.25
"""Load cap multiplier over the mean shard load during packing."""


class HeatTable:
    """Query heat per cell, from one pass over the shapes.

    A shape heats ``cell`` when its probe cell and ``cell`` lie on one
    root path (one contains the other).  Each shape is filed under its
    own cell and under every ancestor of it, so the shapes heating a
    cell are those filed under it plus those sitting on its strict
    ancestors: a lookup costs the depth plus the shapes that match, not
    a pass over all of them.  The matched weights are added in shape
    order, so the float is the one a loop over the shapes would give,
    bit for bit (the recorder halves weights, so they need not be
    integers and the order matters).
    """

    __slots__ = ("_weights", "_at", "_beneath")

    def __init__(self, shapes: Sequence[WorkloadEntry]) -> None:
        self._weights = [shape.weight for shape in shapes]
        self._at: Dict[int, List[int]] = {}
        self._beneath: Dict[int, List[int]] = {}
        for i, shape in enumerate(shapes):
            cell = shape.cell
            self._at.setdefault(cell, []).append(i)
            while cell >= ROOT_CELL:
                self._beneath.setdefault(cell, []).append(i)
                cell >>= 2

    def __call__(self, cell: int) -> float:
        matched = list(self._beneath.get(cell, ()))
        ancestor = cell >> 2
        while ancestor >= ROOT_CELL:
            matched += self._at.get(ancestor, ())
            ancestor >>= 2
        heat = 0.0
        weights = self._weights
        for i in sorted(matched):
            heat += weights[i]
        return heat


class WorkloadPartitioner(SpatialGridPartitioner):
    """Quadtree-leaf partitioner learned from a query workload.

    Routing, region reporting, and manifest persistence are inherited
    from :class:`SpatialGridPartitioner` — only the *construction* of
    the leaf -> shard assignment differs, so every router and recovery
    path that handles spatial manifests handles workload manifests too.
    """

    kind = "workload"

    # ------------------------------------------------------------------
    # Construction from data + workload
    # ------------------------------------------------------------------
    @classmethod
    def learn(
        cls,
        num_shards: int,
        space: Rect,
        documents: Iterable[SpatialDocument],
        model: Optional[WorkloadModel] = None,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        max_level: int = DEFAULT_MAX_LEVEL,
    ) -> "WorkloadPartitioner":
        """Learn a placement minimising expected shards touched.

        With no model (or an empty one) this degrades to the spatial
        partitioner's balanced packing, so it is always safe to call.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if leaf_capacity <= 0:
            raise ValueError(f"leaf_capacity must be positive, got {leaf_capacity}")
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        docs = list(documents)
        shapes: List[WorkloadEntry] = list(model.shapes) if model else []
        total_heat = sum(shape.weight for shape in shapes)
        universe: FrozenSet[str] = model.keywords() if model else frozenset()
        grid = CellGrid(space)
        heat = HeatTable(shapes)

        # -- Stage 1: grow leaves where documents or heat concentrate --
        def split(cell: int, level: int, members: List[int]) -> bool:
            if level >= max_level or len(members) <= 1:
                return False
            return len(members) > leaf_capacity or (
                total_heat > 0.0
                and len(members) > max(1, leaf_capacity // 4)
                and heat(cell) >= HOT_SPLIT_FRACTION * total_heat
            )

        leaf_members = grow_leaves(space, docs, split)

        # -- Stage 2: leaf features the cost model needs --
        leaf_words: Dict[int, FrozenSet[str]] = {}
        leaf_heat: Dict[int, float] = {}
        for cell, members in leaf_members.items():
            words: Set[str] = set()
            for i in members:
                for word in docs[i].terms:
                    if word in universe:
                        words.add(word)
            leaf_words[cell] = frozenset(words)
            leaf_heat[cell] = heat(cell)

        and_shapes = [s for s in shapes if s.semantics == "and"]
        # The cost index: which AND shapes each word occurs in, and how
        # many of each shape's words every shard still lacks.
        and_words = [frozenset(s.words) for s in and_shapes]
        word_shapes: Dict[str, List[int]] = {}
        for i, words in enumerate(and_words):
            for word in words:
                word_shapes.setdefault(word, []).append(i)
        wordless = [i for i, words in enumerate(and_words) if not words]
        or_shapes = [s for s in shapes if s.semantics == "or"]
        # Which leaves each OR shape *touches*: spatial overlap with the
        # shape's probe cell plus at least one shared keyword — the
        # conditions under which the router cannot skip the shard.
        or_contacts: Dict[int, Set[int]] = {cell: set() for cell in leaf_members}
        for j, shape in enumerate(or_shapes):
            shape_rect = grid.rect(shape.cell)
            shape_words = set(shape.words)
            for cell, words in leaf_words.items():
                if not words & shape_words:
                    continue
                if grid.rect(cell).intersects(shape_rect):
                    or_contacts[cell].add(j)

        # -- Stage 3: greedy cost-based packing --
        loads = [0] * num_shards
        covered: List[Set[str]] = [set() for _ in range(num_shards)]
        lacking = [[len(words) for words in and_words] for _ in range(num_shards)]
        and_done: List[Set[int]] = [set() for _ in range(num_shards)]
        or_done: List[Set[int]] = [set() for _ in range(num_shards)]
        leaves: Dict[int, int] = {}
        total_docs = len(docs)
        cap = LOAD_SLACK * total_docs / num_shards if total_docs else 0.0

        def placement_cost(
            sid: int, cell: int
        ) -> Tuple[float, Set[str], List[int], List[int]]:
            """Expected-shards-touched increase of putting ``cell`` on
            ``sid``, plus the words it adds and the shape ids that
            become chargeable.

            A shape not yet charged on ``sid`` lacks a word there (it is
            charged the moment its last word arrives), so only shapes
            sharing a word the leaf adds can become chargeable: those
            whose lacking words all arrive at once.  Their weights are
            added in shape order, as a scan of every shape would.
            """
            new_words = leaf_words[cell] - covered[sid]
            arriving: Dict[int, int] = {}
            for word in new_words:
                for i in word_shapes.get(word, ()):
                    arriving[i] = arriving.get(i, 0) + 1
            lacks = lacking[sid]
            new_and = [i for i, n in arriving.items() if n == lacks[i]]
            new_and += [i for i in wordless if i not in and_done[sid]]
            new_and.sort()
            cost = 0.0
            for i in new_and:
                cost += and_shapes[i].weight
            new_or: List[int] = []
            for j in or_contacts[cell]:
                if j not in or_done[sid]:
                    cost += or_shapes[j].weight
                    new_or.append(j)
            return cost, new_words, new_and, new_or

        ordered = sorted(
            leaf_members,
            key=lambda cell: (
                -(len(leaf_members[cell]) + leaf_heat[cell]),
                cell,
            ),
        )
        for cell in ordered:
            count = len(leaf_members[cell])
            lightest = min(loads)
            candidates = [
                sid
                for sid in range(num_shards)
                if loads[sid] + count <= cap or loads[sid] == lightest
            ]
            best = None
            best_key = None
            for sid in candidates:
                cost, new_words, new_and, new_or = placement_cost(sid, cell)
                key = (round(cost, 9), loads[sid], sid)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (sid, new_words, new_and, new_or)
            assert best is not None
            sid, new_words, new_and, new_or = best
            leaves[cell] = sid
            loads[sid] += count
            covered[sid] |= new_words
            lacks = lacking[sid]
            for word in new_words:
                for i in word_shapes.get(word, ()):
                    lacks[i] -= 1
            and_done[sid].update(new_and)
            or_done[sid].update(new_or)
        return cls(num_shards, space, leaves)


def estimate_shards_touched(
    partitioner,
    documents: Iterable[SpatialDocument],
    model: WorkloadModel,
) -> float:
    """Model-predicted average shards touched per query (1.0 is ideal).

    Mirrors the router's skip rules against a concrete placement: an
    AND shape touches every shard whose documents cover all its
    keywords; an OR shape touches every shard owning a region that
    overlaps its probe cell while sharing a keyword.  Used by ``repro
    plan`` to report how much a learned placement should help before
    any cluster is built.
    """
    if model.total_weight <= 0.0:
        return float(partitioner.num_shards)
    shard_words: List[Set[str]] = [set() for _ in range(partitioner.num_shards)]
    for doc in documents:
        sid = partitioner.shard_of(doc)
        shard_words[sid].update(doc.terms)
    regions = partitioner.shard_regions()
    grid = CellGrid(partitioner.space)
    touched_weight = 0.0
    for shape in model.shapes:
        shape_words = set(shape.words)
        shape_rect = grid.rect(shape.cell)
        touched = 0
        for sid in range(partitioner.num_shards):
            if shape.semantics == "and":
                if all(word in shard_words[sid] for word in shape_words):
                    touched += 1
            else:
                if shard_words[sid] & shape_words and any(
                    rect.intersects(shape_rect) for rect in regions.get(sid, ())
                ):
                    touched += 1
        touched_weight += shape.weight * touched
    return touched_weight / model.total_weight
