"""The vectorized I3 query engine: Algorithm 4 over columnar cells.

This processor runs the *same* best-first cell traversal as the scalar
:class:`repro.core.query.I3QueryProcessor` — same root candidate, same
4-way child split, same prune/push/finalise decisions, same
tie-at-delta expansion rule — but represents every candidate's fetched
documents as per-keyword :class:`~repro.exec.columns.WordColumns`
(sorted doc-id arrays with aligned coordinate/weight columns) and
scores whole cells with the batch kernels of :mod:`repro.exec.kernels`.

Why the answers are byte-identical (full argument in ``docs/exec.md``):

* final document scores use bit-identical operation sequences — the
  kernels mirror the scalar ``Ranker`` expressions, and textual sums are
  accumulated in the traversal's keyword fetch order, reproducing the
  insertion-ordered ``sum()`` over each ``DocAccumulator``;
* cell upper bounds only need to stay *admissible* (never below any
  contained document's true final score): a candidate whose bound ties
  the current delta is still expanded, so equal-score ties resolve by
  doc id regardless of bound tightness.  This engine's OR bound is the
  scalar Apriori lattice's value, bit for bit, computed in witness form
  (:func:`witness_max`); its AND bound skips the per-document signature
  filter (a conservative superset of the scalar survivors — bound never
  smaller, never inadmissible, and impostors are rejected at finalise
  by the exact all-keywords presence check).

Keyword cells are decoded once per index, not once per query: every
load goes through :func:`repro.exec.columns.cell_columns`, i.e. the data
file's decoded-cell cache, so consecutive queries — and the members of a
``query_many`` batch — share cells without sharing any per-call state.

``iter_search`` (streaming) and ``range_search`` remain tuple-only:
both are lazy/region-driven paths where per-tuple work is not the
bottleneck, and :class:`repro.core.index.I3Index` routes them to the
scalar processor unconditionally.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.candidates import DenseRef
from repro.core.query import QueryTrace, SpatialFilter
from repro.exec import kernels
from repro.exec.columns import WordColumns, cell_columns
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.cells import ROOT_CELL, child_cell
from repro.text.signature import Signature

__all__ = ["VectorQueryProcessor", "VectorCandidate", "witness_max"]

# One available query keyword in a cell: (best score, dense signature
# bits, fetched column) — exactly one of the last two is not None.
BoundItem = Tuple[float, Optional[int], Optional[WordColumns]]


def witness_max(items: List[BoundItem], eta: int) -> float:
    """Section 5.3's lattice bound, without walking document ids.

    The Apriori lattice (``OrSemantics._apriori_max``) calls a keyword
    subset valid when some document could carry all of it: some id
    common to the subset's fetched keywords whose bit survives the AND
    of its dense keywords' signatures.  Validity is downward closed, so
    the level-wise expansion reaches exactly the valid subsets, and its
    result is the best left-to-right score sum among them.  This
    function enumerates the same subsets depth-first in item order
    (same sums, same maximum) and answers "is there such a document"
    with integers:

    * dense keywords only — the signature AND is non-zero;
    * one fetched keyword — ``column bits & dense bits != 0``: a set bit
      *is* a fetched id that passes every dense signature;
    * two or more fetched keywords — their ids are intersected, on
      plain sets built for this call and dropped with it, and the few
      common ids are tested against the dense bits.
    """
    n = len(items)
    best = 0.0
    fetched_ids: Dict[int, Set[int]] = {}

    def ids_of(j: int) -> Set[int]:
        found = fetched_ids.get(j)
        if found is None:
            found = fetched_ids[j] = set(items[j][2].ids.tolist())
        return found

    def grow(start: int, score: float, dense, single: int, common) -> None:
        # (dense, single, common): AND of the subset's dense signatures
        # (None: no dense keyword yet), the item index of its only
        # fetched keyword (-1: none), and the ids common to its fetched
        # keywords once there are two or more (None before that).
        nonlocal best
        for j in range(start, n):
            item_score, bits, col = items[j]
            if col is None:
                next_dense = bits if dense is None else dense & bits
                next_single, next_common = single, common
            else:
                next_dense = dense
                if common is not None:
                    next_single, next_common = single, common & ids_of(j)
                elif single >= 0:
                    next_single, next_common = single, ids_of(single) & ids_of(j)
                else:
                    next_single, next_common = j, None
            if next_common is not None:
                valid = bool(next_common) and (
                    next_dense is None
                    or any(next_dense >> (d % eta) & 1 for d in next_common)
                )
            elif next_single >= 0:
                valid = next_dense is None or bool(
                    items[next_single][2].sig_bits(eta) & next_dense
                )
            else:
                valid = bool(next_dense)
            if not valid:
                continue  # downward closure: no superset is valid either
            total = item_score if start == 0 else score + item_score
            if total > best:
                best = total
            if j + 1 < n:
                grow(j + 1, total, next_dense, next_single, next_common)

    grow(0, 0.0, None, -1, None)
    return best


class VectorCandidate:
    """A candidate search cell with columnar document state.

    ``cols`` maps each *fetched* query keyword that has tuples here to
    its columns; dict insertion order is the keyword fetch order along
    the root path — the order textual sums accumulate in.  ``fetched``
    also contains keywords fetched empty (absent in this subtree).
    """

    __slots__ = ("cell", "dense", "cols", "fetched", "upper_score")

    def __init__(
        self,
        cell: int,
        dense: Dict[str, DenseRef],
        cols: Dict[str, WordColumns],
        fetched: FrozenSet[str],
    ) -> None:
        self.cell = cell
        self.dense = dense
        self.cols = cols
        self.fetched = fetched
        self.upper_score = 0.0

    @property
    def is_resolved(self) -> bool:
        return not self.dense


class VectorQueryProcessor:
    """Executes top-k queries against an I3Index with batch kernels."""

    def __init__(self, index, or_lattice: bool = True) -> None:
        self.index = index
        self.or_lattice = or_lattice
        self._trace_local = threading.local()

    @property
    def last_trace(self) -> Optional[QueryTrace]:
        """The calling thread's most recent search trace."""
        return getattr(self._trace_local, "trace", None)

    # ------------------------------------------------------------------
    # Top-k search (Algorithm 4)
    # ------------------------------------------------------------------
    def search(
        self,
        query: TopKQuery,
        ranker: Ranker,
        spatial_filter: Optional[SpatialFilter] = None,
        trace: Optional[QueryTrace] = None,
    ) -> List[ScoredDoc]:
        """Answer ``query``; same contract as the scalar ``search``."""
        if trace is None:
            trace = QueryTrace()
        self._trace_local.trace = trace
        conjunctive = query.semantics is Semantics.AND
        collector = TopKCollector(query.k)
        root = self._root_candidate(query)
        if root is None:
            return []
        counter = itertools.count()
        heap: List[tuple] = []
        self._consider(
            root, query, ranker, conjunctive, collector, heap, counter,
            trace, spatial_filter,
        )
        while heap:
            neg_upper, _, candidate = heapq.heappop(heap)
            trace.candidates_popped += 1
            # Ties at delta are expanded, exactly like the scalar loop.
            if -neg_upper < collector.delta:
                break
            if candidate.is_resolved:
                self._finalise(
                    candidate, query, ranker, conjunctive, collector, trace,
                    spatial_filter,
                )
                continue
            for child in self._children_of(candidate):
                self._consider(
                    child, query, ranker, conjunctive, collector, heap,
                    counter, trace, spatial_filter,
                )
        return collector.results()

    # ------------------------------------------------------------------
    # Candidate creation
    # ------------------------------------------------------------------
    def _root_candidate(self, query: TopKQuery) -> Optional[VectorCandidate]:
        dense: Dict[str, DenseRef] = {}
        cols: Dict[str, WordColumns] = {}
        fetched: Set[str] = set()
        for word in query.words:
            entry = self.index.lookup.get(word)
            if entry is None:
                if query.semantics is Semantics.AND:
                    return None
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
                col = cell_columns(self.index, entry.target)
                if col.ids.size:
                    cols[word] = col
        return VectorCandidate(ROOT_CELL, dense, cols, frozenset(fetched))

    def _children_of(self, candidate: VectorCandidate) -> List[VectorCandidate]:
        """The four child candidates (scalar ``_children_of``, columnar)."""
        nodes = {}
        for word, ref in candidate.dense.items():
            if ref.node is None:
                ref.node = self.index.head.read(ref.node_id)
            nodes[word] = ref.node
        quad_cols: List[Dict[str, WordColumns]] = [{}, {}, {}, {}]
        if candidate.cols:
            rect = self.index.grid.rect(candidate.cell)
            cx, cy = rect.center
            for word, col in candidate.cols.items():
                # Vectorized Rect.quadrant_of: index = (y>=cy)<<1 | (x>=cx).
                quadrant = (col.ys >= cy) * 2 + (col.xs >= cx)
                counts = np.bincount(quadrant, minlength=4)
                for q in range(4):
                    if not counts[q]:
                        continue
                    if counts[q] == col.ids.size:
                        # Whole column falls in one quadrant: share the
                        # (immutable) column, no copies.
                        quad_cols[q][word] = col
                        break
                    quad_cols[q][word] = col.take(quadrant == q)
        children: List[VectorCandidate] = []
        for q in range(4):
            child_id = child_cell(candidate.cell, q)
            dense: Dict[str, DenseRef] = {}
            cols = quad_cols[q]
            fetched: Set[str] = set(candidate.fetched)
            for word, node in nodes.items():
                ptr = node.child_ptrs[q]
                info = node.children[q]
                if isinstance(ptr, int) and info.count > 0:
                    dense[word] = DenseRef(info=info, node_id=ptr)
                elif ptr is None or isinstance(ptr, int) or info.count == 0:
                    fetched.add(word)
                else:
                    fetched.add(word)
                    col = cell_columns(self.index, ptr)
                    if col.ids.size:
                        cols[word] = col
            children.append(
                VectorCandidate(child_id, dense, cols, frozenset(fetched))
            )
        return children

    # ------------------------------------------------------------------
    # Prune + bound (AND: Algorithms 5-6; OR: Section 5.3 lattice)
    # ------------------------------------------------------------------
    def _consider(
        self,
        candidate: VectorCandidate,
        query: TopKQuery,
        ranker: Ranker,
        conjunctive: bool,
        collector: TopKCollector,
        heap: List[tuple],
        counter,
        trace: QueryTrace,
        spatial_filter: Optional[SpatialFilter],
    ) -> None:
        if spatial_filter is not None and not spatial_filter.may_intersect(
            self.index.grid.rect(candidate.cell)
        ):
            trace.cells_pruned += 1
            return
        pruned = (
            self._prune_and(candidate, query)
            if conjunctive
            else self._prune_or(candidate)
        )
        if pruned:
            trace.cells_pruned += 1
            return
        candidate.upper_score = (
            self._upper_bound_and(candidate, query, ranker)
            if conjunctive
            else self._upper_bound_or(candidate, query, ranker)
        )
        if candidate.upper_score < collector.delta:
            trace.cells_pruned += 1
            return
        trace.candidates_pushed += 1
        heapq.heappush(heap, (-candidate.upper_score, next(counter), candidate))

    def _prune_and(self, candidate: VectorCandidate, query: TopKQuery) -> bool:
        for word in query.words:
            if word not in candidate.dense and word not in candidate.fetched:
                return True
        if candidate.dense:
            sig = Signature.full(self.index.eta)
            for ref in candidate.dense.values():
                sig = sig.intersect(ref.info.sig)
            if sig.is_zero:
                return True
        if candidate.fetched:
            # Survivors: documents present in EVERY fetched keyword's
            # column.  (The scalar engine additionally drops documents
            # the dense-signature intersection rules out; skipping that
            # per-id python filter keeps a superset — the bound stays
            # admissible, never smaller than the scalar one, and
            # impostors die at finalise's exact presence check.  The
            # filter rarely removes anything in practice, and paying it
            # per candidate costs more than the tighter bound saves.)
            survivors: Optional[np.ndarray] = None
            for word in candidate.fetched:
                col = candidate.cols.get(word)
                if col is None or not col.ids.size:
                    return True
                survivors = (
                    col.ids
                    if survivors is None
                    else np.intersect1d(survivors, col.ids, assume_unique=True)
                )
                if not survivors.size:
                    return True
            filtered: Dict[str, WordColumns] = {}
            for word, col in candidate.cols.items():
                if col.ids.size != survivors.size:
                    # survivors is a subset of every column, so equal
                    # sizes mean equal (sorted-unique) id sets already.
                    col = col.take(
                        np.isin(col.ids, survivors, assume_unique=True)
                    )
                filtered[word] = col
            candidate.cols = filtered
        return False

    @staticmethod
    def _prune_or(candidate: VectorCandidate) -> bool:
        return not candidate.dense and not candidate.cols

    def _upper_bound_and(
        self, candidate: VectorCandidate, query: TopKQuery, ranker: Ranker
    ) -> float:
        phi_s = ranker.spatial_upper_bound(
            query.x, query.y, self.index.grid.rect(candidate.cell)
        )
        dense_part = sum(ref.info.max_s for ref in candidate.dense.values())
        fetched_part = 0.0
        if candidate.cols:
            # After _prune_and every column holds exactly the survivor
            # id set, so the columns are element-aligned: summing the
            # weight arrays in fetch order performs the same
            # left-to-right double additions as accumulate_weights
            # (0.0 + w is exact), without any searchsorted.
            sums: Optional[np.ndarray] = None
            for col in candidate.cols.values():
                ws = col.ws.astype(np.float64)
                sums = ws if sums is None else sums + ws
            fetched_part = float(sums.max())
        return ranker.combine(phi_s, dense_part + fetched_part)

    def _upper_bound_or(
        self, candidate: VectorCandidate, query: TopKQuery, ranker: Ranker
    ) -> float:
        phi_s = ranker.spatial_upper_bound(
            query.x, query.y, self.index.grid.rect(candidate.cell)
        )
        items: List[BoundItem] = []
        for word in query.words:
            ref = candidate.dense.get(word)
            if ref is not None and ref.info.count > 0:
                items.append((ref.info.max_s, ref.info.sig.bits, None))
                continue
            if word in candidate.fetched:
                col = candidate.cols.get(word)
                if col is not None and col.ids.size:
                    items.append((col.max_w, None, col))
        if not items:
            phi_t = 0.0
        elif not self.or_lattice:
            phi_t = sum(item[0] for item in items)
        else:
            phi_t = witness_max(items, self.index.eta)
        return ranker.combine(phi_s, phi_t)

    # ------------------------------------------------------------------
    # Finalisation: score a resolved cell as arrays
    # ------------------------------------------------------------------
    def _finalise(
        self,
        candidate: VectorCandidate,
        query: TopKQuery,
        ranker: Ranker,
        conjunctive: bool,
        collector: TopKCollector,
        trace: QueryTrace,
        spatial_filter: Optional[SpatialFilter],
    ) -> None:
        cols = [col for col in candidate.cols.values() if col.ids.size]
        if not cols:
            return
        if len(cols) == 1 and (not conjunctive or len(query.words) == 1):
            # Single-keyword fast path: the column already IS the
            # accumulator table (0.0 + w is exact, coordinates come
            # from the only tuple each document has here).
            col = cols[0]
            all_ids = col.ids
            xs = col.xs
            ys = col.ys
            acc = col.ws.astype(np.float64)
        else:
            # One sorted-unique union over all columns (equivalent to
            # the chain of pairwise union1d calls, minus the repeated
            # unique passes).
            all_ids = np.unique(np.concatenate([col.ids for col in cols]))
            pos = [np.searchsorted(all_ids, col.ids) for col in cols]
            if conjunctive:
                presence = np.zeros(all_ids.size, dtype=np.int64)
                for p in pos:
                    presence[p] += 1
                qualified = presence == len(query.words)
                if not qualified.any():
                    return
            else:
                qualified = None  # every accumulated document qualifies
            # Coordinates: iterate columns in REVERSE fetch order so the
            # earliest keyword's tuple wins — the record the scalar
            # engine's DocAccumulator was constructed from.
            xs = np.empty(all_ids.size, dtype=np.float64)
            ys = np.empty(all_ids.size, dtype=np.float64)
            for col, p in zip(reversed(cols), reversed(pos)):
                xs[p] = col.xs
                ys[p] = col.ys
            acc = np.zeros(all_ids.size, dtype=np.float64)
            for col, p in zip(cols, pos):
                acc[p] += col.ws.astype(np.float64)
            if qualified is not None:
                all_ids = all_ids[qualified]
                xs = xs[qualified]
                ys = ys[qualified]
                acc = acc[qualified]
        phi_s = kernels.spatial_proximity(
            query.x, query.y, xs, ys, ranker.space.diagonal
        )
        scores = kernels.combine(ranker.alpha, phi_s, acc)
        if spatial_filter is not None:
            keep = np.fromiter(
                (
                    spatial_filter.contains(float(x), float(y))
                    for x, y in zip(xs, ys)
                ),
                dtype=bool,
                count=all_ids.size,
            )
            all_ids = all_ids[keep]
            scores = scores[keep]
        trace.docs_scored += all_ids.size
        delta = collector.delta
        if delta > float("-inf"):
            # Rows below delta can never be offered: delta only rises,
            # and the loop below stops at the first such row anyway.
            keep = scores >= delta
            all_ids = all_ids[keep]
            scores = scores[keep]
        if not all_ids.size:
            return
        # Offer best-first (score desc, id asc); once k results are held
        # a strictly-below-delta score ends the loop — every later entry
        # is no better.  Ties AT delta still go through offer, where the
        # collector's id tie-break decides, same as the scalar engine.
        # (Negation is exact both ways, so ``-neg_score`` is the score.)
        for neg_score, doc_id in sorted(
            zip((-scores).tolist(), all_ids.tolist())
        ):
            if -neg_score < collector.delta:
                break
            collector.offer(doc_id, -neg_score)
