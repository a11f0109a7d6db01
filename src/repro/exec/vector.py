"""The cell model every query runs on: Algorithm 4 over columnar cells.

The best-first walk is :class:`repro.core.query.BestFirstProcessor` —
the very code the scalar reference runs, not a copy of it.  This module
supplies only the columnar **cell model**: every candidate's fetched
documents are per-keyword :class:`~repro.exec.columns.WordColumns`
(sorted doc-id arrays with aligned coordinate/weight columns), and
whole cells are bounded and scored with the batch kernels of
:mod:`repro.exec.kernels`.

Why the answers are byte-identical to the scalar reference's (full
argument in ``docs/exec.md``):

* final document scores use bit-identical operation sequences — the
  kernels mirror the scalar ``Ranker`` expressions, and textual sums are
  accumulated in the traversal's keyword fetch order, reproducing the
  insertion-ordered ``sum()`` over each ``DocAccumulator``;
* cell upper bounds only need to stay *admissible* (never below any
  contained document's true final score): a candidate whose bound ties
  the current delta is still expanded, so equal-score ties resolve by
  doc id regardless of bound tightness.  The OR prune and bound are not
  written here: :class:`ColumnOr` is :class:`repro.core.or_semantics.
  OrBound` fed with columns, and the scalar reference feeds the same
  Section 5.3 lattice with accumulator ids — one lattice, one value,
  two feeders.  :class:`ColumnAnd` is Algorithm 5 whole, the
  per-document signature filter included, so its survivors — and the
  AND bound, walk and page reads — are the scalar reference's.

Keyword cells are decoded once per index, not once per query: every
load goes through :func:`repro.exec.columns.cell_columns`, i.e. the data
file's decoded-cell cache, so consecutive queries — and the members of a
``query_many`` batch — share cells without sharing any per-call state.

The cell model is all this module adds: ``search``, ``iter_search`` and
``range_search`` are the walk's three collectors and run here unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.candidates import Candidate
from repro.core.or_semantics import OrBound
from repro.core.query import BestFirstProcessor, QueryTrace, SpatialFilter
from repro.exec import kernels
from repro.exec.columns import WordColumns, cell_columns
from repro.model.query import Semantics, TopKQuery
from repro.model.results import TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.cells import CellGrid
from repro.text.signature import Signature

__all__ = ["VectorQueryProcessor", "ColumnAnd", "ColumnOr"]


class _ColumnCells:
    """How the columnar cell model holds fetched tuples.

    ``Candidate.docs`` maps each *fetched* query keyword that has tuples
    in the cell to its columns; dict insertion order is the keyword
    fetch order along the root path — the order textual sums accumulate
    in.  (``Candidate.fetched`` also contains keywords fetched empty,
    i.e. absent in this subtree.)
    """

    conjunctive: bool  # set by ColumnAnd / ColumnOr

    def __init__(self, eta: int) -> None:
        self.eta = eta

    def fetch(self, index, word: str, cell, docs: Dict[str, WordColumns]) -> None:
        """Add the keyword cell's (cached) columns unless it is empty."""
        col = cell_columns(index, cell)
        if col.ids.size:
            docs[word] = col

    def split(
        self, docs: Dict[str, WordColumns], rect
    ) -> List[Dict[str, WordColumns]]:
        """Each keyword's rows into the quadrant of ``rect`` they lie in."""
        quad_cols: List[Dict[str, WordColumns]] = [{}, {}, {}, {}]
        cx, cy = rect.center
        for word, col in docs.items():
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
        return quad_cols

    def finalise(
        self,
        candidate: Candidate,
        query: TopKQuery,
        ranker: Ranker,
        collector: TopKCollector,
        trace: QueryTrace,
        spatial_filter: Optional[SpatialFilter],
    ) -> None:
        """Score a resolved cell as arrays."""
        cols = [col for col in candidate.docs.values() if col.ids.size]
        if not cols:
            return
        if len(cols) == 1 and (not self.conjunctive or len(query.words) == 1):
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
            if self.conjunctive:
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
            # reference's DocAccumulator was constructed from.
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
        # collector's id tie-break decides, same as the scalar reference.
        # (Negation is exact both ways, so ``-neg_score`` is the score.)
        for neg_score, doc_id in sorted(
            zip((-scores).tolist(), all_ids.tolist())
        ):
            if -neg_score < collector.delta:
                break
            collector.offer(doc_id, -neg_score)


class ColumnAnd(_ColumnCells):
    """Algorithms 5-6 over columns: the AND prune and upper bound."""

    conjunctive = True

    def prune(self, candidate: Candidate, query: TopKQuery) -> bool:
        for word in query.words:
            if word not in candidate.dense and word not in candidate.fetched:
                return True
        sig: Optional[Signature] = None
        if candidate.dense:
            sig = Signature.full(self.eta)
            for ref in candidate.dense.values():
                sig = sig.intersect(ref.info.sig)
            if sig.is_zero:
                return True
        if candidate.fetched:
            # Survivors (Algorithm 5 lines 7-12): documents present in
            # EVERY fetched keyword's column whose bit ``id % eta`` is
            # set in the dense-signature intersection.
            survivors: Optional[np.ndarray] = None
            for word in candidate.fetched:
                col = candidate.docs.get(word)
                if col is None or not col.ids.size:
                    return True
                survivors = (
                    col.ids
                    if survivors is None
                    else np.intersect1d(survivors, col.ids, assume_unique=True)
                )
                if not survivors.size:
                    return True
            if sig is not None:
                mask = np.unpackbits(
                    np.frombuffer(
                        sig.bits.to_bytes((self.eta + 7) // 8, "little"), np.uint8
                    ),
                    count=self.eta,
                    bitorder="little",
                ).view(bool)
                survivors = survivors[mask[survivors % np.uint64(self.eta)]]
                if not survivors.size:
                    return True
            filtered: Dict[str, WordColumns] = {}
            for word, col in candidate.docs.items():
                if col.ids.size != survivors.size:
                    # survivors is a subset of every column, so equal
                    # sizes mean equal (sorted-unique) id sets already.
                    col = col.take(
                        np.isin(col.ids, survivors, assume_unique=True)
                    )
                filtered[word] = col
            candidate.docs = filtered
        return False

    def upper_bound(
        self, candidate: Candidate, query: TopKQuery, ranker: Ranker, grid: CellGrid
    ) -> float:
        phi_s = ranker.spatial_upper_bound(
            query.x, query.y, grid.rect(candidate.cell)
        )
        dense_part = sum(ref.info.max_s for ref in candidate.dense.values())
        fetched_part = 0.0
        if candidate.docs:
            # After prune every column holds exactly the survivor id
            # set, so the columns are element-aligned: summing the
            # weight arrays in fetch order performs the same
            # left-to-right double additions as accumulate_weights
            # (0.0 + w is exact), without any searchsorted.
            sums: Optional[np.ndarray] = None
            for col in candidate.docs.values():
                ws = col.ws.astype(np.float64)
                sums = ws if sums is None else sums + ws
            fetched_part = float(sums.max())
        return ranker.combine(phi_s, dense_part + fetched_part)


class ColumnOr(_ColumnCells, OrBound):
    """Section 5.3 over columns: a fetched keyword is held as its column."""

    conjunctive = False

    def held(
        self, candidate: Candidate, word: str
    ) -> Optional[Tuple[float, WordColumns]]:
        col = candidate.docs.get(word)
        if col is None or not col.ids.size:
            return None
        return col.max_w, col


class VectorQueryProcessor(BestFirstProcessor):
    """The shared walk over columnar cells, scored with batch kernels."""

    def cells_for(self, semantics: Semantics):
        """``ColumnAnd`` or ``ColumnOr`` over per-keyword columns."""
        if semantics is Semantics.AND:
            return ColumnAnd(self.index.eta)
        return ColumnOr(self.index.eta)
