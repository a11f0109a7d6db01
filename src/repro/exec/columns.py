"""Columnar keyword-cell snapshots for the vectorized engine.

A keyword cell's tuples live in 32-byte slots (``<QddfI``: doc id, x, y,
f32 weight, source id — :mod:`repro.storage.records`).  The vector
engine reads each of the cell's pages through the same counted store the
tuple engine uses (so I/O accounting behaves identically) and
reinterprets the raw page image as a numpy structured array in one
call, instead of decoding one ``struct`` per slot.

Filtering by ``src == cell.source_id`` is exactly the occupied-slot
filter of :meth:`repro.core.kwcells.DataFile.read_cell`: empty slots are
zeroed (source id 0 is reserved) and occupied slots of *other* cells
sharing the page carry a different source id.

Decoded columns outlive the query that decoded them: :func:`cell_columns`
keeps them in the data file's
:class:`~repro.core.kwcells.DecodedCellCache`, which the data file
empties cell by cell as tuples change.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.headfile import CellPages
from repro.storage.records import TUPLE_SIZE

__all__ = [
    "WordColumns",
    "cell_columns",
    "load_cell_columns",
    "RECORD_DTYPE",
    "COLUMNS_OVERHEAD",
]

RECORD_DTYPE = np.dtype(
    [
        ("doc_id", "<u8"),
        ("x", "<f8"),
        ("y", "<f8"),
        ("w", "<f4"),
        ("src", "<u4"),
    ]
)
assert RECORD_DTYPE.itemsize == TUPLE_SIZE

COLUMNS_OVERHEAD = 704
"""Bytes a :class:`WordColumns` costs to keep beyond its arrays' data:
the object, four array headers, the cached signature and weight, and
the cell cache's own entry (measured on CPython 3.11 with numpy 2: about
700, most of it the array headers)."""


class WordColumns:
    """One query keyword's tuples in a candidate cell, as columns.

    ``ids`` is sorted ascending and unique; ``xs``/``ys``/``ws`` align
    with it.  When a document appears more than once for the keyword,
    the first occurrence in page-read order wins — the same tuple the
    scalar engine's ``DocAccumulator.absorb`` (a ``setdefault``) keeps.
    """

    __slots__ = ("ids", "xs", "ys", "ws", "_sig", "_max_w")

    def __init__(
        self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray
    ) -> None:
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self.ws = ws
        self._sig: Optional[Tuple[int, int]] = None  # (eta, bits)
        self._max_w: Optional[float] = None

    def __len__(self) -> int:
        return self.ids.size

    @property
    def nbytes(self) -> int:
        """What keeping this object costs (the figure the cell cache is
        given): the four arrays' data plus :data:`COLUMNS_OVERHEAD`."""
        return (
            self.ids.nbytes + self.xs.nbytes + self.ys.nbytes + self.ws.nbytes
            + COLUMNS_OVERHEAD
        )

    def sig_bits(self, eta: int) -> int:
        """The column's own signature: bit ``id % eta`` set for every id
        (cached for the ``eta`` it was last asked with — in practice the
        owning index's, which never varies).

        One Python int stands in for the id set wherever the question is
        "could some document here pass these dense signatures" — the
        answer is ``sig_bits & dense_bits != 0``, with no per-id work.
        """
        cached = self._sig
        if cached is None or cached[0] != eta:
            flags = np.zeros(eta, dtype=bool)
            flags[self.ids % np.uint64(eta)] = True
            bits = int.from_bytes(
                np.packbits(flags, bitorder="little").tobytes(), "little"
            )
            cached = self._sig = (eta, bits)
        return cached[1]

    def id_set(self) -> set:
        """The ids as a plain set, built per call (the lattice asks only
        for subsets with two or more fetched keywords)."""
        return set(self.ids.tolist())

    @property
    def max_w(self) -> float:
        """Largest stored weight (cached).  f32 -> f64 is exact, so this
        equals the scalar engine's ``max()`` over unpacked weights."""
        if self._max_w is None:
            self._max_w = float(self.ws.max())
        return self._max_w

    def take(self, mask: np.ndarray) -> "WordColumns":
        """Row subset; a boolean mask preserves the sorted-unique order."""
        return WordColumns(
            self.ids[mask], self.xs[mask], self.ys[mask], self.ws[mask]
        )


def load_cell_columns(index, cell: CellPages) -> WordColumns:
    """Load a keyword cell's columns (one counted read per cell page)."""
    store = index.data.slotted.store
    slots = index.data.slotted.slots_per_page
    if len(cell.pages) == 1:
        # Common case (pages only chain at the depth limit): keep the
        # page image as-is and gather per field through an index vector,
        # avoiding any intermediate 32-byte structured-record copies.
        rows = np.frombuffer(store.read(cell.pages[0]), RECORD_DTYPE, count=slots)
        sel: Optional[np.ndarray] = np.flatnonzero(
            rows["src"] == cell.source_id
        )
        ids = rows["doc_id"][sel]
    else:
        parts: List[np.ndarray] = []
        for page in cell.pages:
            raw = store.read(page)
            arr = np.frombuffer(raw, dtype=RECORD_DTYPE, count=slots)
            arr = arr[arr["src"] == cell.source_id]
            if arr.size:
                parts.append(arr)
        if not parts:
            parts.append(np.empty(0, dtype=RECORD_DTYPE))
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        sel = None
        ids = rows["doc_id"]
    # Sorted-unique ids, keeping the FIRST occurrence in read order for
    # duplicates (absorb's first-tuple-wins rule): a stable sort keeps
    # read order among equal ids, so the first of each equal run is the
    # first occurrence.  (Cheaper than numpy's hash-based np.unique.)
    if ids.size > 1:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        dup = sorted_ids[1:] == sorted_ids[:-1]
        if dup.any():
            keep = np.concatenate(([True], ~dup))
            order = order[keep]
            sorted_ids = sorted_ids[keep]
        idx = order if sel is None else sel[order]
        return WordColumns(
            sorted_ids, rows["x"][idx], rows["y"][idx], rows["w"][idx]
        )
    if sel is None:
        return WordColumns(
            np.ascontiguousarray(ids),
            np.ascontiguousarray(rows["x"]),
            np.ascontiguousarray(rows["y"]),
            np.ascontiguousarray(rows["w"]),
        )
    return WordColumns(ids, rows["x"][sel], rows["y"][sel], rows["w"][sel])


def cell_columns(index, cell: CellPages) -> WordColumns:
    """A keyword cell's columns: from the data file's decoded-cell cache,
    or loaded (one counted read per page) and kept there.

    Columns are immutable and the data file drops a cell's entry before
    its tuples change, so a cached column is always the cell's current
    content.  As everywhere in this library, callers keep queries and
    writers apart (the service layer's read/write lock).
    """
    cells = index.data.cells
    col = cells.get(cell)
    if col is None:
        col = load_cell_columns(index, cell)
        cells.put(cell, col, col.nbytes)
    return col
