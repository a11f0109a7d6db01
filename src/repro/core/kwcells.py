"""I3's data file: keyword-cell storage over slotted pages (Section 4.3.3).

The data file is a sequence of fixed-size pages, each split into
``P/B`` 32-byte tuple slots.  The governing invariants are the paper's:

* all tuples of one keyword cell live in **one** page, so fetching a
  cell costs one I/O (the sole exception: cells at the maximum quadtree
  depth may chain pages, see :class:`~repro.core.headfile.CellPages`);
* **different** keyword cells may share a page — each cell's tuples are
  tagged with its unique *source id*, and readers filter a loaded page
  by source id;
* the tuples of an inverted list need not be contiguous or ordered, so
  cells move and grow without shifting anything else.

This module owns those mechanics: creating cells, growing a cell inside
its page or relocating it to a roomier page ("find a page with at least
|O|+1 empty slots", Algorithms 2-3), deleting from and dissolving cells.

Because every change to a cell's tuples goes through here, this is also
where the *decoded* form of a cell is kept (:class:`DecodedCellCache`),
the data file's one cache: pages themselves are never cached, this
keeps what a query engine made of them, and the three methods that
rewrite an existing cell (:meth:`DataFile.dissolve_cell`,
:meth:`DataFile.insert_into_cell`, :meth:`DataFile.delete_and_collect`)
drop that one cell's entry.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.headfile import CellPages
from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE, PageFile
from repro.storage.records import StoredTuple, TupleCodec
from repro.storage.slotted import SlottedFile

__all__ = ["DataFile", "DecodedCellCache", "DECODED_CELL_BUDGET"]

DECODED_CELL_BUDGET = 8 << 20
"""Accounted bytes of decoded cells one data file keeps (8 MiB).

A constant, not a setting: a best-first traversal sweeps its working
set cyclically, so the hit ratio against the budget is a cliff rather
than a slope (on the ladder's 60 000-document stream: 0.5 at 4 MiB,
0.96 at 8 MiB) and a smaller "safe" value buys nothing."""


class DecodedCellCache:
    """Byte-budgeted map from a keyword cell to its decoded form.

    The cache knows nothing about what it stores — an engine hands it a
    value and what keeping that value costs, headers and all — so it
    works unchanged over any page store and imports without numpy.  Entries are keyed by the
    :class:`CellPages` object's identity (the index mutates cells in
    place and never swaps them) and hold the object itself, so an
    ``id()`` cannot be recycled under a live entry.

    Eviction is oldest-inserted first.  That needs no bookkeeping on a
    hit, so :meth:`get` is one dict lookup plus an identity check and
    takes no lock; ``hits`` is bumped by a bare ``+= 1``, which makes no
    call and so cannot be interleaved under the GIL.  Everything that
    changes the map (:meth:`put`, :meth:`drop`, :meth:`clear`) and the
    ``misses`` count run under one lock.

    A hit is not a page read and is never counted as one; cells
    requested = ``hits + misses`` stays recoverable from the counters.
    """

    __slots__ = ("_entries", "_lock", "hits", "misses", "evictions", "bytes")

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[CellPages, Any, int]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    def get(self, cell: CellPages) -> Any:
        """The decoded form of ``cell``, or ``None`` (counted a miss)."""
        entry = self._entries.get(id(cell))
        if entry is not None and entry[0] is cell:
            self.hits += 1
            return entry[1]
        with self._lock:
            self.misses += 1
        return None

    def put(self, cell: CellPages, value: Any, nbytes: int) -> None:
        """Keep ``value`` for ``cell``, charged at ``nbytes`` (the
        owner's figure for the whole entry), evicting the oldest entries
        until the accounted bytes fit the budget again."""
        if nbytes > DECODED_CELL_BUDGET:
            return
        with self._lock:
            self._discard(id(cell))
            self._entries[id(cell)] = (cell, value, nbytes)
            self.bytes += nbytes
            while self.bytes > DECODED_CELL_BUDGET:
                self._discard(next(iter(self._entries)))
                self.evictions += 1

    def drop(self, cell: CellPages) -> None:
        """Forget ``cell``: its tuples are about to change."""
        if id(cell) in self._entries:
            with self._lock:
                self._discard(id(cell))

    def clear(self) -> None:
        """Forget every cell (counters keep running)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def _discard(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.bytes -= entry[2]

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """The counters as one plain dict (the metrics block's shape)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes": self.bytes,
                "entries": len(self._entries),
            }


class DataFile:
    """Keyword-cell level operations on the slotted tuple file."""

    def __init__(
        self,
        stats: Optional[IOStats] = None,
        component: str = "i3.data",
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.file = PageFile(page_size=page_size, stats=stats, component=component)
        self.slotted = SlottedFile(self.file, TupleCodec.size)
        self.cells = DecodedCellCache()
        self._next_source = 1

    def clear_cache(self) -> None:
        """Drop every decoded cell — the paper's "clear the system cache"
        step before a query set: the next query reads every page it
        needs."""
        self.cells.clear()

    @property
    def capacity(self) -> int:
        """Maximum tuples per keyword cell: the paper's P/B."""
        return self.slotted.slots_per_page

    def new_source_id(self) -> int:
        """A fresh, never-reused source id (0 is the empty-slot marker)."""
        source_id = self._next_source
        self._next_source += 1
        return source_id

    # ------------------------------------------------------------------
    # Cell lifecycle
    # ------------------------------------------------------------------
    def create_cell(self, tuples: Sequence[StoredTuple]) -> CellPages:
        """Materialise a new keyword cell holding ``tuples``.

        Assigns a fresh source id (incoming source ids are ignored) and
        places the tuples in a single page when they fit — preferring the
        fullest page with room, which is what lets unrelated cells share
        pages — or in a page chain when the cell exceeds capacity (only
        legal for maximum-depth cells; the index layer guarantees that).
        """
        cell = CellPages(source_id=self.new_source_id())
        remaining = [self._stamp(t, cell.source_id) for t in tuples]
        if len(remaining) <= self.capacity:
            if remaining:
                page = self.slotted.page_with_free(len(remaining))
                self.slotted.insert_many(page, [TupleCodec.encode(t) for t in remaining])
                cell.pages = [page]
        else:
            while remaining:
                page = self.slotted.page_with_free(1)
                chunk_size = min(self.slotted.free_count(page), len(remaining))
                chunk, remaining = remaining[:chunk_size], remaining[chunk_size:]
                self.slotted.insert_many(page, [TupleCodec.encode(t) for t in chunk])
                cell.pages.append(page)
        cell.count = len(tuples)
        return cell

    def read_cell(self, cell: CellPages) -> List[StoredTuple]:
        """All tuples of a cell (one I/O per page of the cell)."""
        source = cell.source_id
        return [
            StoredTuple(*row)
            for page in cell.pages
            for row in TupleCodec.rows(self.slotted.store.read(page))
            if row[4] == source
        ]

    def dissolve_cell(self, cell: CellPages) -> List[StoredTuple]:
        """Remove a cell from its pages and return its tuples.

        Used when a cell turns dense: its tuples are redistributed into
        child cells.  Pages are never deallocated — their freed slots are
        reused by later insertions, the paper's reuse policy.
        """
        return [StoredTuple(*row) for row in TupleCodec.rows(b"".join(self._cut(cell)))]

    def _cut(self, cell: CellPages) -> List[bytes]:
        """Free every slot of ``cell`` and return the slot images, in page
        and slot order (a read, then a read-modify-write, per page)."""
        self.cells.drop(cell)
        source, size = cell.source_id, TupleCodec.size
        images: List[bytes] = []
        for page in cell.pages:
            image = self.slotted.store.read(page)
            doomed = [
                slot
                for slot, row in enumerate(TupleCodec.rows(image))
                if row[4] == source
            ]
            images += [image[slot * size : (slot + 1) * size] for slot in doomed]
            if doomed:
                self.slotted.delete_many(page, doomed)
        cell.pages = []
        cell.count = 0
        return images

    # ------------------------------------------------------------------
    # Tuple operations within a cell
    # ------------------------------------------------------------------
    def insert_into_cell(
        self, cell: CellPages, record: StoredTuple, allow_overflow: bool = False
    ) -> None:
        """Insert one tuple into an existing non-dense keyword cell.

        Follows Algorithms 2-3's non-splitting branches: use a free slot
        of the cell's page if there is one, otherwise relocate the whole
        cell to a page with ``count + 1`` free slots.  With
        ``allow_overflow`` (maximum-depth cells) a full cell chains a new
        page instead of relocating.
        """
        self.cells.drop(cell)
        stamped = self._stamp(record, cell.source_id)
        if not allow_overflow and cell.count >= self.capacity:
            raise ValueError(
                f"cell with source id {cell.source_id} is at capacity "
                f"{self.capacity}; the index layer must split it instead"
            )
        for page in cell.pages:
            if self.slotted.free_count(page) > 0:
                self.slotted.insert(page, TupleCodec.encode(stamped))
                cell.count += 1
                return
        if not cell.pages:
            page = self.slotted.page_with_free(1)
            self.slotted.insert(page, TupleCodec.encode(stamped))
            cell.pages = [page]
            cell.count = 1
            return
        if allow_overflow and cell.count >= self.capacity:
            page = self.slotted.page_with_free(1)
            self.slotted.insert(page, TupleCodec.encode(stamped))
            cell.pages.append(page)
            cell.count += 1
            return
        # The cell's page is full with tuples of several cells: move this
        # cell's |O| slot images, unchanged, plus the new one to a
        # roomier page.
        moved = self._cut(cell)
        moved.append(TupleCodec.encode(stamped))
        page = self.slotted.page_with_free(len(moved))
        self.slotted.insert_many(page, moved)
        cell.pages = [page]
        cell.count = len(moved)

    def delete_from_cell(self, cell: CellPages, doc_id: int) -> bool:
        """Delete the tuple of ``doc_id`` from a cell, if present."""
        found, _ = self.delete_and_collect(cell, doc_id)
        return found

    def delete_and_collect(
        self, cell: CellPages, doc_id: int
    ) -> tuple[bool, List[StoredTuple]]:
        """Delete ``doc_id``'s tuple and return the cell's survivors.

        One read (plus at most one write) per page of the cell — the
        deletion and the rescan that rebuilds the cell's summary E
        (Section 4.5) share the same page image.
        """

        source = cell.source_id

        def doomed(image: bytes) -> List[int]:
            return [
                slot
                for slot, row in enumerate(TupleCodec.rows(image))
                if row[4] == source and row[0] == doc_id
            ]

        self.cells.drop(cell)
        found = False
        remaining: List[StoredTuple] = []
        for page in cell.pages:
            image, deleted = self.slotted.scan_and_delete(page, doomed)
            found = found or bool(deleted)
            remaining += [
                StoredTuple(*row)
                for row in TupleCodec.rows(image)
                if row[4] == source and row[0] != doc_id
            ]
        if found:
            cell.count -= 1
            if cell.count == 0:
                cell.pages = []
        return found, remaining

    # ------------------------------------------------------------------
    # Helpers and introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _stamp(record: StoredTuple, source_id: int) -> StoredTuple:
        if record.source_id == source_id:
            return record
        return StoredTuple(
            doc_id=record.doc_id,
            x=record.x,
            y=record.y,
            weight=record.weight,
            source_id=source_id,
        )

    @property
    def size_bytes(self) -> int:
        """On-disk size of the data file."""
        return self.file.size_bytes

    @property
    def num_pages(self) -> int:
        """Pages allocated in the data file."""
        return self.file.num_pages

    @property
    def utilisation(self) -> float:
        """Fraction of allocated slots in use (Table 5's storage story)."""
        return self.slotted.utilisation

    def scan_all(self) -> Iterable[StoredTuple]:
        """Every live tuple in the file (diagnostics and tests; counted I/O)."""
        for page in range(self.file.num_pages):
            for _, record in TupleCodec.decode_page(self.slotted.store.read(page)):
                yield record
