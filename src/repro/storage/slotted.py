"""Slotted pages of fixed-size records, with a free-slot allocator.

The I3 data file (paper Section 4.3.3) is "a sequence of fixed-size
pages, each split into a fixed number of slots, one slot for one spatial
tuple".  Different keyword cells may share a page, and insertion
repeatedly needs "a page with at least n empty slots" (Algorithms 2-3).
:class:`SlottedFile` provides exactly that: slot-granular insert/delete
on top of any page store, plus an allocator that answers the
"page with >= n free slots" query in O(slots-per-page) using free-count
buckets.

Slot occupancy is tracked in memory (it is reconstructible metadata — a
real system would rebuild it by scanning, exactly as the paper scans
pages for valid source ids); deleted slots are zeroed on the page so the
on-disk image stays self-describing for codecs that reserve a zero
pattern, such as :class:`~repro.storage.records.TupleCodec`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Set, Tuple

__all__ = ["SlottedFile"]


class SlottedFile:
    """Fixed-size-record storage over a page store.

    Attributes:
        store: The backing :class:`~repro.storage.pager.PageFile` (or,
            under :func:`~repro.exec.snapshot.open_snapshot`, a read-only
            :class:`~repro.exec.snapshot.MmapPageFile`).
        record_size: Size of every record in bytes; must divide into the
            page size at least once.
    """

    def __init__(self, store, record_size: int) -> None:
        if record_size <= 0:
            raise ValueError(f"record_size must be positive, got {record_size}")
        if record_size > store.page_size:
            raise ValueError(
                f"record of {record_size} bytes cannot fit a "
                f"{store.page_size}-byte page"
            )
        self.store = store
        self.record_size = record_size
        self.slots_per_page = store.page_size // record_size
        self._free: Dict[int, Set[int]] = {}
        self._by_free_count: Dict[int, Set[int]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        """Allocate a fresh all-free page and return its id."""
        page_id = self.store.allocate()
        self._free[page_id] = set(range(self.slots_per_page))
        self._by_free_count[self.slots_per_page].add(page_id)
        return page_id

    def page_with_free(self, n: int) -> int:
        """A page with at least ``n`` free slots, allocating if needed.

        This implements the paper's "find a page P' with at least |O|+1
        empty slots" step.  Among eligible pages the fullest one is
        preferred, which keeps storage utilisation high (the property
        behind I3's Table 5 advantage).
        """
        if n <= 0:
            raise ValueError(f"need a positive slot count, got {n}")
        if n > self.slots_per_page:
            raise ValueError(
                f"{n} slots can never fit a page of {self.slots_per_page} slots"
            )
        for count in range(n, self.slots_per_page + 1):
            bucket = self._by_free_count.get(count)
            if bucket:
                return next(iter(bucket))
        return self.allocate_page()

    def _set_free(self, page_id: int, free: Set[int]) -> None:
        old = self._free[page_id]
        self._by_free_count[len(old)].discard(page_id)
        self._free[page_id] = free
        self._by_free_count[len(free)].add(page_id)

    # ------------------------------------------------------------------
    # Record operations (each touches the page: one read + one write)
    # ------------------------------------------------------------------
    def insert(self, page_id: int, payload: bytes) -> int:
        """Insert one record into any free slot of ``page_id``.

        Returns the slot index.  Raises ``ValueError`` when full.
        """
        return self.insert_many(page_id, [payload])[0]

    def insert_many(self, page_id: int, payloads: Iterable[bytes]) -> List[int]:
        """Insert several records into one page with a single page I/O."""
        payloads = list(payloads)
        free = self._free[page_id]
        if len(payloads) > len(free):
            raise ValueError(
                f"page {page_id} has {len(free)} free slots, need {len(payloads)}"
            )
        slots = sorted(free)[: len(payloads)]  # the lowest free slots
        page = bytearray(self.store.read(page_id))
        size = self.record_size
        for slot, payload in zip(slots, payloads):
            if len(payload) != size:
                raise ValueError(f"payload of {len(payload)} bytes, expected {size}")
            page[slot * size : (slot + 1) * size] = payload
        self.store.write(page_id, bytes(page))
        self._set_free(page_id, free.difference(slots))
        return slots

    def delete(self, page_id: int, slot: int) -> None:
        """Delete one record, zeroing its slot on the page."""
        self.delete_many(page_id, [slot])

    def delete_many(self, page_id: int, slots: Iterable[int]) -> None:
        """Delete several records of one page with a single page I/O."""
        self._erase(page_id, self.store.read(page_id), list(slots))

    def scan_and_delete(
        self, page_id: int, doomed: Callable[[bytes], List[int]]
    ) -> Tuple[bytes, List[int]]:
        """Read a page once, delete the slots ``doomed`` names, and return
        the image as read together with those slots.

        ``doomed`` maps the page image to the occupied slots to delete
        (decoding the image is the record format's business).  This is
        the single read-modify-write a real system performs where
        separate read + delete calls would touch the page two or three
        times; the write is skipped (and not charged) when nothing
        matched.
        """
        image = self.store.read(page_id)
        slots = doomed(image)
        if slots:
            self._erase(page_id, image, slots)
        return image, slots

    def _erase(self, page_id: int, image: bytes, slots: List[int]) -> None:
        """Zero ``slots`` of a page image just read and write it back."""
        free = set(self._free[page_id])
        page = bytearray(image)
        size = self.record_size
        blank = bytes(size)
        for slot in slots:
            if not 0 <= slot < self.slots_per_page:
                raise IndexError(f"slot {slot} out of range")
            if slot in free:
                raise ValueError(f"slot {slot} of page {page_id} is already free")
            page[slot * size : (slot + 1) * size] = blank
            free.add(slot)
        self.store.write(page_id, bytes(page))
        self._set_free(page_id, free)

    def read_records(self, page_id: int) -> List[Tuple[int, bytes]]:
        """All occupied ``(slot, payload)`` pairs of a page (one page read)."""
        page = self.store.read(page_id)
        free = self._free[page_id]
        return [
            (slot, page[slot * self.record_size : (slot + 1) * self.record_size])
            for slot in range(self.slots_per_page)
            if slot not in free
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def free_count(self, page_id: int) -> int:
        """Number of free slots on a page."""
        return len(self._free[page_id])

    def occupied_count(self, page_id: int) -> int:
        """Number of occupied slots on a page."""
        return self.slots_per_page - len(self._free[page_id])

    @property
    def num_pages(self) -> int:
        """Pages allocated through this slotted file."""
        return len(self._free)

    @property
    def total_records(self) -> int:
        """Occupied slots across all pages."""
        return sum(self.occupied_count(p) for p in self._free)

    @property
    def utilisation(self) -> float:
        """Fraction of allocated slots that are occupied."""
        total = self.num_pages * self.slots_per_page
        return self.total_records / total if total else 0.0
