"""A simulated paged disk: fixed-size pages, byte-accurate, I/O-counted.

The paper's experiments run on a physical disk with 4 KB pages and report
index sizes and I/O counts.  This module provides the equivalent
substrate for the reproduction: a :class:`PageFile` holds fixed-size
pages in memory, measures its size exactly (pages x page size), and
records every read and write against a named component in an
:class:`~repro.storage.iostats.IOStats` — giving deterministic,
hardware-independent I/O numbers.

Thread-safety contract: a :class:`PageFile` may be shared by
concurrent readers and writers.  Page allocation and every page
read/write happens under an internal lock, so reads always observe a
complete page image (never a torn write) and concurrent allocations
never hand out the same page id.  There is no page cache above the
file: every read is a counted I/O, the paper's cold pager.
"""

from __future__ import annotations

import threading
import zlib
from typing import List, Optional

from repro.storage.iostats import IOStats

__all__ = ["PageFile", "DEFAULT_PAGE_SIZE", "page_checksum"]

DEFAULT_PAGE_SIZE = 4096
"""The paper's page size P = 4 KB (Section 6.3)."""


def page_checksum(data: bytes) -> int:
    """CRC32 of a page image — the value persisted in the page footer
    that follows every page in the snapshot stream (I3IX v2), so a torn
    or bit-flipped page is detected on load instead of being mis-parsed
    as tuples."""
    return zlib.crc32(data)


class PageFile:
    """An append-allocated file of fixed-size pages.

    Pages are identified by dense non-negative integers in allocation
    order.  Reading or writing a page costs exactly one I/O against this
    file's component.

    Attributes:
        page_size: Size of every page in bytes.
        component: Name under which I/O is recorded (e.g. ``"i3.data"``).
        stats: The shared I/O counter sink.
    """

    __slots__ = ("page_size", "component", "stats", "_pages", "_lock")

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        stats: Optional[IOStats] = None,
        component: str = "data",
    ) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.component = component
        self.stats = stats if stats is not None else IOStats()
        self._pages: List[bytearray] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Allocation and size accounting
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Allocate a fresh zeroed page and return its id (no I/O cost)."""
        with self._lock:
            self._pages.append(bytearray(self.page_size))
            return len(self._pages) - 1

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """Exact on-disk size: allocated pages times page size."""
        return len(self._pages) * self.page_size

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise IndexError(
                f"page {page_id} out of range (file has {len(self._pages)} pages)"
            )

    # ------------------------------------------------------------------
    # Counted I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> bytes:
        """Read one page; costs one read I/O."""
        with self._lock:
            self._check(page_id)
            data = bytes(self._pages[page_id])
        self.stats.record_read(self.component, key=page_id)
        return data

    def checksum(self, page_id: int) -> int:
        """Checksum of one page's current image (no I/O cost — integrity
        metadata, not query work)."""
        with self._lock:
            self._check(page_id)
            return page_checksum(bytes(self._pages[page_id]))

    def write(self, page_id: int, data: bytes) -> None:
        """Overwrite one page; costs one write I/O.

        ``data`` may be shorter than the page (the rest stays zeroed after
        being cleared) but never longer.
        """
        if len(data) > self.page_size:
            raise ValueError(
                f"data of {len(data)} bytes exceeds page size {self.page_size}"
            )
        with self._lock:
            self._check(page_id)
            page = self._pages[page_id]
            page[: len(data)] = data
            if len(data) < self.page_size:
                page[len(data):] = bytes(self.page_size - len(data))
        self.stats.record_write(self.component, key=page_id)
