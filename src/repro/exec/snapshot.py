"""Read-only, mmap-backed views over I3IX v2 snapshots.

:func:`open_snapshot` opens an I3IX v2 snapshot file
(:mod:`repro.core.persistence`) **in place**: the data file's pages are
served as zero-copy slices of one ``mmap``, so every process that opens
the same path shares one physical page cache, and per-process memory is
just the (small) head-file/lookup object graph.

Layout recap (I3IX v2): header + CRC, a page count, then ``num_pages``
page images each followed by a CRC32 footer at fixed stride, then the
head-file/lookup tail covered by one trailing CRC.  The fixed stride is
what makes mmap serving possible: page ``i``'s image starts at
``body_start + i * (page_size + 4)``.

Integrity is :func:`repro.core.persistence.read_index`'s parse, run
over the map: the header and tail CRCs are always verified; page CRCs
are verified up front under ``verify=True`` (the default) — after that,
reads are pure pointer arithmetic.

The resulting :class:`~repro.core.index.I3Index` answers queries
byte-identically to the index that was saved (same counted-read
contract, same page images) but **refuses writes**: page allocation or
mutation raises :class:`ReadOnlySnapshotError`.
"""

from __future__ import annotations

import mmap
from typing import Optional

from repro.core.index import I3Index
from repro.core.persistence import read_index
from repro.storage.iostats import IOStats
from repro.storage.records import TupleCodec
from repro.storage.slotted import SlottedFile

__all__ = ["MmapPageFile", "ReadOnlySnapshotError", "open_snapshot"]


class ReadOnlySnapshotError(RuntimeError):
    """A write was attempted against an mmap-served snapshot."""


class MmapPageFile:
    """A :class:`~repro.storage.pager.PageFile`-shaped reader over the
    page region of a mapped I3IX v2 file.

    Reads cost one counted I/O against the same ``i3.data`` component as
    the in-memory page file — I/O accounting (and therefore every
    metric built on it) is identical to in-process serving.  Reads
    return zero-copy ``memoryview`` slices of the map; the vector cell
    model decodes them with ``np.frombuffer`` and the tuple reference
    with ``struct``, neither materialising a page copy.
    """

    __slots__ = (
        "page_size",
        "component",
        "stats",
        "_mm",
        "_view",
        "_body_start",
        "_num_pages",
        "_stride",
    )

    def __init__(
        self,
        mm: mmap.mmap,
        body_start: int,
        num_pages: int,
        page_size: int,
        stats: Optional[IOStats] = None,
        component: str = "i3.data",
    ) -> None:
        self.page_size = page_size
        self.component = component
        self.stats = stats if stats is not None else IOStats()
        self._mm = mm
        self._view = memoryview(mm)
        self._body_start = body_start
        self._num_pages = num_pages
        self._stride = page_size + 4  # each image's u32 CRC footer

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def size_bytes(self) -> int:
        return self._num_pages * self.page_size

    def read(self, page_id: int) -> memoryview:
        """One page image (zero-copy); costs one read I/O."""
        if not 0 <= page_id < self._num_pages:
            raise IndexError(
                f"page {page_id} out of range "
                f"(snapshot has {self._num_pages} pages)"
            )
        offset = self._body_start + page_id * self._stride
        self.stats.record_read(self.component, key=page_id)
        return self._view[offset : offset + self.page_size]

    # -- refused mutations ----------------------------------------------
    def allocate(self) -> int:
        raise ReadOnlySnapshotError("mmap-served snapshots cannot grow")

    def write(self, page_id: int, data: bytes) -> None:
        raise ReadOnlySnapshotError("mmap-served snapshots are read-only")

    def rewrite(self, page_id: int, edit) -> None:
        raise ReadOnlySnapshotError("mmap-served snapshots are read-only")

    def close(self) -> None:
        self._view.release()
        self._mm.close()


def open_snapshot(path: str, verify: bool = True):
    """Open an I3IX v2 snapshot as a read-only, mmap-served index.

    Returns ``(index, meta)`` exactly like
    :func:`repro.core.persistence.load_snapshot`, except the index's
    data pages are zero-copy views of the file — multiple processes
    opening the same path share one page cache.  The index answers
    queries but raises :class:`ReadOnlySnapshotError`
    on any mutation.  Corruption raises what ``load_snapshot`` raises:
    both run the one :func:`~repro.core.persistence.read_index` parse.
    """
    with open(path, "rb") as fh:
        # The mapping holds its own reference to the file.
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    def serve_in_place(index: I3Index, body_start: int, num_pages: int) -> None:
        data = index.data
        pager = MmapPageFile(
            mm,
            body_start,
            num_pages,
            data.file.page_size,
            stats=data.file.stats,
            component=data.file.component,
        )
        data.file = pager
        data.slotted = SlottedFile(pager, TupleCodec.size)

    return read_index(mm, verify=verify, serve_pages=serve_in_place)
