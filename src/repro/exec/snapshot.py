"""Read-only, mmap-backed views over I3IX v2 snapshots.

A :class:`~repro.service.QueryService` escapes Python's GIL for reads by
handing query work to *processes* instead of threads — but naively each
worker process would deserialise its own full copy of the index.  This
module opens the I3IX v2 snapshot file (:mod:`repro.core.persistence`)
**in place**: the data file's pages are served as zero-copy slices of
one ``mmap``, so every worker process shares the same physical page
cache, and per-process memory is just the (small) head-file/lookup
object graph.

Layout recap (I3IX v2): header + CRC, a page count, then ``num_pages``
page images each followed by a CRC32 footer at fixed stride, then the
head-file/lookup tail covered by one trailing CRC.  The fixed stride is
what makes mmap serving possible: page ``i``'s image starts at
``body_start + i * (page_size + 4)``.

Integrity matches :func:`repro.core.persistence.read_index`: the header
CRC and tail CRC are always verified; page CRCs are verified up front
under ``verify=True`` (the default) — after that, reads are pure
pointer arithmetic.

The resulting :class:`~repro.core.index.I3Index` answers queries through
either engine with byte-identical results (same counted-read contract,
same page images) but **refuses writes**: page allocation or mutation
raises :class:`ReadOnlySnapshotError`.  Mutable serving stays with the
thread-based service tier; this is the scale-out read path.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from typing import Optional, Set

from repro.core.index import I3Index
from repro.core.persistence import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotMeta,
    _CRC,
    _HEADER,
    _PTR_CELL,
    _PTR_NODE,
    _read_cell,
    _read_node,
    _read_str,
)
from repro.spatial.geometry import Rect
from repro.storage.errors import SnapshotCorruptionError
from repro.storage.iostats import IOStats
from repro.storage.pager import page_checksum
from repro.storage.records import EMPTY_SOURCE, TupleCodec
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
    return zero-copy ``memoryview`` slices of the map; both engines
    consume them without materialising page copies (``struct`` unpacking
    for the tuple engine, ``np.frombuffer`` for the vector engine).
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
        self._stride = page_size + _CRC.size

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def size_bytes(self) -> int:
        return self._num_pages * self.page_size

    def _offset(self, page_id: int) -> int:
        if not 0 <= page_id < self._num_pages:
            raise IndexError(
                f"page {page_id} out of range "
                f"(snapshot has {self._num_pages} pages)"
            )
        return self._body_start + page_id * self._stride

    def read(self, page_id: int) -> memoryview:
        """One page image (zero-copy); costs one read I/O."""
        offset = self._offset(page_id)
        self.stats.record_read(self.component, key=page_id)
        return self._view[offset : offset + self.page_size]

    def checksum(self, page_id: int) -> int:
        """CRC32 of a page's image (no I/O cost, like ``PageFile``)."""
        offset = self._offset(page_id)
        return page_checksum(self._view[offset : offset + self.page_size])

    def verify_page(self, page_id: int) -> None:
        """Check one page against its stored footer CRC."""
        offset = self._offset(page_id)
        (stored,) = _CRC.unpack_from(self._mm, offset + self.page_size)
        if self.checksum(page_id) != stored:
            raise SnapshotCorruptionError(
                f"page {page_id} checksum mismatch: torn or corrupt "
                "page write",
                offset,
            )

    # -- refused mutations ----------------------------------------------
    def allocate(self) -> int:
        raise ReadOnlySnapshotError("mmap-served snapshots cannot grow")

    def write(self, page_id: int, data: bytes) -> None:
        raise ReadOnlySnapshotError("mmap-served snapshots are read-only")

    def close(self) -> None:
        self._view.release()
        self._mm.close()


class _TailReader:
    """CRC-accumulating reader over the head-file/lookup tail bytes."""

    __slots__ = ("_mm", "_pos", "crc")

    def __init__(self, mm: mmap.mmap, start: int) -> None:
        self._mm = mm
        self._pos = start
        self.crc = 0

    def read(self, n: int) -> bytes:
        data = self._mm[self._pos : self._pos + n]
        self._pos += len(data)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def tell(self) -> int:
        return self._pos


def _scan_free_slots(
    view: memoryview, offset: int, slots: int
) -> Set[int]:
    """Free (empty-pattern) slot indices of one mapped page image."""
    try:
        import numpy as np
    except ImportError:
        return {
            slot
            for slot in range(slots)
            if TupleCodec.is_empty(
                view[
                    offset
                    + slot * TupleCodec.size : offset
                    + (slot + 1) * TupleCodec.size
                ]
            )
        }
    sources = np.frombuffer(
        view,
        dtype=np.dtype([("head", "V28"), ("src", "<u4")]),
        count=slots,
        offset=offset,
    )["src"]
    return set(np.flatnonzero(sources == EMPTY_SOURCE).tolist())


def open_snapshot(path: str, verify: bool = True):
    """Open an I3IX v2 snapshot as a read-only, mmap-served index.

    Returns ``(index, meta)`` exactly like
    :func:`repro.core.persistence.load_snapshot`, except the index's
    data pages are zero-copy views of the file — multiple processes
    opening the same path share one page cache.  The index answers
    queries (either engine) but raises :class:`ReadOnlySnapshotError`
    on any mutation.
    """
    fh = open(path, "rb")
    try:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    finally:
        # The mapping holds its own reference to the file.
        fh.close()
    header = mm[: _HEADER.size]
    if len(header) < _HEADER.size:
        raise SnapshotCorruptionError(
            "truncated I3 index file: short header", 0
        )
    if header[:4] != MAGIC:
        raise ValueError(f"not an I3 index file (magic {header[:4]!r})")
    version = struct.unpack_from("<H", header, 4)[0]
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported I3 index format version {version}")
    (stored_header_crc,) = _CRC.unpack_from(mm, _HEADER.size)
    if zlib.crc32(header) != stored_header_crc:
        raise SnapshotCorruptionError("snapshot header checksum mismatch", 0)
    (
        _magic,
        _version,
        eta,
        page_size,
        max_depth,
        num_documents,
        num_tuples,
        next_source,
        min_x,
        min_y,
        max_x,
        max_y,
        epoch,
        last_lsn,
    ) = _HEADER.unpack(header)
    count_at = _HEADER.size + _CRC.size
    (num_pages,) = struct.unpack_from("<I", mm, count_at)
    body_start = count_at + 4
    needed = num_pages * (page_size + _CRC.size)
    available = len(mm) - body_start
    if needed > available:
        raise SnapshotCorruptionError(
            f"header claims {num_pages} pages of {page_size} B "
            f"({needed} B with footers) but only {available} B remain "
            "in the file: truncated or corrupt page count",
            count_at,
        )

    index = I3Index(
        Rect(min_x, min_y, max_x, max_y),
        eta=eta,
        page_size=page_size,
        max_depth=max_depth,
    )
    index.num_documents = num_documents
    index.num_tuples = num_tuples
    index.epoch = epoch
    index.data._next_source = next_source

    pager = MmapPageFile(
        mm,
        body_start,
        num_pages,
        page_size,
        stats=index.data.file.stats,
        component=index.data.file.component,
    )
    index.data.file = pager
    index.data.buffer = None
    slotted = SlottedFile(pager, TupleCodec.size)
    view = memoryview(mm)
    for page_id in range(num_pages):
        if verify:
            pager.verify_page(page_id)
        free = _scan_free_slots(
            view, body_start + page_id * (page_size + _CRC.size),
            slotted.slots_per_page,
        )
        slotted._free[page_id] = free
        slotted._by_free_count[len(free)].add(page_id)
    index.data.slotted = slotted

    tail = _TailReader(mm, body_start + needed)
    (num_nodes,) = struct.unpack("<I", tail.read(4))
    for _ in range(num_nodes):
        index.head._nodes.append(_read_node(tail, eta))
    (num_words,) = struct.unpack("<I", tail.read(4))
    for _ in range(num_words):
        word = _read_str(tail)
        at = tail.tell()
        (tag,) = struct.unpack("<B", tail.read(1))
        if tag == _PTR_NODE:
            (node_id,) = struct.unpack("<I", tail.read(4))
            index.lookup.set_dense(word, node_id)
        elif tag == _PTR_CELL:
            index.lookup.set_non_dense(word, _read_cell(tail))
        else:
            raise SnapshotCorruptionError(
                f"corrupt lookup entry tag {tag}", at
            )
    tail_at = tail.tell()
    (stored_tail_crc,) = _CRC.unpack_from(mm, tail_at)
    if tail.crc != stored_tail_crc:
        raise SnapshotCorruptionError(
            "head-file/lookup section checksum mismatch", tail_at
        )
    index.stats.reset()
    return index, SnapshotMeta(epoch=epoch, last_lsn=last_lsn)
