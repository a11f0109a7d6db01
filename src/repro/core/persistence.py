"""Binary persistence for the I3 index (I3IX v2, checksummed).

Serialises all three components — the data file's raw pages, the head
file's summary nodes and the lookup table — into a single
versioned, struct-packed file (no pickle; the format is stable and
language-agnostic).  Loading reconstructs the in-memory metadata the
on-disk image implies: slot occupancy is recovered by scanning pages
for the reserved empty pattern, exactly how the paper's data file
distinguishes valid tuples.

Version 2 makes the file *verifiable* end to end, which is what turns
a snapshot into a safe recovery base (see :mod:`repro.core.recovery`):

* the header carries a CRC32 of its own bytes, plus the index mutation
  ``epoch`` and the write-ahead-log ``last_lsn`` the image covers;
* every page image is followed by a CRC32 footer
  (:func:`repro.storage.pager.page_checksum`), so a torn page write is
  detected on load instead of being silently mis-parsed as tuples;
* the head-file and lookup sections are covered by one trailing CRC32;
* the page count is validated against the physical file size *before*
  any page is read, so a truncated file fails with a structured
  :class:`~repro.storage.errors.SnapshotCorruptionError` naming the
  mismatch, never a bare ``struct.error``.

Limitations (checked, not silent): only the default ``id mod eta``
signature hash is supported, and I/O counters restart from zero on
load (they describe a session, not the index).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, List, Optional, Set, Tuple, Union

from repro.core.headfile import CellPages, SummaryInfo, SummaryNode
from repro.core.index import I3Index
from repro.spatial.geometry import Rect
from repro.storage.errors import SnapshotCorruptionError
from repro.storage.iostats import IOStats
from repro.storage.pager import page_checksum
from repro.storage.records import EMPTY_SOURCE, TupleCodec
from repro.text.signature import Signature

__all__ = [
    "save_index",
    "load_index",
    "load_snapshot",
    "write_index",
    "read_index",
    "SnapshotMeta",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"I3IX"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<4sHIIIQQI4dQQ")
_CRC = struct.Struct("<I")
_E_FIXED = struct.Struct("<fI")
_PTR_NONE, _PTR_NODE, _PTR_CELL = 0, 1, 2


@dataclass(frozen=True)
class SnapshotMeta:
    """Durability metadata stored alongside the index image.

    Attributes:
        epoch: The index mutation epoch at snapshot time; restored on
            load so a recovered shard rejoins with its epoch intact.
        last_lsn: LSN of the last WAL mutation the image includes;
            recovery replays strictly newer records on top.
    """

    epoch: int
    last_lsn: int


def save_index(index: I3Index, path: str, *, last_lsn: int = 0) -> None:
    """Write the index to ``path`` in the I3IX v2 format."""
    with open(path, "wb") as fh:
        write_index(index, fh, last_lsn=last_lsn)


def load_index(path: str) -> I3Index:
    """Read an index previously written by :func:`save_index`."""
    return load_snapshot(path)[0]


def load_snapshot(path: str) -> Tuple[I3Index, SnapshotMeta]:
    """Read an index plus its durability metadata."""
    with open(path, "rb") as fh:
        return read_index(fh)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


class _CrcWriter:
    """Pass-through writer accumulating a CRC32 of everything written."""

    __slots__ = ("fh", "crc")

    def __init__(self, fh: BinaryIO) -> None:
        self.fh = fh
        self.crc = 0

    def write(self, data: bytes) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.fh.write(data)


def write_index(index: I3Index, fh, *, last_lsn: int = 0) -> None:
    """Serialise ``index`` to an open binary stream (I3IX v2)."""
    space = index.space
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        index.eta,
        index.data.file.page_size,
        index.max_depth,
        index.num_documents,
        index.num_tuples,
        index.data._next_source,
        space.min_x,
        space.min_y,
        space.max_x,
        space.max_y,
        index.epoch,
        last_lsn,
    )
    fh.write(header)
    fh.write(_CRC.pack(zlib.crc32(header)))
    # Data file: raw page images, each with a CRC32 footer.
    pages = index.data.file.num_pages
    fh.write(struct.pack("<I", pages))
    for page_id in range(pages):
        image = bytes(index.data.file._pages[page_id])
        fh.write(image)
        fh.write(_CRC.pack(page_checksum(image)))
    # Head file and lookup table, covered by one trailing CRC.
    tail = _CrcWriter(fh)
    tail.write(struct.pack("<I", index.head.num_nodes))
    for node in index.head._nodes:
        _write_node(tail, node, index.eta)
    entries = list(index.lookup.items())
    tail.write(struct.pack("<I", len(entries)))
    for word, entry in entries:
        _write_str(tail, word)
        if entry.dense:
            tail.write(struct.pack("<B", _PTR_NODE))
            tail.write(struct.pack("<I", entry.target))
        else:
            tail.write(struct.pack("<B", _PTR_CELL))
            _write_cell(tail, entry.target)
    fh.write(_CRC.pack(tail.crc))


def _write_str(fh, text: str) -> None:
    raw = text.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def _write_info(fh, info: SummaryInfo, eta: int) -> None:
    fh.write(info.sig._bits.to_bytes(info.sig.size_bytes, "little"))
    fh.write(_E_FIXED.pack(info.max_s, info.count))


def _write_cell(fh, cell: CellPages) -> None:
    fh.write(struct.pack("<IIH", cell.source_id, cell.count, len(cell.pages)))
    for page in cell.pages:
        fh.write(struct.pack("<I", page))


def _write_node(fh, node: SummaryNode, eta: int) -> None:
    _write_str(fh, node.word)
    fh.write(struct.pack("<Q", node.cell))
    _write_info(fh, node.own, eta)
    for info in node.children:
        _write_info(fh, info, eta)
    for ptr in node.child_ptrs:
        if ptr is None:
            fh.write(struct.pack("<B", _PTR_NONE))
        elif isinstance(ptr, int):
            fh.write(struct.pack("<B", _PTR_NODE))
            fh.write(struct.pack("<I", ptr))
        else:
            fh.write(struct.pack("<B", _PTR_CELL))
            _write_cell(fh, ptr)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


class _CrcReader:
    """Pass-through reader accumulating a CRC32 of everything read."""

    __slots__ = ("fh", "crc")

    def __init__(self, fh: BinaryIO) -> None:
        self.fh = fh
        self.crc = 0

    def read(self, n: int) -> bytes:
        data = self.fh.read(n)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def tell(self) -> int:
        return self.fh.tell()


def read_index(
    fh,
    verify: bool = True,
    serve_pages: Optional[Callable[[I3Index, int, int], None]] = None,
    stats: Optional[IOStats] = None,
) -> Tuple[I3Index, SnapshotMeta]:
    """Deserialise an index (plus metadata) from an open binary stream
    or an ``mmap`` — anything with ``read``/``seek``/``tell``.

    The header and tail CRCs are always verified, page CRCs under
    ``verify``.  By default each page image is copied into the index's
    in-memory page file as it streams past, so no whole-file buffer is
    ever held.  ``serve_pages(index, body_start, num_pages)`` replaces
    that copy: it installs a page file that serves the page region where
    it lies (:func:`repro.exec.snapshot.open_snapshot` maps it), and the
    region is read only for CRCs and slot occupancy.  The index counts
    its page I/O into ``stats`` (a fresh
    :class:`~repro.storage.iostats.IOStats` when omitted); parsing
    counts none.
    """
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise SnapshotCorruptionError("truncated I3 index file: short header", 0)
    magic = header[:4]
    if magic != MAGIC:
        raise ValueError(f"not an I3 index file (magic {magic!r})")
    version = struct.unpack_from("<H", header, 4)[0]
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported I3 index format version {version}")
    stored_header_crc = _CRC.unpack(_must_read(fh, _CRC.size, "header checksum"))[0]
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
    index = I3Index(
        Rect(min_x, min_y, max_x, max_y),
        eta=eta,
        page_size=page_size,
        max_depth=max_depth,
        stats=stats,
    )
    index.num_documents = num_documents
    index.num_tuples = num_tuples
    index.epoch = epoch
    index.data._next_source = next_source
    # Data file pages. The declared page count is validated against the
    # physical file size first: a truncated or header-damaged file must
    # fail with a structured error before any page is parsed.
    count_at = fh.tell()
    (pages,) = struct.unpack("<I", _must_read(fh, 4, "page count"))
    body_start = fh.tell()
    fh.seek(0, 2)
    file_end = fh.tell()
    fh.seek(body_start)
    needed = pages * (page_size + _CRC.size)
    available = file_end - body_start
    if needed > available:
        raise SnapshotCorruptionError(
            f"header claims {pages} pages of {page_size} B "
            f"({needed} B with footers) but only {available} B remain "
            "in the file: truncated or corrupt page count",
            count_at,
        )
    if serve_pages is not None:
        serve_pages(index, body_start, pages)
    slotted = index.data.slotted
    for page_id in range(pages):
        page_at = fh.tell()
        image = _must_read(fh, page_size, f"page {page_id}")
        stored_crc = _CRC.unpack(
            _must_read(fh, _CRC.size, f"page {page_id} checksum")
        )[0]
        if verify and page_checksum(image) != stored_crc:
            raise SnapshotCorruptionError(
                f"page {page_id} checksum mismatch: torn or corrupt page write",
                page_at,
            )
        free = _free_slots(image)
        if serve_pages is None:
            slotted.allocate_page()
            index.data.file._pages[page_id][:] = image
            slotted._set_free(page_id, free)
        else:
            slotted._free[page_id] = free
            slotted._by_free_count[len(free)].add(page_id)
    # Head file and lookup table, verified against the trailing CRC.
    tail = _CrcReader(fh)
    (num_nodes,) = struct.unpack("<I", _must_read(tail, 4, "node count"))
    for _ in range(num_nodes):
        index.head._nodes.append(_read_node(tail, eta))
    (num_words,) = struct.unpack("<I", _must_read(tail, 4, "word count"))
    for _ in range(num_words):
        word = _read_str(tail)
        at = tail.tell()
        (tag,) = struct.unpack("<B", _must_read(tail, 1, "lookup tag"))
        if tag == _PTR_NODE:
            (node_id,) = struct.unpack("<I", _must_read(tail, 4, "node id"))
            index.lookup.set_dense(word, node_id)
        elif tag == _PTR_CELL:
            index.lookup.set_non_dense(word, _read_cell(tail))
        else:
            raise SnapshotCorruptionError(f"corrupt lookup entry tag {tag}", at)
    tail_at = fh.tell()
    stored_tail_crc = _CRC.unpack(_must_read(fh, _CRC.size, "section checksum"))[0]
    if tail.crc != stored_tail_crc:
        raise SnapshotCorruptionError(
            "head-file/lookup section checksum mismatch", tail_at
        )
    return index, SnapshotMeta(epoch=epoch, last_lsn=last_lsn)


def _must_read(fh, n: int, what: str = "data") -> bytes:
    at = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotCorruptionError(
            f"truncated I3 index file: wanted {n} bytes of {what}, "
            f"got {len(data)}",
            at,
        )
    return data


def _free_slots(image: bytes) -> Set[int]:
    """Slots of one page image that hold the reserved empty source id."""
    return {
        slot
        for slot, row in enumerate(TupleCodec.rows(image))
        if row[4] == EMPTY_SOURCE
    }


def _read_str(fh) -> str:
    (length,) = struct.unpack("<H", _must_read(fh, 2, "string length"))
    return _must_read(fh, length, "string").decode("utf-8")


def _read_info(fh, eta: int) -> SummaryInfo:
    size = (eta + 7) // 8
    bits = int.from_bytes(_must_read(fh, size, "signature"), "little")
    max_s, count = _E_FIXED.unpack(_must_read(fh, _E_FIXED.size, "summary"))
    return SummaryInfo(sig=Signature(eta, bits=bits), max_s=max_s, count=count)


def _read_cell(fh) -> CellPages:
    source_id, count, num_pages = struct.unpack(
        "<IIH", _must_read(fh, 10, "cell header")
    )
    pages = [
        struct.unpack("<I", _must_read(fh, 4, "cell page id"))[0]
        for _ in range(num_pages)
    ]
    return CellPages(source_id=source_id, pages=pages, count=count)


def _read_node(fh, eta: int) -> SummaryNode:
    word = _read_str(fh)
    (cell,) = struct.unpack("<Q", _must_read(fh, 8, "cell id"))
    own = _read_info(fh, eta)
    children = [_read_info(fh, eta) for _ in range(4)]
    ptrs: List[Union[None, int, CellPages]] = []
    for _ in range(4):
        at = fh.tell()
        (tag,) = struct.unpack("<B", _must_read(fh, 1, "pointer tag"))
        if tag == _PTR_NONE:
            ptrs.append(None)
        elif tag == _PTR_NODE:
            ptrs.append(struct.unpack("<I", _must_read(fh, 4, "node id"))[0])
        elif tag == _PTR_CELL:
            ptrs.append(_read_cell(fh))
        else:
            raise SnapshotCorruptionError(f"corrupt child pointer tag {tag}", at)
    return SummaryNode(
        word=word, cell=cell, own=own, children=children, child_ptrs=ptrs
    )
