"""Fixed-size on-page record codecs.

The paper stores a spatial tuple in B = 32 bytes so that a 4 KB page
holds exactly P/B = 128 tuples (Section 6.3).  :class:`TupleCodec`
reproduces that layout:

    ========  =====  ==================================================
    bytes     type   field
    ========  =====  ==================================================
    0 - 7     u64    document id
    8 - 15    f64    x coordinate
    16 - 23   f64    y coordinate
    24 - 27   f32    term weight
    28 - 31   u32    source id (keyword-cell identity within the page)
    ========  =====  ==================================================

Source id 0 is reserved for "empty slot" — a freshly zeroed page decodes
as all-empty, which is exactly how the paper's data file distinguishes
valid tuples when scanning a shared page.  The keyword string itself is
*not* stored per tuple: a keyword cell is always fetched through its
owning inverted list, so the reader already knows the keyword (this is
what keeps B at 32 bytes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = ["StoredTuple", "TupleCodec", "TUPLE_SIZE", "f32"]

_F32 = struct.Struct("<f")


def f32(value: float) -> float:
    """Quantise a float to the nearest IEEE-754 single precision value.

    Term weights occupy 4 bytes on disk; quantising *before* anything is
    computed from them keeps in-memory summaries (``max_s``, partial
    score sums) exactly consistent with what later reads decode.
    """
    return _F32.unpack(_F32.pack(value))[0]

_SLOT = struct.Struct("<QddfI")
TUPLE_SIZE = _SLOT.size
assert TUPLE_SIZE == 32, "the paper's B = 32 byte layout must hold"

EMPTY_SOURCE = 0
"""Reserved source id marking an empty slot; real source ids start at 1."""


@dataclass(frozen=True, slots=True)
class StoredTuple:
    """A spatial tuple as laid out in a data-file slot.

    Unlike :class:`~repro.model.document.SpatialTuple` it carries the
    *source id* of its keyword cell instead of the keyword string.
    """

    doc_id: int
    x: float
    y: float
    weight: float
    source_id: int


class TupleCodec:
    """Packs and unpacks 32-byte spatial tuple records.

    This is the one place that knows the slot layout: the data file
    moves slot images as opaque bytes and decodes a page with
    :meth:`rows`, one ``struct`` call for all of its slots.
    """

    size = TUPLE_SIZE

    @staticmethod
    def encode(record: StoredTuple) -> bytes:
        """Serialise a stored tuple into its 32-byte slot image."""
        if record.source_id == EMPTY_SOURCE:
            raise ValueError("source id 0 is reserved for empty slots")
        return _SLOT.pack(
            record.doc_id, record.x, record.y, record.weight, record.source_id
        )

    @staticmethod
    def decode(data: bytes) -> StoredTuple:
        """Deserialise one 32-byte slot image."""
        return StoredTuple(*_SLOT.unpack(data))

    @staticmethod
    def is_empty(data: bytes) -> bool:
        """Whether a slot image is the reserved empty pattern."""
        return _SLOT.unpack(data)[4] == EMPTY_SOURCE

    @staticmethod
    def rows(page: bytes) -> Iterator[Tuple[int, float, float, float, int]]:
        """``(doc_id, x, y, weight, source_id)`` for every slot of a page
        image, empty slots included (source id 0), from one
        ``iter_unpack`` call.  Only whole slots are decoded: a page size
        that is not a multiple of 32 leaves its tail unused."""
        whole = len(page) - len(page) % TUPLE_SIZE
        return _SLOT.iter_unpack(memoryview(page)[:whole])

    @classmethod
    def decode_page(cls, page: bytes) -> List[Tuple[int, StoredTuple]]:
        """Decode every occupied slot of a page as ``(slot, tuple)`` pairs."""
        return [
            (slot, StoredTuple(*row))
            for slot, row in enumerate(cls.rows(page))
            if row[4] != EMPTY_SOURCE
        ]
