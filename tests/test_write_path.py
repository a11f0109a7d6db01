"""The data file's write path, pinned.

A write decodes each page it touches with one ``iter_unpack`` call
(:meth:`TupleCodec.rows`) and moves a relocated cell as its raw slot
images.  Two things hold it to the per-slot codec it replaced:

* a property: the page decoder, ``decode_page``, ``read_cell`` and
  ``dissolve_cell`` equal a per-slot ``TupleCodec.decode`` reference on
  random pages — shared by several cells, with empty slots, at page
  sizes that are not multiples of 32;
* a seeded insert/delete/update stream whose page I/O per component and
  ``save_index`` bytes are pinned to the values the per-slot write path
  produced (any change to a page image, a free-slot choice or the I/O
  a write costs moves one of them).
"""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from repro.core.headfile import CellPages
from repro.core.index import I3Index
from repro.core.kwcells import DataFile
from repro.core.persistence import save_index
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.iostats import IOStats
from repro.storage.records import TUPLE_SIZE, StoredTuple, TupleCodec

from tests.helpers import make_documents

SOURCES = (1, 2, 3)

stored = st.builds(
    StoredTuple,
    doc_id=st.integers(0, 2**64 - 1),
    x=st.floats(allow_nan=False),
    y=st.floats(allow_nan=False),
    weight=st.floats(allow_nan=False, width=32),
    source_id=st.sampled_from(SOURCES),
)
# One slot: a tuple of one of three cells sharing the page, or empty.
slot = st.one_of(st.none(), stored)


def reference_slots(page: bytes):
    """``(slot, tuple)`` for every occupied slot, one ``decode`` each."""
    out = []
    for i in range(len(page) // TUPLE_SIZE):
        chunk = page[i * TUPLE_SIZE : (i + 1) * TUPLE_SIZE]
        if not TupleCodec.is_empty(chunk):
            out.append((i, TupleCodec.decode(chunk)))
    return out


@st.composite
def page_images(draw):
    size = draw(st.integers(TUPLE_SIZE, 9 * TUPLE_SIZE))
    slots = draw(st.lists(slot, min_size=size // TUPLE_SIZE, max_size=size // TUPLE_SIZE))
    body = b"".join(bytes(TUPLE_SIZE) if t is None else TupleCodec.encode(t) for t in slots)
    return body + draw(st.binary(min_size=size % TUPLE_SIZE, max_size=size % TUPLE_SIZE))


class TestPageDecoder:
    @given(page_images())
    def test_rows_and_decode_page_equal_per_slot_decode(self, page):
        rows = list(TupleCodec.rows(page))
        assert len(rows) == len(page) // TUPLE_SIZE
        reference = reference_slots(page)
        assert [(i, StoredTuple(*rows[i])) for i, _ in reference] == reference
        assert TupleCodec.decode_page(page) == reference
        assert all(rows[i][4] == 0 for i in set(range(len(rows))) - dict(reference).keys())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(TUPLE_SIZE, 9 * TUPLE_SIZE),
        st.lists(st.lists(slot, min_size=9, max_size=9), min_size=1, max_size=3),
        st.sampled_from(SOURCES),
    )
    def test_read_and_dissolve_cell_equal_per_slot_decode(self, size, pages, source):
        stats = IOStats()
        data = DataFile(stats=stats, page_size=size)
        per_page = data.capacity
        filler = StoredTuple(0, 0.0, 0.0, 0.0, SOURCES[0])
        cell = CellPages(source_id=source)
        for slots in pages:
            slots = slots[:per_page]
            page = data.slotted.allocate_page()
            data.slotted.insert_many(page, [TupleCodec.encode(t or filler) for t in slots])
            data.slotted.delete_many(page, [i for i, t in enumerate(slots) if t is None])
            cell.pages.append(page)
        images = {p: bytes(data.file._pages[p]) for p in cell.pages}
        expected = [
            t for p in cell.pages for _, t in reference_slots(images[p]) if t.source_id == source
        ]
        cell.count = len(expected)
        before = stats.snapshot()
        assert data.read_cell(cell) == expected
        assert (stats.snapshot() - before).total == len(pages)
        kept = {
            p: [(i, t) for i, t in reference_slots(images[p]) if t.source_id != source]
            for p in cell.pages
        }
        pages_of_cell = list(cell.pages)
        assert data.dissolve_cell(cell) == expected
        assert cell.pages == [] and cell.count == 0
        for p in pages_of_cell:
            assert reference_slots(bytes(data.file._pages[p])) == kept[p]
            assert data.slotted.occupied_count(p) == len(kept[p])


# ----------------------------------------------------------------------
# The pinned stream
# ----------------------------------------------------------------------

VOCAB = ["w%d" % i for i in range(12)]

# Measured with the per-slot write path (the codec decoding one slot at
# a time and a relocated cell decoded and re-encoded tuple by tuple).
PINNED_READS = {"i3.head": 3875, "i3.data": 4471}
PINNED_WRITES = {"i3.head": 3954, "i3.data": 3497}
PINNED_SHA256 = "81ca4648b9aa3b8f2ce59e8d21b71659dd88c8f311c5e44ae200c8fd11ce8267"


def run_stream(index: I3Index, seed: int = 2013) -> None:
    """Bulk-free churn on a small-page index: relocations, dense splits,
    delete rescans and updates that move tuples across cells.  Every
    delete names a live document."""
    rng = random.Random(seed)
    live = {}
    next_id = 0
    for _ in range(900):
        roll = rng.random()
        if live and roll < 0.25:
            doc = live.pop(rng.choice(sorted(live)))
            assert index.delete_document(doc)
        elif live and roll < 0.4:
            old = live[rng.choice(sorted(live))]
            (fresh,) = make_documents(1, rng, vocab=VOCAB, start_id=old.doc_id)
            index.update_document(old, fresh)
            live[old.doc_id] = fresh
        else:
            (doc,) = make_documents(1, rng, vocab=VOCAB, start_id=next_id)
            next_id += 1
            index.insert_document(doc)
            live[doc.doc_id] = doc
    assert index.num_documents == len(live)


def test_stream_io_and_snapshot_bytes_are_pinned(tmp_path):
    index = I3Index(UNIT_SQUARE, eta=8, page_size=200)
    run_stream(index)
    index.check_invariants()
    io = index.stats.snapshot()
    path = tmp_path / "pinned.i3ix"
    save_index(index, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (io.reads, io.writes, digest) == (PINNED_READS, PINNED_WRITES, PINNED_SHA256)
