"""Unit tests for the data-file keyword-cell mechanics (DataFile)."""

import pytest

from repro.core.kwcells import DataFile
from repro.storage.iostats import IOStats
from repro.storage.records import f32


def tup(doc_id, weight=0.5):
    return (doc_id, 0.5, 0.5, f32(weight))


def make(page_size=64, stats=None):
    # 64-byte pages -> 2 tuple slots, the paper's Figure 2 scale.
    return DataFile(stats=stats, page_size=page_size)


class TestCreateAndRead:
    def test_capacity_is_page_slots(self):
        assert make().capacity == 2
        assert DataFile(page_size=4096).capacity == 128

    def test_create_empty_cell(self):
        data = make()
        cell = data.create_cell([])
        assert cell.count == 0 and cell.pages == []
        assert data.read_cell(cell) == []

    def test_create_and_read_roundtrip(self):
        data = make()
        cell = data.create_cell([tup(1, 0.25), tup(2, 0.5)])
        got = data.read_cell(cell)
        assert {t.doc_id for t in got} == {1, 2}
        assert all(t.source_id == cell.source_id for t in got)

    def test_source_ids_unique_per_cell(self):
        data = make()
        a = data.create_cell([tup(1)])
        b = data.create_cell([tup(2)])
        assert a.source_id != b.source_id

    def test_cells_share_pages(self):
        data = make(page_size=128)  # 4 slots
        a = data.create_cell([tup(1), tup(2)])
        b = data.create_cell([tup(3), tup(4)])
        assert a.pages == b.pages  # fullest-page-first placement shares
        assert {t.doc_id for t in data.read_cell(a)} == {1, 2}
        assert {t.doc_id for t in data.read_cell(b)} == {3, 4}

    def test_oversized_cell_chains_pages(self):
        data = make()  # capacity 2
        cell = data.create_cell([tup(i) for i in range(5)])
        assert cell.count == 5
        assert len(cell.pages) >= 3
        assert {t.doc_id for t in data.read_cell(cell)} == set(range(5))


class TestInsertIntoCell:
    def test_insert_into_free_slot(self):
        data = make()
        cell = data.create_cell([tup(1)])
        data.insert_into_cell(cell, tup(2))
        assert cell.count == 2
        assert len(cell.pages) == 1

    def test_insert_into_empty_cell(self):
        data = make()
        cell = data.create_cell([])
        data.insert_into_cell(cell, tup(1))
        assert cell.count == 1 and len(cell.pages) == 1

    def test_move_when_page_shared_and_full(self):
        data = make(page_size=128)  # 4 slots
        a = data.create_cell([tup(1), tup(2)])
        b = data.create_cell([tup(3), tup(4)])
        old_page = a.pages[0]
        data.insert_into_cell(a, tup(5))  # page full, mixed sources -> move
        assert a.count == 3
        assert a.pages[0] != old_page
        assert {t.doc_id for t in data.read_cell(a)} == {1, 2, 5}
        assert {t.doc_id for t in data.read_cell(b)} == {3, 4}  # untouched

    def test_at_capacity_without_overflow_flag_raises(self):
        data = make()  # capacity 2
        cell = data.create_cell([tup(1), tup(2)])
        with pytest.raises(ValueError):
            data.insert_into_cell(cell, tup(3))

    def test_overflow_allowed_chains_page(self):
        data = make()
        cell = data.create_cell([tup(1), tup(2)])
        data.insert_into_cell(cell, tup(3), allow_overflow=True)
        assert cell.count == 3
        assert len(cell.pages) == 2
        assert {t.doc_id for t in data.read_cell(cell)} == {1, 2, 3}


class TestDeleteAndDissolve:
    def test_delete_from_cell(self):
        data = make()
        cell = data.create_cell([tup(1), tup(2)])
        assert data.delete_from_cell(cell, 1)
        assert cell.count == 1
        assert not data.delete_from_cell(cell, 1)
        assert {t.doc_id for t in data.read_cell(cell)} == {2}

    def test_delete_last_clears_pages(self):
        data = make()
        cell = data.create_cell([tup(1)])
        assert data.delete_from_cell(cell, 1)
        assert cell.count == 0 and cell.pages == []

    def test_delete_only_touches_own_source(self):
        data = make(page_size=128)
        a = data.create_cell([tup(1)])
        b = data.create_cell([tup(1)])  # same doc id, different keyword cell
        assert data.delete_from_cell(a, 1)
        assert {t.doc_id for t in data.read_cell(b)} == {1}

    def test_dissolve_returns_tuples_and_frees_slots(self):
        stats = IOStats()
        data = make(stats=stats)
        cell = data.create_cell([tup(1), tup(2)])
        page = cell.pages[0]
        out = data.dissolve_cell(cell)
        assert out == [tup(1), tup(2)]
        assert cell.count == 0 and cell.pages == []
        assert data.slotted.free_count(page) == data.capacity

    def test_freed_slots_are_reused(self):
        data = make()
        cell = data.create_cell([tup(1), tup(2)])
        data.dissolve_cell(cell)
        fresh = data.create_cell([tup(3), tup(4)])
        assert data.num_pages == 1  # no new page allocated
        assert {t.doc_id for t in data.read_cell(fresh)} == {3, 4}


class TestAccountingAndScan:
    def test_read_cell_costs_one_io_per_page(self):
        stats = IOStats()
        data = make(stats=stats)
        cell = data.create_cell([tup(1), tup(2)])
        before = stats.reads("i3.data")
        data.read_cell(cell)
        assert stats.reads("i3.data") - before == 1

    def test_utilisation_and_scan(self):
        data = make(page_size=128)
        data.create_cell([tup(i) for i in range(3)])
        assert data.utilisation == pytest.approx(3 / 4)
        assert {t.doc_id for t in data.scan_all()} == {0, 1, 2}

    def test_size_bytes(self):
        data = make(page_size=64)
        data.create_cell([tup(1)])
        assert data.size_bytes == 64
