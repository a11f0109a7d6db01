"""Unit tests for the storage substrate: pager, iostats, records, slots."""

import pytest

from repro.storage.iostats import IOSnapshot, IOStats
from repro.storage.pager import PageFile
from repro.storage.records import StoredTuple, TupleCodec, TUPLE_SIZE, f32
from repro.storage.slotted import SlottedFile


class TestIOStats:
    def test_counters_accumulate(self):
        stats = IOStats()
        stats.record_read("a")
        stats.record_read("a", 2)
        stats.record_write("b")
        assert stats.reads("a") == 3
        assert stats.reads("b") == 0
        assert stats.writes("b") == 1
        assert stats.reads() == 3
        assert stats.total() == 4

    def test_reset(self):
        stats = IOStats()
        stats.record_read("x")
        stats.reset()
        assert stats.total() == 0

    def test_snapshot_subtraction(self):
        stats = IOStats()
        stats.record_read("a", 5)
        before = stats.snapshot()
        stats.record_read("a", 2)
        stats.record_write("b", 3)
        delta = stats.snapshot() - before
        assert delta.reads == {"a": 2}
        assert delta.writes == {"b": 3}
        assert delta.total_reads == 2
        assert delta.total == 5

    def test_snapshot_is_immutable_copy(self):
        stats = IOStats()
        stats.record_read("a")
        snap = stats.snapshot()
        stats.record_read("a")
        assert snap.reads["a"] == 1

    def test_empty_snapshot_totals(self):
        assert IOSnapshot().total == 0


class TestPageFile:
    def test_allocate_read_write_roundtrip(self):
        f = PageFile(page_size=128)
        pid = f.allocate()
        f.write(pid, b"hello")
        data = f.read(pid)
        assert data[:5] == b"hello"
        assert data[5:] == bytes(123)

    def test_write_clears_tail(self):
        f = PageFile(page_size=16)
        pid = f.allocate()
        f.write(pid, b"x" * 16)
        f.write(pid, b"short")
        assert f.read(pid) == b"short" + bytes(11)

    def test_oversized_write_rejected(self):
        f = PageFile(page_size=8)
        pid = f.allocate()
        with pytest.raises(ValueError):
            f.write(pid, b"123456789")

    def test_out_of_range_page(self):
        f = PageFile(page_size=8)
        with pytest.raises(IndexError):
            f.read(0)

    def test_io_accounting(self):
        stats = IOStats()
        f = PageFile(page_size=64, stats=stats, component="test")
        pid = f.allocate()
        assert stats.total() == 0  # allocation of zeroed pages is free
        f.write(pid, b"a")
        f.read(pid)
        f.read(pid)
        assert stats.writes("test") == 1
        assert stats.reads("test") == 2

    def test_size_accounting(self):
        f = PageFile(page_size=256)
        assert f.size_bytes == 0
        f.allocate()
        f.allocate()
        assert f.num_pages == 2
        assert f.size_bytes == 512


class TestTupleCodec:
    def test_tuple_is_32_bytes(self):
        assert TUPLE_SIZE == 32

    def test_roundtrip(self):
        (image,) = TupleCodec.encode([(123456789, 0.25, 0.75, f32(0.613))], 42)
        back = TupleCodec.decode(image)
        assert back == StoredTuple(123456789, 0.25, 0.75, f32(0.613), 42)

    def test_weight_survives_f32_quantisation(self):
        w = f32(0.1)
        (image,) = TupleCodec.encode([(1, 0.0, 0.0, w)], 1)
        assert TupleCodec.decode(image).weight == w

    def test_source_zero_reserved(self):
        with pytest.raises(ValueError):
            TupleCodec.encode([(1, 0.0, 0.0, 0.5)], 0)

    def test_zeroed_slot_is_empty(self):
        assert TupleCodec.is_empty(bytes(TUPLE_SIZE))
        assert not TupleCodec.is_empty(TupleCodec.encode([(0, 0.0, 0.0, 0.0)], 7)[0])

    def test_decode_page_skips_empty_slots(self):
        page = bytearray(4 * TUPLE_SIZE)
        t = StoredTuple(doc_id=9, x=0.5, y=0.5, weight=f32(0.3), source_id=3)
        page[TUPLE_SIZE : 2 * TUPLE_SIZE] = TupleCodec.encode([(9, 0.5, 0.5, f32(0.3))], 3)[0]
        decoded = TupleCodec.decode_page(bytes(page))
        assert decoded == [(1, t)]

    def test_f32_idempotent(self):
        for v in [0.0, 0.1, 1.0, 0.333333, 123.456]:
            assert f32(f32(v)) == f32(v)


class TestSlottedFile:
    def make(self, record_size=8, page_size=32, stats=None):
        return SlottedFile(PageFile(page_size=page_size, stats=stats), record_size)

    def test_slots_per_page(self):
        s = self.make()
        assert s.slots_per_page == 4

    def test_insert_and_read(self):
        s = self.make()
        pid = s.allocate_page()
        s.insert(pid, b"AAAAAAAA")
        s.insert(pid, b"BBBBBBBB")
        records = s.read_records(pid)
        assert [payload for _, payload in records] == [b"AAAAAAAA", b"BBBBBBBB"]

    def test_insert_full_page_raises(self):
        s = self.make()
        pid = s.allocate_page()
        for i in range(4):
            s.insert(pid, bytes([i + 1]) * 8)
        with pytest.raises(ValueError):
            s.insert(pid, b"XXXXXXXX")

    def test_wrong_payload_size_rejected(self):
        s = self.make()
        pid = s.allocate_page()
        with pytest.raises(ValueError):
            s.insert(pid, b"short")

    def test_delete_frees_slot_and_zeroes(self):
        s = self.make()
        pid = s.allocate_page()
        slot = s.insert(pid, b"CCCCCCCC")
        s.delete(pid, slot)
        assert s.free_count(pid) == 4
        page = s.store.read(pid)
        assert page == bytes(32)

    def test_double_delete_rejected(self):
        s = self.make()
        pid = s.allocate_page()
        slot = s.insert(pid, b"DDDDDDDD")
        s.delete(pid, slot)
        with pytest.raises(ValueError):
            s.delete(pid, slot)

    def test_scan_and_delete_one_read_modify_write(self):
        stats = IOStats()
        s = self.make(stats=stats)
        pid = s.allocate_page()
        s.insert_many(pid, [b"AAAAAAAA", b"BBBBBBBB", b"CCCCCCCC"])
        before = stats.total()
        image, deleted = s.scan_and_delete(pid, lambda image: [1])
        assert (image, deleted) == (b"AAAAAAAABBBBBBBBCCCCCCCC" + bytes(8), [1])
        assert stats.total() - before == 2  # one read, one write
        assert s.store.read(pid) == b"AAAAAAAA" + bytes(8) + b"CCCCCCCC" + bytes(8)
        assert s.free_count(pid) == 2
        before = stats.total()
        assert s.scan_and_delete(pid, lambda image: [])[1] == []
        assert stats.total() - before == 1  # nothing matched: no write
        with pytest.raises(ValueError):
            s.scan_and_delete(pid, lambda image: [1])  # already free

    def test_page_with_free_prefers_fullest(self):
        s = self.make()
        a = s.allocate_page()
        b = s.allocate_page()
        s.insert_many(a, [b"11111111", b"22222222", b"33333333"])  # 1 free
        s.insert(b, b"44444444")  # 3 free
        assert s.page_with_free(1) == a
        assert s.page_with_free(2) == b

    def test_page_with_free_allocates_when_needed(self):
        s = self.make()
        pid = s.allocate_page()
        s.insert_many(pid, [b"11111111"] * 4)
        fresh = s.page_with_free(1)
        assert fresh != pid

    def test_page_with_free_bounds(self):
        s = self.make()
        with pytest.raises(ValueError):
            s.page_with_free(0)
        with pytest.raises(ValueError):
            s.page_with_free(5)

    def test_insert_many_single_io(self):
        stats = IOStats()
        s = self.make(stats=stats)
        pid = s.allocate_page()
        before = stats.total()
        s.insert_many(pid, [b"11111111", b"22222222"])
        # One read-modify-write regardless of the record count.
        assert stats.total() - before == 2

    def test_insert_many_fills_the_lowest_free_slots_in_place(self):
        stats = IOStats()
        s = self.make(stats=stats)
        pid = s.allocate_page()
        s.insert_many(pid, [b"AAAAAAAA", b"XXXXXXXX", b"BBBBBBBB"])
        s.delete(pid, 1)
        before = stats.total()
        assert s.insert_many(pid, [b"CCCCCCCC", b"DDDDDDDD"]) == [1, 3]
        assert stats.total() - before == 2  # one read, one write
        image = s.store.read(pid)
        assert image == b"AAAAAAAACCCCCCCCBBBBBBBBDDDDDDDD"
        before = stats.total()
        with pytest.raises(ValueError):
            s.insert_many(pid, [b"EEEEEEEE"])  # full
        s.delete(pid, 0)
        with pytest.raises(ValueError):
            s.insert_many(pid, [b"EEEE"])  # wrong size
        assert stats.total() - before == 2  # only the delete was charged
        assert s.store.read(pid) == bytes(8) + image[8:]
        assert s.free_count(pid) == 1

    def test_utilisation(self):
        s = self.make()
        pid = s.allocate_page()
        assert s.utilisation == 0.0
        s.insert_many(pid, [b"11111111", b"22222222"])
        assert s.utilisation == pytest.approx(0.5)
        assert s.total_records == 2

    def test_slot_reuse_after_delete(self):
        s = self.make()
        pid = s.allocate_page()
        slots = s.insert_many(pid, [b"11111111", b"22222222", b"33333333", b"44444444"])
        s.delete(pid, slots[1])
        new_slot = s.insert(pid, b"55555555")
        assert new_slot == slots[1]
