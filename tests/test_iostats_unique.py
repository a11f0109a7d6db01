"""Tests for the unique-page (buffer-then-flush) I/O accounting."""

from repro.storage.iostats import IOStats
from repro.storage.pager import PageFile


class TestUniqueWindow:
    def test_repeat_access_counts_once(self):
        stats = IOStats()
        for _ in range(5):
            stats.record_read("c", key=7)
        stats.record_write("c", key=7)
        stats.record_write("c", key=8)
        assert stats.reads("c") == 5  # raw counting unchanged
        assert stats.unique_reads("c") == 1
        assert stats.unique_writes("c") == 2
        assert stats.unique_total() == 3

    def test_keyless_access_not_tracked(self):
        stats = IOStats()
        stats.record_read("c", 3)
        assert stats.reads("c") == 3
        assert stats.unique_reads("c") == 0

    def test_components_tracked_separately(self):
        stats = IOStats()
        stats.record_read("a", key=1)
        stats.record_read("b", key=1)
        assert stats.unique_reads() == 2
        assert stats.unique_reads("a") == 1

    def test_reset_unique_keeps_raw(self):
        stats = IOStats()
        stats.record_read("c", key=1)
        stats.reset_unique()
        assert stats.reads("c") == 1
        assert stats.unique_reads() == 0
        stats.record_read("c", key=1)
        assert stats.unique_reads() == 1

    def test_full_reset_clears_both(self):
        stats = IOStats()
        stats.record_write("c", key=1)
        stats.reset()
        assert stats.total() == 0
        assert stats.unique_total() == 0

    def test_pagefile_supplies_page_keys(self):
        stats = IOStats()
        file = PageFile(page_size=32, stats=stats, component="d")
        a = file.allocate()
        b = file.allocate()
        for _ in range(4):
            file.read(a)
        file.read(b)
        file.write(a, b"x")
        file.write(a, b"y")
        assert stats.unique_reads("d") == 2
        assert stats.unique_writes("d") == 1

    def test_rewrite_counts_a_read_and_a_write(self):
        """``record_rewrite`` moves every counter, the tee'd sink's too,
        exactly as ``record_read`` + ``record_write`` do."""
        def drive(stats, rewrite):
            sink = IOStats()
            with stats.tee(sink):
                for key in (1, 1, 2, None):
                    if rewrite:
                        stats.record_rewrite("c", 2, key=key)
                    else:
                        stats.record_read("c", 2, key=key)
                        stats.record_write("c", 2, key=key)
            return [(s.snapshot(), s.unique_reads(), s.unique_writes())
                    for s in (stats, sink)]

        assert drive(IOStats(), True) == drive(IOStats(), False)
        stats = IOStats()
        drive(stats, True)
        assert (stats.reads("c"), stats.writes("c")) == (8, 8)
