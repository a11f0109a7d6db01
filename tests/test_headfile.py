"""Unit tests for I3's head file, summary nodes and summary info."""

import pytest

from repro.core.headfile import CellPages, HeadFile, SummaryInfo, SummaryNode
from repro.spatial.cells import ROOT_CELL
from repro.storage.iostats import IOStats


def tup(doc_id, weight=0.5, x=0.5, y=0.5):
    return (doc_id, x, y, weight)


class TestSummaryInfo:
    def test_of_rows(self):
        info = SummaryInfo.of_rows(32, [tup(1, 0.3), tup(2, 0.8), tup(3, 0.5)])
        assert info.count == 3
        assert info.max_s == 0.8
        assert all(info.sig.might_contain(d) for d in (1, 2, 3))

    def test_add_incrementally_matches_of_rows(self):
        rows = [tup(4, 0.2), tup(9, 0.9)]
        a = SummaryInfo.of_rows(16, rows)
        b = SummaryInfo.empty(16)
        for doc_id, _, _, weight in rows:
            b.add(doc_id, weight)
        assert a.sig == b.sig and a.max_s == b.max_s and a.count == b.count

    def test_combine_unions_children(self):
        a = SummaryInfo.of_rows(16, [tup(1, 0.3)])
        b = SummaryInfo.of_rows(16, [tup(2, 0.7), tup(3, 0.1)])
        combined = SummaryInfo.combine(16, [a, b])
        assert combined.count == 3
        assert combined.max_s == 0.7
        for d in (1, 2, 3):
            assert combined.sig.might_contain(d)

    def test_copy_is_independent(self):
        a = SummaryInfo.of_rows(16, [tup(1, 0.3)])
        b = a.copy()
        b.add(2, 0.9)
        assert a.count == 1
        assert not a.sig.might_contain(2)
        assert a.max_s == 0.3

    def test_size_bytes(self):
        info = SummaryInfo.empty(300)
        assert info.size_bytes == 38 + 8


def make_node(word="w", eta=16):
    return SummaryNode(
        word=word,
        cell=ROOT_CELL,
        own=SummaryInfo.empty(eta),
        children=[SummaryInfo.empty(eta) for _ in range(4)],
        child_ptrs=[None, None, None, None],
    )


class TestSummaryNode:
    def test_requires_four_children(self):
        with pytest.raises(ValueError):
            SummaryNode(
                word="w",
                cell=ROOT_CELL,
                own=SummaryInfo.empty(8),
                children=[SummaryInfo.empty(8)] * 3,
                child_ptrs=[None] * 4,
            )

    def test_size_grows_with_pointers(self):
        node = make_node()
        base = node.size_bytes()
        node.child_ptrs[0] = CellPages(source_id=5, pages=[1, 2], count=10)
        assert node.size_bytes() > base


class TestHeadFile:
    def test_allocate_read_write_and_io(self):
        stats = IOStats()
        head = HeadFile(stats=stats, component="head")
        node = make_node()
        nid = head.allocate(node)
        assert stats.writes("head") == 1
        got = head.read(nid)
        assert got is node
        assert stats.reads("head") == 1
        head.write(nid, node)
        assert stats.writes("head") == 2

    def test_size_rounded_to_pages(self):
        head = HeadFile(page_size=4096)
        assert head.size_bytes == 0
        head.allocate(make_node())
        assert head.size_bytes == 4096  # one partial page rounds up
        # Many nodes pack into pages rather than one page each.
        for i in range(50):
            head.allocate(make_node(word=f"w{i}"))
        assert head.size_bytes < 51 * 4096
        assert head.num_nodes == 51
