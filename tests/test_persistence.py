"""Round-trip tests for the binary index format (I3IX v2)."""


import pytest

from repro.baselines.naive import NaiveScanIndex
from repro.core.index import I3Index
from repro.core.persistence import FORMAT_VERSION, MAGIC, load_index, save_index
from repro.exec.snapshot import ReadOnlySnapshotError, open_snapshot
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect, UNIT_SQUARE

from tests.helpers import make_documents, results_as_pairs


def build_sample(rng, page_size=64, count=120, space=UNIT_SQUARE):
    index = I3Index(space, page_size=page_size)
    naive = NaiveScanIndex()
    docs = make_documents(count, rng, space=space)
    for doc in docs:
        index.insert_document(doc)
        naive.insert_document(doc)
    return index, naive, docs


class TestRoundTrip:
    def test_identical_query_results(self, rng, tmp_path):
        index, naive, _ = build_sample(rng)
        path = tmp_path / "sample.i3ix"
        save_index(index, str(path))
        loaded = load_index(str(path))
        loaded.check_invariants()
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        for trial in range(25):
            words = tuple(rng.sample(["spicy", "restaurant", "pizza", "bar"], rng.randint(1, 3)))
            semantics = rng.choice([Semantics.AND, Semantics.OR])
            query = TopKQuery(rng.random(), rng.random(), words, k=7, semantics=semantics)
            assert results_as_pairs(loaded.query(query, ranker)) == results_as_pairs(
                naive.query(query, ranker)
            )

    def test_metadata_preserved(self, rng, tmp_path):
        space = Rect(-10.0, -5.0, 10.0, 5.0)
        index, _, _ = build_sample(rng, page_size=128, space=space)
        path = tmp_path / "meta.i3ix"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.space == space
        assert loaded.eta == index.eta
        assert loaded.capacity == index.capacity
        assert loaded.max_depth == index.max_depth
        assert loaded.num_documents == index.num_documents
        assert loaded.num_tuples == index.num_tuples
        assert loaded.head.num_nodes == index.head.num_nodes
        assert len(loaded.lookup) == len(index.lookup)
        assert loaded.size_breakdown() == index.size_breakdown()

    def test_updates_after_load(self, rng, tmp_path):
        index, naive, docs = build_sample(rng)
        path = tmp_path / "upd.i3ix"
        save_index(index, str(path))
        loaded = load_index(str(path))
        # Delete half, insert fresh ones: source-id allocation and slot
        # occupancy must have been restored correctly.
        for doc in docs[::2]:
            assert loaded.delete_document(doc)
            naive.delete_document(doc)
        fresh = make_documents(30, rng, start_id=10_000)
        for doc in fresh:
            loaded.insert_document(doc)
            naive.insert_document(doc)
        loaded.check_invariants()
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        query = TopKQuery(0.4, 0.6, ("spicy", "restaurant"), k=10)
        assert results_as_pairs(loaded.query(query, ranker)) == results_as_pairs(
            naive.query(query, ranker)
        )

    def test_empty_index(self, tmp_path):
        index = I3Index(UNIT_SQUARE)
        path = tmp_path / "empty.i3ix"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.num_tuples == 0
        query = TopKQuery(0.5, 0.5, ("anything",), k=3)
        assert loaded.query(query, Ranker(UNIT_SQUARE)) == []

    def test_save_load_save_stable(self, rng, tmp_path):
        index, _, _ = build_sample(rng, count=60)
        a = tmp_path / "a.i3ix"
        b = tmp_path / "b.i3ix"
        save_index(index, str(a))
        save_index(load_index(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestAllocatorAfterReload:
    """Both readers hand every page to ``SlottedFile.adopt_page``, so the
    restored allocator holds the pages the saved one held, under the
    same free counts, and answers "a page with >= n free slots" from
    the same bucket."""

    def test_readers_restore_the_allocator(self, rng, tmp_path):
        docs = make_documents(3000, rng)
        index = I3Index(UNIT_SQUARE, page_size=4096)
        index.bulk_load(docs[:2000])
        for doc in docs[2000:]:
            index.insert_document(doc)
        for doc in docs[::5]:
            assert index.delete_document(doc)
        path = str(tmp_path / "alloc.i3ix")
        save_index(index, path)
        fresh = index.data.slotted
        loaded = load_index(path).data.slotted
        mapped = open_snapshot(path)[0].data.slotted

        def buckets(slotted):
            return {c: b for c, b in slotted._by_free_count.items() if b}

        for restored in (loaded, mapped):
            assert restored._free == fresh._free
            assert buckets(restored) == buckets(fresh)
        whole = fresh.slots_per_page
        for n in range(1, whole + 1):
            fits = [c for c in buckets(fresh) if c >= n]
            if not fits:  # only a new page has room: the snapshot cannot grow
                with pytest.raises(ReadOnlySnapshotError):
                    mapped.page_with_free(n)
                continue
            picks = {s.page_with_free(n) for s in (fresh, loaded, mapped)}
            assert {fresh.free_count(p) for p in picks} == {min(fits)}
            if n in (1, 7, 64, 128):
                assert loaded.page_with_free(n) == mapped.page_with_free(n)
        assert whole not in buckets(fresh)
        next_page = fresh.num_pages
        assert fresh.page_with_free(whole) == loaded.page_with_free(whole) == next_page


class TestFormatValidation:
    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.i3ix"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ValueError, match="magic|not an I3"):
            load_index(str(path))

    def test_truncated_rejected(self, rng, tmp_path):
        index, _, _ = build_sample(rng, count=40)
        path = tmp_path / "trunc.i3ix"
        save_index(index, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_index(str(path))

    def test_future_version_rejected(self, rng, tmp_path):
        index, _, _ = build_sample(rng, count=10)
        path = tmp_path / "vers.i3ix"
        save_index(index, str(path))
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_index(str(path))

    def test_format_constants(self):
        assert MAGIC == b"I3IX"
        # v2 added the durability fields: epoch + last-LSN in the
        # header, header/page/tail checksums throughout.
        assert FORMAT_VERSION == 2


class TestCorruptionRobustness:
    """Random single-byte corruption must fail cleanly, never crash with
    an unhandled non-ValueError or hang."""

    def test_random_corruption_raises_cleanly(self, rng, tmp_path):
        index, _, _ = build_sample(rng, count=50)
        path = tmp_path / "fuzz.i3ix"
        save_index(index, str(path))
        original = path.read_bytes()
        for trial in range(40):
            data = bytearray(original)
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(data))
            try:
                loaded = load_index(str(path))
            except (ValueError, UnicodeDecodeError, OverflowError, MemoryError):
                continue  # clean rejection
            # A flipped bit inside page payloads can load fine; the
            # loaded index must still be structurally queryable.
            query = TopKQuery(0.5, 0.5, ("restaurant",), k=3)
            loaded.query(query, Ranker(UNIT_SQUARE))
