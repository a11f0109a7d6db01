"""The mmap snapshot serving path.

Contract under test: an I3IX v2 snapshot opened through
:func:`repro.exec.snapshot.open_snapshot` answers queries — with either
engine — byte-identically to the live index it was cut from, refuses
every mutation, detects corruption on open, and keeps the same counted
I/O accounting.
"""

import random

import pytest

from repro.core.index import I3Index
from repro.core.persistence import save_index
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.errors import SnapshotCorruptionError
from repro.storage.records import f32

from repro.exec.snapshot import ReadOnlySnapshotError, open_snapshot

VOCAB = [f"w{i}" for i in range(16)]


def _build(num_docs=600, seed=21, page_size=256):
    rng = random.Random(seed)
    index = I3Index(UNIT_SQUARE, page_size=page_size)
    for doc_id in range(num_docs):
        terms = {
            w: f32(rng.random())
            for w in rng.sample(VOCAB, rng.randint(1, 4))
        }
        index.insert_document(
            SpatialDocument(doc_id, rng.random(), rng.random(), terms)
        )
    return index


def _queries(count, seed=8):
    rng = random.Random(seed)
    return [
        TopKQuery(
            rng.random(),
            rng.random(),
            tuple(rng.sample(VOCAB, rng.randint(1, 3))),
            k=rng.choice([1, 5, 10]),
            semantics=rng.choice([Semantics.OR, Semantics.AND]),
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    index = _build()
    path = str(tmp_path_factory.mktemp("exec") / "index.i3ix")
    save_index(index, path)
    return path, index


class TestMmapSnapshot:
    def test_byte_identical_to_live_index_all_engines(self, snapshot_path):
        path, live = snapshot_path
        snap, meta = open_snapshot(path)
        assert meta.epoch == live.epoch
        assert snap.num_documents == live.num_documents
        ranker = Ranker(UNIT_SQUARE, 0.5)
        for query in _queries(60):
            expected = live.query(query, ranker)
            for engine in ("tuple", "vector"):
                got = snap.query(query, ranker, engine=engine)
                assert got == expected
                assert [r.score.hex() for r in got] == [
                    r.score.hex() for r in expected
                ]

    def test_reads_are_counted(self, snapshot_path):
        path, _live = snapshot_path
        snap, _ = open_snapshot(path)
        before = snap.stats.reads()
        snap.query(_queries(1)[0], Ranker(UNIT_SQUARE, 0.5))
        assert snap.stats.reads() > before

    def test_mutations_refused(self, snapshot_path):
        path, _live = snapshot_path
        snap, _ = open_snapshot(path)
        doc = SpatialDocument(10**6, 0.5, 0.5, {"w0": f32(0.5)})
        with pytest.raises(ReadOnlySnapshotError):
            snap.insert_document(doc)
        with pytest.raises(ReadOnlySnapshotError):
            snap.data.file.allocate()
        with pytest.raises(ReadOnlySnapshotError):
            snap.data.file.write(0, b"x")
        with pytest.raises(ReadOnlySnapshotError):
            snap.data.file.rewrite(0, lambda page: None)

    def test_page_corruption_detected_on_open(self, snapshot_path, tmp_path):
        path, _live = snapshot_path
        raw = bytearray(open(path, "rb").read())
        # Flip a byte in the middle of the page region (past the header).
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.i3ix"
        bad.write_bytes(bytes(raw))
        with pytest.raises((SnapshotCorruptionError, ValueError)):
            open_snapshot(str(bad))

    def test_truncation_detected_on_open(self, snapshot_path, tmp_path):
        path, _live = snapshot_path
        raw = open(path, "rb").read()
        bad = tmp_path / "short.i3ix"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptionError):
            open_snapshot(str(bad))

    def test_verify_false_skips_page_scan_but_parses(self, snapshot_path):
        path, live = snapshot_path
        snap, _ = open_snapshot(path, verify=False)
        query = _queries(1, seed=3)[0]
        ranker = Ranker(UNIT_SQUARE, 0.5)
        assert snap.query(query, ranker) == live.query(query, ranker)
