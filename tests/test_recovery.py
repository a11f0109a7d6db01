"""Recovery-path tests: DurableIndex round trips and replay, snapshot
corruption detection, and recover() at the service and cluster layers."""

import json
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterService, HashPartitioner
from repro.core.index import I3Index
from repro.core.persistence import (
    SnapshotMeta,
    load_snapshot,
    save_index,
)
from repro.core.recovery import DurableIndex, wal_body, wal_documents
from repro.exec.snapshot import open_snapshot
from repro.model.document import SpatialDocument, document_to_record
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.net.client import Client
from repro.net.errors import ProtocolError
from repro.service import QueryService, ServiceConfig
from repro.simtest.simfs import SimFileSystem
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.errors import SnapshotCorruptionError, WalCorruptionError
from repro.storage.wal import (
    _FRAME,
    _PREFIX,
    WAL_DELETE,
    WAL_INSERT,
    WAL_UPDATE,
    WalRecord,
    scan_wal,
)

from tests.helpers import make_documents, results_as_pairs, serving


def fresh_index(**kwargs):
    kwargs.setdefault("eta", 8)
    kwargs.setdefault("page_size", 256)
    return I3Index(UNIT_SQUARE, **kwargs)


class TestDocumentCodec:
    """A WAL body is the document record as compact JSON: one for an
    insert or a delete, the list ``[old, new]`` for an update."""

    def test_round_trip(self, rng):
        for doc in make_documents(25, rng):
            for ts in (None, 12.5):
                body = wal_body(document_to_record(doc, ts))
                assert json.loads(body) == document_to_record(doc, ts)
                assert b" " not in body  # compact: no separator padding
                [(decoded, got)] = wal_documents(WalRecord(WAL_INSERT, 1, body))
                assert decoded == doc and got == ts

    def test_two_documents_concatenated(self, rng):
        a, b = make_documents(2, rng)
        body = wal_body([document_to_record(a), document_to_record(b)])
        assert wal_documents(WalRecord(WAL_UPDATE, 1, body)) == [(a, None), (b, None)]
        with pytest.raises(ValueError, match=r"\[old, new\]"):
            wal_documents(WalRecord(WAL_UPDATE, 1, wal_body([document_to_record(a)])))

    def test_truncated_body_raises(self, rng):
        """A framed record whose body does not decode is corruption at
        that record's byte offset, not a bare ValueError."""
        (doc,) = make_documents(1, rng)
        fs = SimFileSystem()
        DurableIndex.create("s", fresh_index(), fs=fs).close()
        image = fs.read_bytes("s/wal.log")
        body = wal_body(document_to_record(doc))
        with fs.open("s/wal.log", "wb") as fh:
            fh.write(image + frame(WAL_INSERT, 1, body[: len(body) - 3]))
        with pytest.raises(WalCorruptionError, match="does not replay") as info:
            DurableIndex.open("s", fs=fs)
        assert info.value.offset == len(image)


def frame(rec_type: int, lsn: int, body: bytes) -> bytes:
    """One WAL frame with a valid CRC, whatever its body holds."""
    payload = _PREFIX.pack(rec_type, lsn) + body
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class TestDurableIndex:
    def test_mutations_survive_reopen(self, rng, tmp_path):
        docs = make_documents(60, rng)
        store = str(tmp_path / "store")
        du = DurableIndex.create(store, fresh_index())
        for doc in docs[:40]:
            du.insert_document(doc)
        du.checkpoint()
        for doc in docs[40:]:
            du.insert_document(doc)
        du.delete_document(docs[3])
        du.update_document(docs[5], SpatialDocument(docs[5].doc_id, 0.9, 0.9, {"moved": 0.5}))
        expected = (du.index.epoch, du.index.num_documents, du.index.num_tuples)
        du.close()

        reopened = DurableIndex.open(store)
        report = reopened.last_report
        assert (reopened.index.epoch, reopened.index.num_documents,
                reopened.index.num_tuples) == expected
        assert report.snapshot_lsn == 40
        assert report.records_replayed == 22
        assert report.mutations_recovered == 62
        reopened.index.check_invariants()
        reopened.close()

    def test_recovered_results_match_reference(self, rng, tmp_path):
        docs = make_documents(80, rng)
        du = DurableIndex.create(str(tmp_path / "s"), fresh_index())
        reference = fresh_index()
        for doc in docs:
            du.insert_document(doc)
            reference.insert_document(doc)
        for doc in docs[::3]:
            du.delete_document(doc)
            reference.delete_document(doc)
        du.close()
        recovered = DurableIndex.open(str(tmp_path / "s"))
        ranker = Ranker(UNIT_SQUARE)
        for _ in range(25):
            query = TopKQuery(
                rng.random(),
                rng.random(),
                tuple(rng.sample(["spicy", "pizza", "bar", "cafe"], rng.randint(1, 3))),
                k=7,
                semantics=rng.choice([Semantics.AND, Semantics.OR]),
            )
            assert results_as_pairs(recovered.query(query, ranker)) == results_as_pairs(
                reference.query(query, ranker)
            )
        recovered.close()

    def test_absent_delete_keeps_the_count_across_reopen(self, tmp_path):
        store = str(tmp_path / "s")
        du = DurableIndex.create(store, fresh_index())
        du.insert_document(SpatialDocument(1, 0.2, 0.2, {"a": 0.5}))
        du.insert_document(SpatialDocument(2, 0.8, 0.8, {"b": 0.5}))
        # Logged (not-found deletes are logged by design), never counted.
        assert not du.delete_document(SpatialDocument(99, 0.5, 0.5, {"a": 0.5}))
        assert du.index.num_documents == 2
        du.close()
        reopened = DurableIndex.open(store)
        assert reopened.last_report.records_replayed == 3
        assert reopened.index.num_documents == 2
        assert reopened.last_report.num_documents == 2
        reopened.close()

    def test_bulk_load_checkpoints(self, rng, tmp_path):
        du = DurableIndex.create(str(tmp_path / "s"), fresh_index())
        du.bulk_load(make_documents(50, rng))
        du.close()
        reopened = DurableIndex.open(str(tmp_path / "s"))
        assert reopened.index.num_documents == 50
        assert reopened.last_report.records_replayed == 0
        reopened.close()

    def test_idempotent_replay_after_repeated_recovery(self, rng, tmp_path):
        docs = make_documents(30, rng)
        du = DurableIndex.create(str(tmp_path / "s"), fresh_index())
        for doc in docs:
            du.insert_document(doc)
        expected_epoch = du.index.epoch
        du.close()
        for _ in range(3):  # recovery must not double-apply the tail
            du = DurableIndex.open(str(tmp_path / "s"))
            assert du.index.epoch == expected_epoch
            assert du.index.num_documents == 30
            du.close()

    def test_create_refuses_existing_store(self, rng, tmp_path):
        DurableIndex.create(str(tmp_path / "s"), fresh_index()).close()
        with pytest.raises(ValueError, match="already holds"):
            DurableIndex.create(str(tmp_path / "s"), fresh_index())

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no durable index"):
            DurableIndex.open(str(tmp_path / "nothing"))

    def test_invalid_mutations_never_reach_the_log(self, rng, tmp_path):
        (doc,) = make_documents(1, rng)
        du = DurableIndex.create(str(tmp_path / "s"), fresh_index())
        with pytest.raises(ValueError, match="outside the data space"):
            du.insert_document(SpatialDocument(9, 5.0, 5.0, {"far": 1.0}))
        with pytest.raises(ValueError, match="document id"):
            du.update_document(doc, SpatialDocument(doc.doc_id + 1, 0.5, 0.5, {"a": 1.0}))
        assert du.last_lsn == 0  # nothing was appended
        du.close()


class TestPoisonWeight:
    """A finite weight that overflows an f32 is refused before the log
    sees it; logged, it would fail every replay and brick the store."""

    POISON = {"id": 99, "x": 0.5, "y": 0.5, "terms": {"big": 1e39}}

    def _store(self, rng, tmp_path):
        docs = make_documents(5, rng)
        store = str(tmp_path / "s")
        du = DurableIndex.create(store, fresh_index())
        for doc in docs:
            du.insert_document(doc)
        du.close()
        return store, docs

    def test_durable_insert_refuses_it_and_the_store_reopens(self, rng, tmp_path):
        store, docs = self._store(rng, tmp_path)
        du = DurableIndex.open(store)
        with pytest.raises(ValueError, match="keyword 'big'"):
            du.insert_document(SpatialDocument(99, 0.5, 0.5, {"big": 1e39}))
        assert du.last_lsn == len(docs)
        du.close()
        reopened = DurableIndex.open(store)
        assert reopened.index.documents() == docs
        reopened.close()

    def test_wire_insert_is_refused_and_the_store_restarts(self, rng, tmp_path):
        store, docs = self._store(rng, tmp_path)
        good = SpatialDocument(98, 0.25, 0.25, {"fine": 0.5})
        with serving(tmp_path / "a.json", "--durable-dir", store) as (address, _):
            with Client(address["host"], address["port"]) as client:
                with pytest.raises(ProtocolError, match="malformed document.*'big'"):
                    client.call("insert", {"doc": self.POISON})
                client.insert(good)
        # A restart replays the log; the refused record is not in it.
        with serving(tmp_path / "b.json", "--durable-dir", store) as (address, _):
            with Client(address["host"], address["port"]) as client:
                query = TopKQuery(0.25, 0.25, ("fine",), k=1)
                assert [r.doc_id for r in client.search(query)] == [98]
        reopened = DurableIndex.open(store)
        assert reopened.index.documents() == sorted(docs + [good], key=lambda d: d.doc_id)
        reopened.close()


class TestWalImageFuzz:
    """Hostile WAL images replayed through :meth:`DurableIndex.recover`:
    every failure is a :class:`WalCorruptionError` carrying the byte
    offset of a record in the image, and none hangs."""

    # Bodies seeded from this file's corruption cases (a truncated body,
    # the f32-overflowing poison weight, a document outside the data
    # space, an update that changes the id) plus JSON that is no record.
    BAD_BODIES = [
        wal_body(document_to_record(SpatialDocument(7, 0.5, 0.5, {"a": 0.5})))[:-3],
        wal_body(TestPoisonWeight.POISON),
        wal_body({"id": 9, "x": 5.0, "y": 5.0, "terms": {"far": 1.0}}),
        wal_body([
            {"id": 1, "x": 0.5, "y": 0.5, "terms": {"a": 0.5}},
            {"id": 2, "x": 0.5, "y": 0.5, "terms": {"a": 0.5}},
        ]),
        b'{"id":1,"x":0.5,"y":0.5,"terms":{"a":NaN}}',
        b'{"id":-1,"x":0.5,"y":0.5,"terms":{}}',
        b"\xff\xfe",
        b"[]",
        b"null",
        b"[" * 100_000,  # nesting deep enough to exhaust the recursion limit
    ]

    @staticmethod
    def image(rng):
        """A store whose log holds six mutations past its checkpoint:
        four inserts, a delete and an update."""
        fs = SimFileSystem()
        docs = make_documents(5, rng)
        du = DurableIndex.create("s", fresh_index(), fs=fs)
        du.insert_document(docs[4])
        du.checkpoint()
        for doc in docs[:4]:
            du.insert_document(doc)
        du.delete_document(docs[0])
        du.update_document(docs[1], SpatialDocument(docs[1].doc_id, 0.1, 0.9, {"moved": 0.5}))
        du.close()
        return fs, fs.read_bytes("s/wal.log")

    @staticmethod
    def replay(fs, image):
        with fs.open("s/wal.log", "wb") as fh:
            fh.write(image)
        try:
            DurableIndex.open("s", fs=fs).close()
        except WalCorruptionError as exc:
            assert exc.offset is not None and 0 <= exc.offset < len(image), exc

    # Every seed body under every record type, except deleting the
    # out-of-space document: a delete of what is absent is a no-op.
    SEEDS = [
        (rec_type, body)
        for body in range(len(BAD_BODIES))
        for rec_type in (WAL_INSERT, WAL_DELETE, WAL_UPDATE)
        if (rec_type, body) != (WAL_DELETE, 2)
    ]

    @pytest.mark.parametrize("rec_type, body", SEEDS)
    def test_every_seed_body_is_corruption_at_its_offset(self, rng, rec_type, body):
        fs, image = self.image(rng)
        records = scan_wal(image).records
        at = records[-1][0]  # the update, lsn 6
        bad = image[:at] + frame(rec_type, records[-1][1].lsn, self.BAD_BODIES[body])
        with fs.open("s/wal.log", "wb") as fh:
            fh.write(bad)
        with pytest.raises(WalCorruptionError) as info:
            DurableIndex.open("s", fs=fs)
        assert info.value.offset == at

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        splice=st.one_of(
            st.none(),
            st.tuples(
                st.integers(1, 6),  # which record to replace
                st.sampled_from([WAL_INSERT, WAL_DELETE, WAL_UPDATE]),
                st.integers(0, 9),  # lsn shift: 0 keeps it in sequence
                st.one_of(st.sampled_from(BAD_BODIES), st.binary(max_size=48)),
            ),
        ),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=3),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_a_damaged_image_recovers_or_names_its_offset(self, splice, flips, cut):
        fs, image = self.image(random.Random(0xED87))
        data = bytearray(image)
        if splice is not None:
            which, rec_type, shift, body = splice
            records = scan_wal(image).records
            start = records[which][0]
            end = records[which + 1][0] if which + 1 < len(records) else len(image)
            lsn = records[which][1].lsn + shift
            data[start:end] = frame(rec_type, lsn, body)
        for pos, mask in flips:
            data[pos % len(data)] ^= mask
        if cut is not None:
            del data[cut % (len(data) + 1):]
        self.replay(fs, bytes(data))


class TestSnapshotCorruption:
    """Flipped bytes in the snapshot must be *detected* — a clear
    exception naming the offset, never a silently wrong answer — and
    both readers of the file (the streaming loader and the mmap view)
    must say the same thing about the same damage."""

    READERS = (load_snapshot, open_snapshot)

    def build_snapshot(self, rng, tmp_path):
        index = fresh_index()
        for doc in make_documents(50, rng):
            index.insert_document(doc)
        path = tmp_path / "snap.i3ix"
        save_index(index, str(path))
        return path

    def test_header_byte_flip_detected(self, rng, tmp_path):
        path = self.build_snapshot(rng, tmp_path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0x08  # inside the fixed header, after magic/version
        path.write_bytes(bytes(data))
        for read in self.READERS:
            with pytest.raises(
                SnapshotCorruptionError, match="header checksum"
            ) as info:
                read(str(path))
            assert info.value.offset == 0

    def test_page_byte_flip_detected(self, rng, tmp_path):
        path = self.build_snapshot(rng, tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01  # somewhere inside the page images
        path.write_bytes(bytes(data))
        for read in self.READERS:
            with pytest.raises(
                SnapshotCorruptionError, match="checksum mismatch"
            ) as info:
                read(str(path))
            assert info.value.offset >= 0
            assert "offset" in str(info.value)

    def test_tail_section_flip_detected(self, rng, tmp_path):
        path = self.build_snapshot(rng, tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) - 20] ^= 0x10  # lookup/head sections or their CRC
        path.write_bytes(bytes(data))
        for read in self.READERS:
            with pytest.raises(SnapshotCorruptionError):
                read(str(path))

    @pytest.mark.parametrize("cut", [2, 4, 6])
    @pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
    def test_tail_truncation_detected(self, rng, tmp_path, read, cut):
        # Cutting into the trailing CRC (2, 4) or the lookup table under
        # it (6) is a short read with an offset, never a struct.error.
        path = self.build_snapshot(rng, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        with pytest.raises(SnapshotCorruptionError, match="truncated") as info:
            read(str(path))
        assert info.value.offset is not None

    def test_page_count_validated_against_file_size(self, rng, tmp_path):
        # A corrupt page count must fail with a structured error before
        # any allocation, not a struct.error deep in parsing.
        path = self.build_snapshot(rng, tmp_path)
        data = bytearray(path.read_bytes())
        meta = load_snapshot(str(path))[1]
        assert isinstance(meta, SnapshotMeta)
        # The page-count u32 sits right after the fixed header + its CRC.
        from repro.core.persistence import _HEADER

        count_at = _HEADER.size + 4
        struct.pack_into("<I", data, count_at, 1_000_000)
        path.write_bytes(bytes(data))
        for read in self.READERS:
            with pytest.raises(
                SnapshotCorruptionError, match="claims 1000000 pages"
            ):
                read(str(path))

    def test_truncated_page_region_detected(self, rng, tmp_path):
        path = self.build_snapshot(rng, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) * 2 // 3])
        for read in self.READERS:
            with pytest.raises(ValueError, match="truncated|claims"):
                read(str(path))


class TestServiceRecovery:
    CONFIG = ServiceConfig(max_pending=8, metrics_seed=0)

    def test_recover_swaps_index_and_invalidates_cache(self, rng, tmp_path):
        docs = make_documents(40, rng)
        du = DurableIndex.create(str(tmp_path / "s"), fresh_index())
        with QueryService(du, self.CONFIG) as service:
            for doc in docs:
                service.insert(doc)
            query = TopKQuery(0.5, 0.5, ("spicy",), k=5)
            before = results_as_pairs(service.search(query))
            report = service.recover()
            assert report.mutations_recovered == 40
            assert service._index is du.index  # served index swapped
            after = results_as_pairs(service.search(query))
            assert after == before
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["service.recoveries"] == 1
        du.close()

    def test_checkpoint_through_service(self, rng, tmp_path):
        du = DurableIndex.create(str(tmp_path / "s"), fresh_index())
        with QueryService(du, self.CONFIG) as service:
            for doc in make_documents(10, rng):
                service.insert(doc)
            service.checkpoint()
        du.close()
        reopened = DurableIndex.open(str(tmp_path / "s"))
        assert reopened.last_report.records_replayed == 0  # tail folded in
        assert reopened.index.num_documents == 10
        reopened.close()

    def test_recover_requires_durable_target(self, rng):
        with QueryService(fresh_index(), self.CONFIG) as service:
            with pytest.raises(ValueError, match="DurableIndex"):
                service.recover()
            with pytest.raises(ValueError, match="DurableIndex"):
                service.checkpoint()


class TestClusterRecovery:
    def build_cluster(self, rng, tmp_path, replicas=2):
        docs = make_documents(60, rng)
        partitioner = HashPartitioner(2, UNIT_SQUARE)
        config = ClusterConfig(
            replicas=replicas,
            shard_config=ServiceConfig(max_pending=8, metrics_seed=0),
            metrics_seed=0,
        )
        cluster = ClusterService.build(
            docs, partitioner, config,
            durable_root=str(tmp_path / "cluster"), eta=8,
        )
        return cluster, docs

    def test_killed_replica_rejoins_with_epoch_intact(self, rng, tmp_path):
        cluster, docs = self.build_cluster(rng, tmp_path)
        query = TopKQuery(0.5, 0.5, ("spicy", "pizza"), k=5, semantics=Semantics.OR)
        extra = make_documents(5, rng, start_id=10_000)
        for doc in extra:
            cluster.insert(doc)
        baseline = cluster.search(query)
        epoch_before = cluster.replica(0, 0).index.epoch
        cluster.replica(0, 0).kill()
        report = cluster.recover(0, 0)
        assert report.epoch == epoch_before  # exact pre-crash epoch
        assert cluster.replica(0, 0).alive
        answer = cluster.search(query)
        assert not answer.degraded
        assert results_as_pairs(answer.results) == results_as_pairs(baseline.results)
        assert cluster.metrics.as_dict()["counters"]["cluster.recoveries"] == 1
        cluster.close()

    def test_live_replica_recovers_in_place(self, rng, tmp_path):
        cluster, _ = self.build_cluster(rng, tmp_path, replicas=1)
        epoch = cluster.replica(1, 0).index.epoch
        report = cluster.recover(1, 0)
        assert report.epoch == epoch
        cluster.close()

    def test_recover_without_durable_store_rejected(self, rng, tmp_path):
        docs = make_documents(20, rng)
        cluster = ClusterService.build(
            docs, HashPartitioner(2, UNIT_SQUARE),
            ClusterConfig(shard_config=ServiceConfig(max_pending=8)),
            eta=8,
        )
        with pytest.raises(ValueError, match="durable"):
            cluster.recover(0)
        cluster.close()
