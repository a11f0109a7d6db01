"""Recovery-path tests: DurableIndex round trips and replay, snapshot
corruption detection, and recover() at the service and cluster layers."""

import struct

import pytest

from repro.cluster import ClusterConfig, ClusterService, HashPartitioner
from repro.core.index import I3Index
from repro.core.persistence import (
    SnapshotMeta,
    load_snapshot,
    save_index,
)
from repro.core.recovery import DurableIndex, decode_document, encode_document
from repro.exec.snapshot import open_snapshot
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.net.client import Client
from repro.net.errors import ProtocolError
from repro.service import QueryService, ServiceConfig
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.errors import SnapshotCorruptionError, WalCorruptionError

from tests.helpers import make_documents, results_as_pairs, serving


def fresh_index(**kwargs):
    kwargs.setdefault("eta", 8)
    kwargs.setdefault("page_size", 256)
    return I3Index(UNIT_SQUARE, **kwargs)


class TestDocumentCodec:
    def test_round_trip(self, rng):
        for doc in make_documents(25, rng):
            decoded, end = decode_document(encode_document(doc))
            assert (decoded.doc_id, decoded.x, decoded.y) == (
                doc.doc_id,
                doc.x,
                doc.y,
            )
            assert dict(decoded.terms) == dict(doc.terms)
            assert end == len(encode_document(doc))

    def test_two_documents_concatenated(self, rng):
        a, b = make_documents(2, rng)
        body = encode_document(a) + encode_document(b)
        first, offset = decode_document(body)
        second, end = decode_document(body, offset)
        assert first.doc_id == a.doc_id
        assert second.doc_id == b.doc_id
        assert end == len(body)

    def test_truncated_body_raises(self, rng):
        (doc,) = make_documents(1, rng)
        body = encode_document(doc)
        with pytest.raises(WalCorruptionError):
            decode_document(body[: len(body) - 3])


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
