"""Unit tests for the write-ahead log: framing, group commit, torn
tails, and corruption detection with byte offsets."""

import struct
import zlib

import pytest

from repro.storage.errors import WalCorruptionError
from repro.storage.wal import (
    MAX_RECORD_BYTES,
    WAL_CHECKPOINT,
    WAL_DELETE,
    WAL_INSERT,
    WAL_UPDATE,
    WriteAheadLog,
    scan_wal,
)

_FRAME = struct.Struct("<II")
_PREFIX = struct.Struct("<BQ")


def frame(rec_type: int, lsn: int, body: bytes) -> bytes:
    payload = _PREFIX.pack(rec_type, lsn) + body
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class TestRoundTrip:
    def test_append_and_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog.create(path)
        assert wal.append(WAL_INSERT, b"alpha") == 1
        assert wal.append(WAL_DELETE, b"beta") == 2
        assert wal.append(WAL_UPDATE, b"gamma") == 3
        wal.close()
        reopened, scan = WriteAheadLog.open(path)
        reopened.close()
        kinds = [(r.type, r.lsn, r.body) for _, r in scan.records]
        assert kinds == [
            (WAL_CHECKPOINT, 0, struct.pack("<QQ", 0, 0)),
            (WAL_INSERT, 1, b"alpha"),
            (WAL_DELETE, 2, b"beta"),
            (WAL_UPDATE, 3, b"gamma"),
        ]
        assert scan.torn_bytes == 0
        assert scan.last_mutation_lsn == 3

    def test_append_continues_after_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog.create(path, snapshot_lsn=5)
        assert wal.append(WAL_INSERT, b"a") == 6
        wal.close()
        wal, scan = WriteAheadLog.open(path)
        assert scan.last_mutation_lsn == 6
        assert wal.append(WAL_INSERT, b"b") == 7
        wal.close()
        _, scan = WriteAheadLog.open(path)
        assert [r.lsn for _, r in scan.records] == [5, 6, 7]

    def test_checkpoint_only_log_resumes_at_snapshot_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        WriteAheadLog.create(path, snapshot_lsn=41, snapshot_epoch=7).close()
        wal, scan = WriteAheadLog.open(path)
        assert scan.last_mutation_lsn == 41
        assert wal.append(WAL_INSERT, b"next") == 42
        wal.close()

    def test_append_rejects_checkpoint_type(self, tmp_path):
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"))
        with pytest.raises(ValueError, match="mutation record type"):
            wal.append(WAL_CHECKPOINT, b"")
        wal.close()

    def test_oversized_record_rejected(self, tmp_path):
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"))
        with pytest.raises(ValueError, match="MAX_RECORD_BYTES"):
            wal.append(WAL_INSERT, bytes(MAX_RECORD_BYTES))
        wal.close()


class TestGroupCommit:
    def test_sync_every_batches_acknowledgement(self, tmp_path):
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"), sync_every=3)
        wal.append(WAL_INSERT, b"1")
        wal.append(WAL_INSERT, b"2")
        assert wal.synced_lsn == 0  # written, not yet acknowledged
        assert wal.unsynced_records == 2
        wal.append(WAL_INSERT, b"3")  # third append trips the batch
        assert wal.synced_lsn == 3
        assert wal.unsynced_records == 0
        wal.close()

    def test_explicit_sync_acknowledges(self, tmp_path):
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"), sync_every=None)
        wal.append(WAL_INSERT, b"1")
        assert wal.synced_lsn == 0
        wal.sync()
        assert wal.synced_lsn == 1
        wal.close()

    def test_close_syncs_outstanding(self, tmp_path):
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"), sync_every=None)
        wal.append(WAL_INSERT, b"1")
        wal.close()
        assert wal.synced_lsn == 1

    def test_sync_window_flushes_on_next_append(self, tmp_path):
        wal = WriteAheadLog.create(
            str(tmp_path / "wal.log"), sync_every=None, sync_window=0.0001
        )
        wal.append(WAL_INSERT, b"1")
        import time

        time.sleep(0.001)
        wal.append(WAL_INSERT, b"2")  # window expired: both acknowledged
        assert wal.synced_lsn == 2
        wal.close()

    def test_sync_at_exact_boundary_repeats(self, tmp_path):
        # The batch trips at exactly sync_every, every time — no drift
        # from the counter reset.
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"), sync_every=3)
        for expected_sync in (3, 6):
            for lsn in range(expected_sync - 2, expected_sync):
                wal.append(WAL_INSERT, b"x")
                assert wal.unsynced_records == lsn - (expected_sync - 3)
            assert wal.synced_lsn == expected_sync - 3
            wal.append(WAL_INSERT, b"x")
            assert wal.unsynced_records == 0
            assert wal.synced_lsn == expected_sync == wal.last_lsn
        wal.close()

    def test_explicit_sync_with_zero_pending_is_noop(self, tmp_path):
        wal = WriteAheadLog.create(str(tmp_path / "wal.log"), sync_every=None)
        wal.append(WAL_INSERT, b"1")
        wal.sync()
        before = wal.synced_lsn
        wal.sync()  # nothing pending: must not move acknowledgements
        wal.sync()
        assert wal.synced_lsn == before == 1
        assert wal.unsynced_records == 0
        wal.close()

    def test_window_expiry_with_zero_pending_starts_fresh(self, tmp_path):
        import time

        wal = WriteAheadLog.create(
            str(tmp_path / "wal.log"), sync_every=None, sync_window=0.005
        )
        wal.append(WAL_INSERT, b"1")
        time.sleep(0.01)
        wal.append(WAL_INSERT, b"2")  # window expired: both acknowledged
        assert wal.synced_lsn == 2
        assert wal.unsynced_records == 0
        # The window clock must restart at the NEXT first unsynced
        # append, not keep running from the flushed batch: after idling
        # past the window with zero pending, a fresh append stays
        # unsynced (its own window has only just started).
        time.sleep(0.01)
        wal.append(WAL_INSERT, b"3")
        assert wal.unsynced_records == 1
        assert wal.synced_lsn == 2
        wal.close()

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync_every"):
            WriteAheadLog.create(str(tmp_path / "a.log"), sync_every=0)
        with pytest.raises(ValueError, match="sync_window"):
            WriteAheadLog.create(str(tmp_path / "b.log"), sync_window=-1.0)


class TestTornTail:
    """A file ending inside a frame is a crash artefact, not corruption:
    the scan stops cleanly and reopening truncates the garbage."""

    def test_scan_stops_at_torn_frame(self, tmp_path):
        good = frame(WAL_INSERT, 1, b"kept")
        torn = frame(WAL_INSERT, 2, b"lost-in-crash")
        for cut in range(1, len(torn)):
            scan = scan_wal(good + torn[:cut])
            assert [r.lsn for _, r in scan.records] == [1]
            assert scan.valid_end == len(good)
            assert scan.torn_bytes == cut

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(str(path))
        wal.append(WAL_INSERT, b"kept")
        wal.close()
        intact = path.read_bytes()
        path.write_bytes(intact + frame(WAL_INSERT, 2, b"lost")[:7])
        wal, scan = WriteAheadLog.open(str(path))
        assert scan.torn_bytes == 7
        assert path.read_bytes() == intact  # garbage gone before appends
        assert wal.append(WAL_INSERT, b"after") == 2
        wal.close()
        _, scan = WriteAheadLog.open(str(path))
        assert [r.body for _, r in scan.records[1:]] == [b"kept", b"after"]


class TestCorruption:
    """Damage to a *complete* frame must raise, never yield a silent
    prefix — and the exception names the byte offset."""

    def test_flipped_body_byte_detected(self):
        a = frame(WAL_INSERT, 1, b"aaaa")
        b = frame(WAL_INSERT, 2, b"bbbb")
        data = bytearray(a + b)
        data[len(a) + _FRAME.size + _PREFIX.size] ^= 0x40  # inside b's body
        with pytest.raises(WalCorruptionError, match="checksum mismatch") as info:
            scan_wal(bytes(data))
        assert info.value.offset == len(a)
        assert f"offset {len(a)}" in str(info.value)

    def test_flipped_crc_detected(self):
        data = bytearray(frame(WAL_INSERT, 1, b"x"))
        data[4] ^= 0x01  # crc field
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            scan_wal(bytes(data))

    def test_insane_length_detected(self):
        data = bytearray(frame(WAL_INSERT, 1, b"x"))
        struct.pack_into("<I", data, 0, MAX_RECORD_BYTES + 1)
        with pytest.raises(WalCorruptionError, match="length") as info:
            scan_wal(bytes(data))
        assert info.value.offset == 0

    def test_unknown_type_detected(self):
        data = frame(200, 1, b"x")
        with pytest.raises(WalCorruptionError, match="unknown WAL record type"):
            scan_wal(data)

    def test_lsn_discontinuity_detected(self):
        a = frame(WAL_INSERT, 1, b"a")
        gap = frame(WAL_INSERT, 5, b"skipped ahead")
        with pytest.raises(WalCorruptionError, match="discontinuity") as info:
            scan_wal(a + gap)
        assert info.value.offset == len(a)

    def test_malformed_checkpoint_detected(self):
        data = frame(WAL_CHECKPOINT, 0, b"short")
        with pytest.raises(WalCorruptionError, match="checkpoint"):
            scan_wal(data)

    def test_corruption_is_a_value_error(self):
        # Callers catching the documented ValueError contract must see
        # WAL corruption too.
        assert issubclass(WalCorruptionError, ValueError)
