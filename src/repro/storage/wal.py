"""A record-level write-ahead log with CRC framing and group commit.

The I³ index is update-friendly in memory (per-keyword-cell inserts and
deletes with localised splits), but a whole-image snapshot is the only
thing that used to reach disk — a crash between snapshots lost every
mutation since the last one.  This module provides the missing half of
the durable write path: every mutation appends one framed record here
*before* touching any page, so recovery can replay the tail of
acknowledged work on top of the last good checkpoint.

On-disk layout — a flat sequence of frames::

    frame   := u32 length | u32 crc32(payload) | payload
    payload := u8 type | u64 lsn | body

``length`` counts payload bytes only.  ``body`` is opaque here; both
durable targets (:class:`~repro.core.recovery.DurableIndex` and a
temporal slice) write the one document record as compact JSON
(:func:`repro.core.recovery.wal_body`).  ``lsn`` is the log sequence
number: mutation records (insert/delete/update) carry densely
increasing LSNs; checkpoint records carry the LSN of the snapshot they
describe and do not advance the sequence.

Failure semantics, and how readers tell them apart:

* **torn tail** — the file ends inside a frame (crash mid-append).
  This is the *expected* crash artefact under the truncation crash
  model (see :mod:`repro.storage.fs`): the scan stops at the last
  complete record and the incomplete bytes are discarded on the next
  append.  Only the physical end of file is forgiven this way.
* **corruption** — a complete frame whose CRC does not match, a length
  outside ``[9, MAX_RECORD_BYTES]``, an unknown record type, or an LSN
  discontinuity raises :class:`~repro.storage.errors.WalCorruptionError`
  naming the byte offset.  Damaged acknowledged history is an error,
  never a silent prefix.

Group commit: ``sync_every`` batches N appends per fsync and
``sync_window`` bounds how long the first unsynced record may wait
(checked on the next append — there is no background flusher; callers
needing a hard bound call :meth:`WriteAheadLog.sync`).  A record is
*acknowledged* — guaranteed to survive a crash — only once its LSN is
``<= synced_lsn``.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, List, Optional, Tuple

from repro.storage.errors import WalCorruptionError
from repro.storage.fs import OS_FILESYSTEM, FileSystem

__all__ = [
    "WAL_INSERT",
    "WAL_DELETE",
    "WAL_UPDATE",
    "WAL_CHECKPOINT",
    "MAX_RECORD_BYTES",
    "WalRecord",
    "WalScan",
    "scan_wal",
    "WriteAheadLog",
]

WAL_INSERT = 1
WAL_DELETE = 2
WAL_UPDATE = 3
WAL_CHECKPOINT = 4

_RECORD_TYPES = frozenset((WAL_INSERT, WAL_DELETE, WAL_UPDATE, WAL_CHECKPOINT))

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_PREFIX = struct.Struct("<BQ")  # record type, lsn
_CHECKPOINT_BODY = struct.Struct("<QQ")  # snapshot lsn, index epoch

MAX_RECORD_BYTES = 1 << 20
"""Upper bound on one payload; a length beyond it is corruption, which
also catches bit flips in the length field before they misframe the
rest of the log."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    type: int
    lsn: int
    body: bytes


@dataclass(frozen=True)
class WalScan:
    """Result of scanning a log image.

    Attributes:
        records: ``(byte offset, record)`` pairs in log order.
        valid_end: Offset just past the last complete record.
        torn_bytes: Incomplete trailing bytes discarded by the scan.
    """

    records: List[Tuple[int, WalRecord]]
    valid_end: int
    torn_bytes: int

    @property
    def last_mutation_lsn(self) -> int:
        """LSN of the last mutation record, or 0 when there is none."""
        for _, record in reversed(self.records):
            if record.type != WAL_CHECKPOINT:
                return record.lsn
            snapshot_lsn, _ = _CHECKPOINT_BODY.unpack(record.body)
            return snapshot_lsn
        return 0


def scan_wal(data: bytes) -> WalScan:
    """Parse a log image, validating every complete frame.

    Tolerates exactly one torn tail (truncation at EOF); everything
    before it must verify or :class:`WalCorruptionError` is raised with
    the offending offset.
    """
    records: List[Tuple[int, WalRecord]] = []
    offset = 0
    expected_lsn: Optional[int] = None
    while offset < len(data):
        header = data[offset : offset + _FRAME.size]
        if len(header) < _FRAME.size:
            break  # torn tail: crash truncated the frame header
        length, crc = _FRAME.unpack(header)
        if length < _PREFIX.size or length > MAX_RECORD_BYTES:
            raise WalCorruptionError(
                f"WAL record length {length} outside [{_PREFIX.size}, "
                f"{MAX_RECORD_BYTES}]",
                offset,
            )
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(payload) < length:
            break  # torn tail: crash truncated the payload
        if zlib.crc32(payload) != crc:
            raise WalCorruptionError("WAL record checksum mismatch", offset)
        rec_type, lsn = _PREFIX.unpack_from(payload)
        if rec_type not in _RECORD_TYPES:
            raise WalCorruptionError(f"unknown WAL record type {rec_type}", offset)
        body = payload[_PREFIX.size :]
        if rec_type == WAL_CHECKPOINT:
            if length != _PREFIX.size + _CHECKPOINT_BODY.size:
                raise WalCorruptionError("malformed WAL checkpoint record", offset)
        else:
            if expected_lsn is not None and lsn != expected_lsn:
                raise WalCorruptionError(
                    f"WAL LSN discontinuity: expected {expected_lsn}, found {lsn}",
                    offset,
                )
            expected_lsn = lsn + 1
        records.append((offset, WalRecord(rec_type, lsn, body)))
        offset += _FRAME.size + length
    return WalScan(
        records=records, valid_end=offset, torn_bytes=len(data) - offset
    )


class WriteAheadLog:
    """Append-only framed log over one file, with batched fsync.

    Construct with :meth:`create` (fresh log, usually right after a
    checkpoint), :meth:`replay` (recovery: apply the records past a
    base, then append) or :meth:`open` (existing log; returns the
    surviving records and silently drops a torn tail).

    Attributes:
        path: Log file path.
        last_lsn: LSN of the last mutation appended (or covered by the
            creating checkpoint).
        synced_lsn: Highest LSN guaranteed durable; records above it
            are written but not yet acknowledged.
    """

    def __init__(
        self,
        path: str,
        fh: BinaryIO,
        *,
        last_lsn: int,
        fs: FileSystem,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
    ) -> None:
        if sync_every is not None and sync_every < 1:
            raise ValueError(f"sync_every must be >= 1 or None, got {sync_every}")
        if sync_window < 0:
            raise ValueError(f"sync_window must be >= 0, got {sync_window}")
        self.path = path
        self._fh = fh
        self._fs = fs
        self.sync_every = sync_every
        self.sync_window = sync_window
        self.last_lsn = last_lsn
        self.synced_lsn = last_lsn
        self._unsynced = 0
        self._first_unsynced_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        *,
        snapshot_lsn: int = 0,
        snapshot_epoch: int = 0,
        fs: Optional[FileSystem] = None,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
    ) -> "WriteAheadLog":
        """Start a fresh log whose first record is a checkpoint marker.

        The marker records which snapshot (by LSN and epoch) makes the
        truncated history redundant; replay validates against it.
        """
        fs = fs if fs is not None else OS_FILESYSTEM
        fh = fs.open(path, "wb")
        wal = cls(
            path,
            fh,
            last_lsn=snapshot_lsn,
            fs=fs,
            sync_every=sync_every,
            sync_window=sync_window,
        )
        wal._append_frame(
            WAL_CHECKPOINT,
            snapshot_lsn,
            _CHECKPOINT_BODY.pack(snapshot_lsn, snapshot_epoch),
        )
        wal.sync()
        return wal

    @classmethod
    def open(
        cls,
        path: str,
        *,
        fs: Optional[FileSystem] = None,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
    ) -> Tuple["WriteAheadLog", WalScan]:
        """Open an existing log for appending; returns it with its scan.

        A torn tail is truncated away before the append handle is
        positioned, so post-recovery appends never interleave with
        garbage.  Corruption raises — see :func:`scan_wal`.
        """
        fs = fs if fs is not None else OS_FILESYSTEM
        with fs.open(path, "rb") as read_fh:
            data = read_fh.read()
        scan = scan_wal(data)
        fh = fs.open(path, "r+b")
        if scan.torn_bytes:
            fh.seek(scan.valid_end)
            fh.truncate(scan.valid_end)
        fh.seek(scan.valid_end)
        wal = cls(
            path,
            fh,
            last_lsn=scan.last_mutation_lsn,
            fs=fs,
            sync_every=sync_every,
            sync_window=sync_window,
        )
        return wal, scan

    @classmethod
    def replay(
        cls,
        path: str,
        after_lsn: int,
        apply: Callable[[WalRecord], None],
        *,
        snapshot_epoch: int = 0,
        fs: Optional[FileSystem] = None,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
    ) -> Tuple["WriteAheadLog", int, int]:
        """Recovery on top of a base that covers ``after_lsn``: open the
        log, ``apply`` each mutation record past the base in order, and
        return ``(log, records applied, torn bytes dropped)``.

        The first record past the base must be ``after_lsn + 1``.  A
        record ``apply`` refuses with :class:`ValueError` (or whose
        nesting exhausts the recursion limit) is a
        :class:`WalCorruptionError` at its offset.  A missing log (a
        crash before the base's first log existed) starts fresh.
        """
        fs = fs if fs is not None else OS_FILESYSTEM
        policy = {"fs": fs, "sync_every": sync_every, "sync_window": sync_window}
        if not fs.exists(path):
            wal = cls.create(
                path, snapshot_lsn=after_lsn, snapshot_epoch=snapshot_epoch, **policy
            )
            return wal, 0, 0
        wal, scan = cls.open(path, **policy)
        expected_lsn = after_lsn + 1
        try:
            for offset, record in scan.records:
                if record.type == WAL_CHECKPOINT or record.lsn <= after_lsn:
                    continue
                if record.lsn != expected_lsn:
                    raise WalCorruptionError(
                        f"WAL resumes at LSN {record.lsn} but its base covers "
                        f"through {after_lsn}: acknowledged records are missing",
                        offset,
                    )
                try:
                    apply(record)
                except (ValueError, RecursionError) as exc:
                    raise WalCorruptionError(
                        f"WAL record body does not replay: {exc}", offset
                    ) from None
                expected_lsn += 1
        except BaseException:
            wal.close()
            raise
        # Nothing past the base: a crash inside create() can empty a log.
        if wal.last_lsn < after_lsn:
            wal.last_lsn = wal.synced_lsn = after_lsn
        return wal, expected_lsn - after_lsn - 1, scan.torn_bytes

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, rec_type: int, body: bytes) -> int:
        """Append one mutation record; returns its LSN.

        The record is durable only once :attr:`synced_lsn` reaches the
        returned LSN (immediately with the default ``sync_every=1``).
        """
        if rec_type not in (WAL_INSERT, WAL_DELETE, WAL_UPDATE):
            raise ValueError(f"append expects a mutation record type, got {rec_type}")
        lsn = self.last_lsn + 1
        self._append_frame(rec_type, lsn, body)
        self.last_lsn = lsn
        self._maybe_sync()
        return lsn

    def _append_frame(self, rec_type: int, lsn: int, body: bytes) -> None:
        payload = _PREFIX.pack(rec_type, lsn) + body
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(
                f"WAL record of {len(payload)} bytes exceeds "
                f"MAX_RECORD_BYTES ({MAX_RECORD_BYTES})"
            )
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._fh.write(frame)
        self._unsynced += 1
        if self._first_unsynced_at is None:
            self._first_unsynced_at = time.monotonic()

    def _maybe_sync(self) -> None:
        if self.sync_every is not None and self._unsynced >= self.sync_every:
            self.sync()
            return
        if (
            self.sync_window > 0
            and self._first_unsynced_at is not None
            and time.monotonic() - self._first_unsynced_at >= self.sync_window
        ):
            self.sync()

    def sync(self) -> None:
        """Force group commit: fsync, acknowledging every appended LSN."""
        if self._unsynced == 0:
            return
        self._fs.fsync(self._fh)
        self.synced_lsn = self.last_lsn
        self._unsynced = 0
        self._first_unsynced_at = None

    @property
    def unsynced_records(self) -> int:
        """Appended records not yet covered by an fsync."""
        return self._unsynced

    def close(self) -> None:
        """Sync outstanding records and close the file handle."""
        self.sync()
        self._fh.close()
