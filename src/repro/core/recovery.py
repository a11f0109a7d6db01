"""The durable write path: WAL-fronted mutations, checkpoint, recovery.

:class:`DurableIndex` wraps an :class:`~repro.core.index.I3Index` with
the protocol that makes its update-friendliness survive a crash:

1. **log first** — every document mutation is encoded as one
   write-ahead-log record (:mod:`repro.storage.wal`) whose body is the
   document record as compact JSON (:func:`wal_body`), and appended
   *before* any in-memory page is touched.  With the default
   ``sync_every=1`` the append fsyncs immediately, so a mutation whose
   call returned is acknowledged-durable; larger batches or a
   ``sync_window`` trade that for group-commit throughput.
2. **checkpoint** — :meth:`DurableIndex.checkpoint` serialises the
   index to a checksummed I3IX v2 snapshot, written to a temp file,
   fsynced, then atomically renamed over the previous snapshot; only
   then is the log reset to a fresh file opened by a checkpoint marker.
   A crash at *any* point of this sequence leaves either (old snapshot,
   full log) or (new snapshot, old-or-empty log) — both recoverable.
3. **recover** — :meth:`DurableIndex.recover` loads the last good
   snapshot (page and header checksums verified), scans the log
   (CRC-verified, torn tail dropped), and replays exactly the records
   with ``lsn > snapshot.last_lsn`` — idempotent under any crash
   interleaving, and the mutation epoch lands exactly where the
   acknowledged history left it.

The directory layout is two files: ``snapshot.i3ix`` and ``wal.log``.
All file I/O goes through a :class:`~repro.storage.fs.FileSystem`, the
seam the crash-matrix suite (``tests/crashkit.py``) uses to kill the
write path at every possible torn-write offset and prove recovery.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.index import I3Index
from repro.core.persistence import read_index, write_index
from repro.model.document import (
    SpatialDocument,
    document_from_record,
    document_to_record,
)
from repro.storage.fs import OS_FILESYSTEM, FileSystem, atomic_write
from repro.storage.wal import (
    WAL_DELETE,
    WAL_INSERT,
    WAL_UPDATE,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "DurableIndex",
    "RecoveryReport",
    "wal_body",
    "wal_documents",
]

def wal_body(record: Any) -> bytes:
    """A WAL record body: the document record of an insert or a delete
    (:func:`~repro.model.document.document_to_record`), or the list
    ``[old, new]`` of an update's two, as compact JSON."""
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def wal_documents(record: WalRecord) -> List[Tuple[SpatialDocument, Optional[float]]]:
    """The ``(document, ts or None)`` pairs a WAL record carries: one,
    or an update's ``old`` and ``new``; :class:`ValueError` when its
    body is not that."""
    value = json.loads(record.body)
    if record.type != WAL_UPDATE:
        return [document_from_record(value)]
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError("an update body must be the list [old, new]")
    return [document_from_record(half) for half in value]


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery pass found and rebuilt.

    Attributes:
        snapshot_lsn: Last WAL LSN the loaded snapshot already covered.
        snapshot_epoch: Index epoch stored in the snapshot.
        records_replayed: WAL mutation records applied on top.
        torn_bytes_discarded: Incomplete trailing log bytes dropped
            (the expected artefact of a crash mid-append).
        epoch: Mutation epoch after replay — the exact pre-crash epoch
            of the acknowledged history.
        num_documents: Documents in the recovered index.
        num_tuples: Tuples in the recovered index.
    """

    snapshot_lsn: int
    snapshot_epoch: int
    records_replayed: int
    torn_bytes_discarded: int
    epoch: int
    num_documents: int
    num_tuples: int

    @property
    def mutations_recovered(self) -> int:
        """Total mutations the recovered state reflects (dense LSNs:
        snapshot coverage plus replayed tail)."""
        return self.snapshot_lsn + self.records_replayed

    def as_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "snapshot_epoch": self.snapshot_epoch,
            "records_replayed": self.records_replayed,
            "torn_bytes_discarded": self.torn_bytes_discarded,
            "mutations_recovered": self.mutations_recovered,
            "epoch": self.epoch,
            "num_documents": self.num_documents,
            "num_tuples": self.num_tuples,
        }


class DurableIndex:
    """An I³ index with a crash-safe write path.

    Construct with :meth:`create` (new store around a fresh or prebuilt
    index) or :meth:`open` (existing store; runs recovery).  Mutations
    mirror the index's document API; queries delegate unchanged.

    Attributes:
        directory: The store's directory (snapshot + WAL).
        index: The live in-memory :class:`~repro.core.index.I3Index`.
            Replaced wholesale by :meth:`recover`; holders that cache it
            (e.g. :class:`~repro.service.QueryService`) must re-read it
            after recovery.
        last_report: The most recent :class:`RecoveryReport`, or
            ``None`` if this instance has never recovered.
    """

    SNAPSHOT_NAME = "snapshot.i3ix"
    WAL_NAME = "wal.log"

    def __init__(
        self,
        directory: str,
        index: Optional[I3Index],
        wal: Optional[WriteAheadLog],
        *,
        fs: FileSystem,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
    ) -> None:
        self.directory = directory
        self.index = index
        self._wal = wal
        self._fs = fs
        self._sync_every = sync_every
        self._sync_window = sync_window
        self.last_report: Optional[RecoveryReport] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        index: I3Index,
        *,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
        fs: Optional[FileSystem] = None,
    ) -> "DurableIndex":
        """Start a durable store around ``index`` (empty or prebuilt).

        Writes the initial checkpoint immediately, so the store is
        recoverable from its first moment.  Refuses a directory that
        already holds a store — use :meth:`open` for those.
        """
        fs = fs if fs is not None else OS_FILESYSTEM
        fs.makedirs(directory)
        snapshot = os.path.join(directory, cls.SNAPSHOT_NAME)
        if fs.exists(snapshot):
            raise ValueError(
                f"{directory} already holds a durable index; use open()"
            )
        durable = cls(
            directory,
            index,
            None,
            fs=fs,
            sync_every=sync_every,
            sync_window=sync_window,
        )
        durable.checkpoint()
        return durable

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        sync_every: Optional[int] = 1,
        sync_window: float = 0.0,
        fs: Optional[FileSystem] = None,
    ) -> "DurableIndex":
        """Open an existing store, running full recovery."""
        fs = fs if fs is not None else OS_FILESYSTEM
        snapshot = os.path.join(directory, cls.SNAPSHOT_NAME)
        if not fs.exists(snapshot):
            raise FileNotFoundError(
                f"{directory} holds no durable index "
                f"(missing {cls.SNAPSHOT_NAME})"
            )
        durable = cls(
            directory,
            None,
            None,
            fs=fs,
            sync_every=sync_every,
            sync_window=sync_window,
        )
        durable.recover()
        return durable

    @property
    def _snapshot_path(self) -> str:
        return os.path.join(self.directory, self.SNAPSHOT_NAME)

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.directory, self.WAL_NAME)

    # ------------------------------------------------------------------
    # Mutations (log first, then apply)
    # ------------------------------------------------------------------
    def insert_document(self, doc: SpatialDocument) -> None:
        """Insert a document; durable once the call returns under the
        default sync policy."""
        # Validate before logging: a record that cannot replay cleanly
        # must never enter the log.
        if not self.index.space.contains_point(doc.x, doc.y):
            raise ValueError(f"document {doc.doc_id} lies outside the data space")
        self._wal.append(WAL_INSERT, wal_body(document_to_record(doc)))
        self.index.insert_document(doc)

    def delete_document(self, doc: SpatialDocument) -> bool:
        """Delete a document; logged even when absent (replay of a
        not-found delete is an idempotent no-op)."""
        self._wal.append(WAL_DELETE, wal_body(document_to_record(doc)))
        return self.index.delete_document(doc)

    def update_document(self, old: SpatialDocument, new: SpatialDocument) -> None:
        """Update = delete + insert as one logged record."""
        if old.doc_id != new.doc_id:
            raise ValueError("update must keep the document id")
        if not self.index.space.contains_point(new.x, new.y):
            raise ValueError(f"document {new.doc_id} lies outside the data space")
        self._wal.append(
            WAL_UPDATE,
            wal_body([document_to_record(old), document_to_record(new)]),
        )
        self.index.update_document(old, new)

    def bulk_load(self, documents: Iterable[SpatialDocument]) -> None:
        """Bulk load into the (empty) index and checkpoint immediately —
        bulk construction bypasses the log, so the snapshot is its
        durability."""
        self.index.bulk_load(documents)
        self.checkpoint()

    def sync(self) -> None:
        """Force group commit of any batched, unsynced log records."""
        self._wal.sync()

    @property
    def last_lsn(self) -> int:
        """LSN of the last mutation appended to the log."""
        return self._wal.last_lsn

    @property
    def synced_lsn(self) -> int:
        """Highest acknowledged-durable LSN."""
        return self._wal.synced_lsn

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Write a snapshot atomically, then reset the log.

        Crash-safe at every step: the snapshot lands via temp file +
        fsync + atomic rename, and the log is only truncated *after*
        the rename — recovery from any interleaving replays onto a
        snapshot that covers at most the log's prefix.
        """
        last_lsn = self._wal.last_lsn if self._wal is not None else 0
        buffer = io.BytesIO()
        write_index(self.index, buffer, last_lsn=last_lsn)
        atomic_write(self._fs, self._snapshot_path, buffer.getvalue())
        if self._wal is not None:
            self._wal.close()
        self._wal = WriteAheadLog.create(
            self._wal_path,
            snapshot_lsn=last_lsn,
            snapshot_epoch=self.index.epoch,
            fs=self._fs,
            sync_every=self._sync_every,
            sync_window=self._sync_window,
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Rebuild the in-memory index from disk.

        Loads the last good checkpoint (checksums verified), replays
        the verified log tail idempotently, truncates any torn tail,
        and replaces :attr:`index`.  Returns what happened; also stored
        as :attr:`last_report`.
        """
        fh = self._fs.open(self._snapshot_path, "rb")
        try:
            index, meta = read_index(fh)
        finally:
            fh.close()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        wal, replayed, torn = WriteAheadLog.replay(
            self._wal_path,
            meta.last_lsn,
            lambda record: self._apply(index, record),
            snapshot_epoch=meta.epoch,
            fs=self._fs,
            sync_every=self._sync_every,
            sync_window=self._sync_window,
        )
        self.index = index
        self._wal = wal
        report = RecoveryReport(
            snapshot_lsn=meta.last_lsn,
            snapshot_epoch=meta.epoch,
            records_replayed=replayed,
            torn_bytes_discarded=torn,
            epoch=index.epoch,
            num_documents=index.num_documents,
            num_tuples=index.num_tuples,
        )
        self.last_report = report
        return report

    @staticmethod
    def _apply(index: I3Index, record: WalRecord) -> None:
        docs = [doc for doc, _ts in wal_documents(record)]
        if record.type == WAL_INSERT:
            index.insert_document(docs[0])
        elif record.type == WAL_DELETE:
            index.delete_document(docs[0])
        else:
            index.update_document(*docs)

    # ------------------------------------------------------------------
    # Query delegation
    # ------------------------------------------------------------------
    def query(self, *args, **kwargs):
        """Delegates to :meth:`repro.core.index.I3Index.query`."""
        return self.index.query(*args, **kwargs)

    def iter_query(self, *args, **kwargs):
        """Delegates to :meth:`repro.core.index.I3Index.iter_query`."""
        return self.index.iter_query(*args, **kwargs)

    def range_query(self, *args, **kwargs):
        """Delegates to :meth:`repro.core.index.I3Index.range_query`."""
        return self.index.range_query(*args, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Sync and close the log (the snapshot needs no closing)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
