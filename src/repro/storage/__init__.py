"""Simulated disk substrate: pages, slots, I/O accounting, plus the
durable write path's WAL and filesystem seam."""

from repro.storage.errors import (
    CorruptionError,
    SnapshotCorruptionError,
    WalCorruptionError,
)
from repro.storage.fs import OS_FILESYSTEM, FileSystem
from repro.storage.iostats import IOSnapshot, IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE, PageFile, page_checksum
from repro.storage.records import TUPLE_SIZE, StoredTuple, TupleCodec
from repro.storage.slotted import SlottedFile
from repro.storage.wal import (
    WAL_CHECKPOINT,
    WAL_DELETE,
    WAL_INSERT,
    WAL_UPDATE,
    WalRecord,
    WalScan,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "CorruptionError",
    "SnapshotCorruptionError",
    "WalCorruptionError",
    "FileSystem",
    "OS_FILESYSTEM",
    "IOSnapshot",
    "IOStats",
    "DEFAULT_PAGE_SIZE",
    "PageFile",
    "page_checksum",
    "TUPLE_SIZE",
    "StoredTuple",
    "TupleCodec",
    "SlottedFile",
    "WAL_INSERT",
    "WAL_DELETE",
    "WAL_UPDATE",
    "WAL_CHECKPOINT",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
]
