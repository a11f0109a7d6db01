"""A minimal filesystem seam for the durable write path.

The durability layer (:mod:`repro.storage.wal`,
:mod:`repro.core.recovery`) performs every side-effecting file
operation — open, write, fsync, rename, truncate — through a
:class:`FileSystem` object instead of calling :mod:`os` directly.  In
production that is a thin veneer over the real OS.  In tests it is the
injection point for deterministic crash simulation: the harness in
``tests/crashkit.py`` substitutes a counting filesystem that kills the
process-under-test at the Nth write or fsync, which is how the
crash-matrix suite proves recovery at every possible torn-write offset.

The crash model this seam supports is *truncation*: a write that never
ran leaves the file exactly as it was, and a sequence of appends
interrupted at operation N leaves the first N-1 operations' bytes on
disk.  That matches a process kill (completed ``write(2)`` calls
survive in the page cache); power-failure reordering is out of scope.
"""

from __future__ import annotations

import os
from typing import BinaryIO

__all__ = ["FileSystem", "OS_FILESYSTEM", "atomic_write"]

_CHUNK = 1 << 16  # bytes per write call: each one is a crash point


class FileSystem:
    """Real-OS implementation of the durability layer's file operations.

    Subclass and override to intercept; every method is the obvious
    one-liner so overriding any subset is safe.
    """

    def open(self, path: str, mode: str) -> BinaryIO:
        """Open ``path`` in binary ``mode`` (must contain ``'b'``)."""
        if "b" not in mode:
            raise ValueError(f"FileSystem.open requires binary mode, got {mode!r}")
        return open(path, mode)

    def fsync(self, fh: BinaryIO) -> None:
        """Flush ``fh`` and force its bytes to stable storage."""
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def remove(self, path: str) -> None:
        os.remove(path)


OS_FILESYSTEM = FileSystem()
"""Shared default instance (the filesystem is stateless)."""


def atomic_write(fs: FileSystem, path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``: temp file, fsync, rename.  A crash
    at any point leaves either the old file or the new one."""
    tmp = path + ".tmp"
    with fs.open(tmp, "wb") as fh:
        for start in range(0, len(data), _CHUNK):
            fh.write(data[start : start + _CHUNK])
        fs.fsync(fh)
    fs.replace(tmp, path)
