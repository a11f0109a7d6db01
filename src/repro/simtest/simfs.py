"""An in-memory filesystem with seeded crash semantics.

:class:`SimFileSystem` implements the :class:`repro.storage.fs.FileSystem`
seam entirely in memory, which gives the simulation harness three things
the real OS cannot:

* **speed and hermeticity** — hundreds of seeded crash/recover cycles
  per second, no temp directories, no leftover state;
* **crash points** — like ``tests/crashkit.py``'s ``CrashPointFS``, every
  side-effecting operation (write, truncate, fsync, rename) ticks a
  counter and :meth:`schedule_crash` arms a :class:`SimulatedCrash` at a
  chosen tick, so a workload can be killed *between any two file
  operations*;
* **a power-failure model** — each file tracks its last-fsynced content
  (``stable``) separately from its live content, with the writes since
  the last fsync kept as an ordered op journal.  :meth:`crash` resolves
  a crash by replaying, per file, a seeded-random *prefix* of that
  journal — possibly tearing the final surviving write mid-buffer.
  Because each file resolves independently, unsynced writes to
  different files are effectively reordered, which is exactly the
  hazard fsync exists to fence.  Fsynced bytes always survive;
  :meth:`replace` (rename) is modelled as atomic and durable, matching
  the snapshot protocol that fsyncs the temp file before renaming it.

The durability layer's acknowledged-prefix contract is therefore
checkable: anything acknowledged (fsynced) before the crash must be
recovered; anything after may or may not be, torn or whole.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.storage.fs import FileSystem

__all__ = ["SimulatedCrash", "SimFileSystem"]


class SimulatedCrash(BaseException):
    """The simulated process died at an injected crash point.

    A ``BaseException`` so no ``except Exception`` handler in the code
    under test can swallow the crash and keep writing — like a real
    ``SIGKILL``.  (``tests/crashkit.py`` re-exports this class, so the
    crash-matrix suite and the simulator share one crash type.)
    """


# Journal entries: ("write", offset, bytes) | ("truncate", size)
_Op = Tuple


class _SimNode:
    """One file's state: live content, last-fsynced content, journal."""

    __slots__ = ("data", "stable", "ops")

    def __init__(self) -> None:
        self.data = bytearray()
        # None = the file was never fsynced (a crash may erase it).
        self.stable: Optional[bytes] = None
        self.ops: List[_Op] = []


class _SimFile:
    """A handle over a :class:`_SimNode` with its own position."""

    def __init__(self, fs: "SimFileSystem", path: str, node: _SimNode,
                 writable: bool) -> None:
        self._fs = fs
        self._path = path
        self._node = node
        self._writable = writable
        self._pos = 0
        self.closed = False

    # -- mutation (ticks the crash counter) -----------------------------
    def write(self, data: bytes) -> int:
        if not self._writable:
            raise OSError(f"{self._path}: not open for writing")
        self._fs.tick("write", self._path)
        node = self._node
        end = self._pos + len(data)
        if len(node.data) < self._pos:
            node.data.extend(b"\x00" * (self._pos - len(node.data)))
        node.data[self._pos:end] = data
        node.ops.append(("write", self._pos, bytes(data)))
        self._pos = end
        return len(data)

    def truncate(self, size: Optional[int] = None) -> int:
        if not self._writable:
            raise OSError(f"{self._path}: not open for writing")
        self._fs.tick("truncate", self._path)
        size = self._pos if size is None else size
        del self._node.data[size:]
        self._node.ops.append(("truncate", size))
        return size

    # -- reads (free: crashes model lost writes, not lost reads) --------
    def read(self, n: int = -1) -> bytes:
        data = self._node.data
        if n is None or n < 0:
            out = bytes(data[self._pos:])
        else:
            out = bytes(data[self._pos:self._pos + n])
        self._pos += len(out)
        return out

    def seek(self, offset: int, whence: int = 0) -> int:
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = len(self._node.data) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        return self._pos

    def tell(self) -> int:
        return self._pos

    def flush(self) -> None:
        pass  # writes land in the node immediately

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "_SimFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SimFileSystem(FileSystem):
    """The in-memory, crash-injectable FileSystem implementation.

    Attributes:
        ops: Side-effecting operations performed (or attempted) so far.
        crashed: Whether an armed crash point has fired.
        trace: ``"<kind> <path>"`` of every operation in order
            (diagnostics: which file a crash point cuts).
    """

    def __init__(self) -> None:
        self._files: Dict[str, _SimNode] = {}
        self._dirs = {""}
        self.ops = 0
        self.crashed = False
        self.trace: List[str] = []
        self._crash_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Crash machinery
    # ------------------------------------------------------------------
    def schedule_crash(self, after_ops: int) -> None:
        """Arm a crash just before the ``after_ops``-th *future* op."""
        if after_ops < 1:
            raise ValueError(f"after_ops must be >= 1, got {after_ops}")
        self._crash_at = self.ops + after_ops
        self.crashed = False

    def disarm(self) -> None:
        """Cancel a scheduled crash that has not fired (e.g. the armed
        point lay beyond the workload burst)."""
        self._crash_at = None

    def tick(self, kind: str, path: str) -> None:
        """Count one side-effecting op on ``path``, crashing at the armed
        point.  Once dead, every later operation dies too (the process
        is gone)."""
        self.ops += 1
        self.trace.append(f"{kind} {path}")
        if self._crash_at is not None and self.ops >= self._crash_at:
            self.crashed = True
            raise SimulatedCrash(f"crashed before op {self.ops} ({kind})")

    def crash(self, rng: random.Random) -> None:
        """Resolve a crash: decide, per file, which unsynced bytes die.

        For every file a seeded-random prefix of the unsynced op journal
        survives; if the cut lands on a write, that write may survive
        only as a torn prefix of its bytes.  Fsynced content always
        survives; a never-fsynced file whose journal is fully lost is
        removed.  Afterwards the filesystem is disarmed and the on-disk
        state is exactly what a restarted process observes.
        """
        for path in sorted(self._files):
            node = self._files[path]
            if not node.ops:
                continue
            base = bytearray(node.stable if node.stable is not None else b"")
            keep = rng.randint(0, len(node.ops))
            survivors = list(node.ops[:keep])
            if keep < len(node.ops):
                op = node.ops[keep]
                if op[0] == "write" and len(op[2]) > 1 and rng.random() < 0.5:
                    torn = op[2][: rng.randrange(1, len(op[2]))]
                    survivors.append(("write", op[1], torn))
            for op in survivors:
                if op[0] == "write":
                    _, offset, data = op
                    if len(base) < offset:
                        base.extend(b"\x00" * (offset - len(base)))
                    base[offset:offset + len(data)] = data
                else:
                    del base[op[1]:]
            if node.stable is None and not survivors:
                del self._files[path]
                continue
            node.data = base
            node.stable = bytes(base)
            node.ops = []
        self._crash_at = None
        self.crashed = False

    # ------------------------------------------------------------------
    # FileSystem implementation
    # ------------------------------------------------------------------
    def open(self, path: str, mode: str):
        if "b" not in mode:
            raise ValueError(f"SimFileSystem.open requires binary mode, got {mode!r}")
        writable = any(c in mode for c in "wa+x")
        if "w" in mode:
            node = self._files.get(path)
            if node is None:
                node = _SimNode()
                self._files[path] = node
            else:
                node.data = bytearray()
                node.ops.append(("truncate", 0))
            return _SimFile(self, path, node, writable=True)
        node = self._files.get(path)
        if node is None:
            raise FileNotFoundError(f"[sim] no such file: {path}")
        fh = _SimFile(self, path, node, writable=writable)
        if "a" in mode:
            fh.seek(0, 2)
        return fh

    def fsync(self, fh) -> None:
        self.tick("fsync", fh._path)
        node = fh._node
        node.stable = bytes(node.data)
        node.ops = []

    def replace(self, src: str, dst: str) -> None:
        self.tick("replace", dst)
        node = self._files.pop(src, None)
        if node is None:
            raise FileNotFoundError(f"[sim] no such file: {src}")
        # Atomic-and-durable: the snapshot protocol fsyncs src first.
        node.stable = bytes(node.data)
        node.ops = []
        self._files[dst] = node

    def exists(self, path: str) -> bool:
        return path in self._files or path in self._dirs

    def size(self, path: str) -> int:
        node = self._files.get(path)
        if node is None:
            raise FileNotFoundError(f"[sim] no such file: {path}")
        return len(node.data)

    def makedirs(self, path: str) -> None:
        self._dirs.add(path)

    def remove(self, path: str) -> None:
        if self._files.pop(path, None) is None:
            raise FileNotFoundError(f"[sim] no such file: {path}")

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def listdir(self) -> List[str]:
        """All file paths, sorted (diagnostics)."""
        return sorted(self._files)

    def read_bytes(self, path: str) -> bytes:
        """A file's live content (diagnostics)."""
        return bytes(self._files[path].data)

    def unsynced_ops(self, path: str) -> int:
        """Journal length since the last fsync (diagnostics)."""
        node = self._files.get(path)
        return len(node.ops) if node is not None else 0
