"""WAL-tail resume: reconnect a subscriber by replaying logged mutations.

A subscriber that disconnects does not want to re-run every standing
query from scratch when it comes back — on a durable target
(:class:`~repro.core.recovery.DurableIndex`) the write-ahead log already
holds the exact mutation history, LSN-stamped.  This module provides
the client-side state (:class:`StreamCheckpoint`: last acknowledged LSN
plus each standing query's last delivered results) and the server-side
tail scan (:func:`read_wal_tail`): the mutations with
``acked_lsn < lsn <= live tip``, decoded back into documents.

Resume (see :meth:`repro.streaming.service.StreamingService.resume`)
replays that tail through a private matcher seeded from the checkpoint
results, reusing the recovery path's idempotent-replay semantics —
deletions that
evict a checkpointed result fall back to querying the *live* index, so
replay converges on the exact live top-k and epoch.  If the log was
reset by a checkpoint after the subscriber acknowledged (coverage gap),
resume reports ``covered=False`` and the caller falls back to full
re-queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.recovery import DurableIndex, decode_document
from repro.model.document import SpatialDocument
from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc
from repro.storage.wal import WAL_CHECKPOINT, WAL_DELETE, WAL_INSERT, WAL_UPDATE
from repro.streaming.delivery import ResultUpdate

__all__ = ["CheckpointEntry", "StreamCheckpoint", "TailMutation", "WalTail", "read_wal_tail"]


@dataclass
class CheckpointEntry:
    """One standing query's last delivered state.

    ``synced`` distinguishes "this query's top-k really was ``results``
    when ``acked_lsn`` was acknowledged" from "no update was ever
    delivered" — an entry that was only tracked has ``results = ()``,
    which is *not* the state at LSN 0 when the store was seeded from a
    snapshot.  Resume must re-query such entries instead of replaying
    the log tail on top of an empty seed.
    """

    query: TopKQuery
    alpha: float
    results: Tuple[ScoredDoc, ...] = ()
    synced: bool = False


class StreamCheckpoint:
    """Client-side resume state, built from delivered updates.

    The client tracks each standing query at registration
    (:meth:`track`) and records every polled update (:meth:`record`).
    Because every top-k change produces an update and coalescing keeps
    the latest per query, the recorded results are each query's exact
    top-k as of :attr:`acked_lsn`.
    """

    def __init__(self, subscriber_id: str) -> None:
        self.subscriber_id = subscriber_id
        self.acked_lsn = 0
        self.entries: Dict[int, CheckpointEntry] = {}

    def track(self, query_id: int, query: TopKQuery, alpha: float) -> None:
        """Start tracking one standing query."""
        self.entries[query_id] = CheckpointEntry(query=query, alpha=alpha)

    def record(self, update: ResultUpdate) -> None:
        """Fold one delivered update into the checkpoint."""
        entry = self.entries.get(update.query_id)
        if entry is not None:
            entry.results = update.results
            entry.synced = True
        if update.lsn is not None and update.lsn > self.acked_lsn:
            self.acked_lsn = update.lsn

    def record_all(self, updates) -> None:
        for update in updates:
            self.record(update)


@dataclass(frozen=True)
class TailMutation:
    """One decoded WAL mutation: ``kind`` is ``"insert"``/``"delete"``;
    updates decode into their delete + insert halves."""

    lsn: int
    kind: str
    doc: SpatialDocument


@dataclass(frozen=True)
class WalTail:
    """The replayable mutation tail for one reconnecting subscriber.

    Attributes:
        covered: Whether the live log still holds every mutation after
            ``after_lsn``.  ``False`` means a checkpoint reset the log
            past the subscriber's acknowledged point — the history is
            gone and the caller must re-query from scratch.
        base_lsn: LSN the live log's opening checkpoint covers.
        mutations: The decoded mutations with ``lsn > after_lsn``,
            log order.
    """

    covered: bool
    base_lsn: int
    mutations: List[TailMutation]


def read_wal_tail(durable: DurableIndex, after_lsn: int) -> WalTail:
    """Scan the live log for the mutations a subscriber missed."""
    scan = durable.log_records()
    base_lsn = 0
    for _, record in scan.records:
        if record.type == WAL_CHECKPOINT:
            base_lsn = record.lsn
        break  # only the opening marker defines coverage
    if after_lsn < base_lsn:
        return WalTail(covered=False, base_lsn=base_lsn, mutations=[])
    mutations: List[TailMutation] = []
    for _, record in scan.records:
        if record.type == WAL_CHECKPOINT or record.lsn <= after_lsn:
            continue
        if record.type == WAL_INSERT:
            doc, _ = decode_document(record.body)
            mutations.append(TailMutation(record.lsn, "insert", doc))
        elif record.type == WAL_DELETE:
            doc, _ = decode_document(record.body)
            mutations.append(TailMutation(record.lsn, "delete", doc))
        elif record.type == WAL_UPDATE:
            old, offset = decode_document(record.body)
            new, _ = decode_document(record.body, offset)
            mutations.append(TailMutation(record.lsn, "delete", old))
            mutations.append(TailMutation(record.lsn, "insert", new))
    return WalTail(covered=True, base_lsn=base_lsn, mutations=mutations)
