"""The temporal index: rolling time-sliced I3 partitions.

``TemporalIndex`` stores :class:`~repro.temporal.model.TemporalDocument`
objects in fixed-width time slices, each backed by its own
:class:`~repro.core.index.I3Index`.  The slice a document lives in is a
pure function of its timestamp (``slice_of``), which buys three things:

* **hot-window pruning** — a query's time range selects slices up
  front, and each surviving slice advertises an admissible score upper
  bound (spatial bound x keyword-weight bound x recency decay at the
  slice's newest relevant timestamp), so the best-first merge skips
  whole slices whose bound falls strictly below the current k-th score;
* **rolling retention** — expiry drops whole slices in O(1) index work
  each, never touching a per-document delete path;
* **write-ahead durability** — under a durable root a slice is
  ``meta.json`` (its compacted base, at the log sequence number it
  covers), ``wal.log`` (a :class:`~repro.storage.wal.WriteAheadLog` of
  the records past it; every insert or delete appends one, fsynced
  before it returns) and ``snapshot.i3ix`` (a cache, trusted only when
  its stamp is the last lsn).  Sealing and ``checkpoint()`` compact.

Exactness: the recency term is a per-document monotone multiplier (see
:mod:`repro.temporal.model`), so slice skipping uses the same strict
``bound < delta`` rule the cluster router uses and answers remain
byte-identical to a naive full scan — the property the temporal
equivalence suite and the simtest ``temporal-equivalence`` invariant
pin down against :class:`~repro.temporal.oracle.NaiveTemporalIndex`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.index import I3Index, MutationEvent
from repro.core.persistence import read_index, write_index
from repro.core.recovery import wal_body, wal_documents
from repro.model.document import (
    SpatialDocument,
    document_from_record,
    document_to_record,
    json_int,
    json_number,
)
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect
from repro.storage.errors import CorruptionError
from repro.storage.fs import OS_FILESYSTEM, FileSystem, atomic_write
from repro.storage.iostats import IOStats
from repro.storage.wal import WAL_DELETE, WAL_INSERT, WriteAheadLog
from repro.temporal.model import (
    TemporalDocument,
    TemporalQuery,
    recency_weight,
    slice_of,
    slice_span,
)

__all__ = ["TemporalConfig", "TemporalIndex", "TimeSlice"]

MANIFEST_NAME = "slices.json"
META_NAME = "meta.json"
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.i3ix"

_GAUGES = {  # slice_stats() key -> help text of its temporal_* gauge
    "slices": "Live time slices in the temporal index",
    "sealed_slices": None,
    "hot_docs": "Documents in unsealed (hot) slices",
    "sealed_bytes": "On-page bytes held by sealed slices",
    "retention_drops": "Slices dropped by retention",
    "skip_ratio": "Cumulative fraction of sealed slices skipped by queries",
    "decoded_cell_bytes": "Decoded keyword cells held across live slices "
    "(bounded by 8 MiB per slice)",
}


@contextlib.contextmanager
def _decoding(fs: FileSystem, path: str):
    """Yield the JSON object at ``path``; a damaged file, or a field the
    block finds missing or ill-typed, is a :class:`CorruptionError`
    naming the file and the field."""
    try:
        with fs.open(path, "rb") as fh:
            yield _typed(json.loads(fh.read()), dict, "the file")
    except KeyError as exc:
        raise CorruptionError(f"{path}: missing field {exc}") from None
    except ValueError as exc:  # JSON syntax, field type or field value
        raise CorruptionError(f"{path}: {exc}") from None


def _typed(value, kind: type, name: str):
    """``value`` if it is a ``kind``, else :class:`ValueError`."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _number_or_none(value, name: str) -> Optional[float]:
    return None if value is None else json_number(value, name)


@dataclass(frozen=True, slots=True)
class TemporalConfig:
    """Sizing and retention policy for a :class:`TemporalIndex`.

    Attributes:
        slice_width: Width of one time slice, in timestamp units.
        retention_age: How far behind the watermark data is kept;
            ``None`` keeps everything forever.  Retention only ever
            drops *whole sealed slices* whose span has fully aged out.
        page_size: Page size of each per-slice I3 index.
        eta: Signature length of each per-slice I3 index.
    """

    slice_width: float = 3600.0
    retention_age: Optional[float] = None
    page_size: int = 4096
    eta: int = 300

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slice_width) and self.slice_width > 0):
            raise ValueError(
                f"slice_width must be positive, got {self.slice_width}"
            )
        if self.retention_age is not None and not (
            math.isfinite(self.retention_age) and self.retention_age >= 0
        ):
            raise ValueError(
                f"retention_age must be non-negative, got {self.retention_age}"
            )


class TimeSlice:
    """One time slice: an I3 index plus the documents it owns.

    ``docs`` keeps the full :class:`TemporalDocument` per id — that is
    what makes interval filtering, recency weighting, retention events,
    and delete-by-id possible without touching the page files.
    ``min_ts``/``max_ts`` are sticky envelope bounds (deletes never
    shrink them), which keeps the recency decay bound admissible.
    Under a durable root ``base_lsn`` is the last log record
    ``meta.json`` holds, and ``log`` is open only while the log holds
    records past it: exactly while the slice needs compaction.
    """

    __slots__ = (
        "slice_id",
        "start",
        "end",
        "index",
        "docs",
        "min_ts",
        "max_ts",
        "sealed",
        "log",
        "base_lsn",
    )

    def __init__(self, slice_id: int, width: float, index: I3Index) -> None:
        self.slice_id = slice_id
        self.start, self.end = slice_span(slice_id, width)
        self.index = index
        self.docs: Dict[int, TemporalDocument] = {}
        self.min_ts = math.inf
        self.max_ts = -math.inf
        self.sealed = False
        self.log: Optional[WriteAheadLog] = None
        self.base_lsn = 0

    @property
    def last_lsn(self) -> int:
        return self.base_lsn if self.log is None else self.log.last_lsn

    def insert(self, tdoc: TemporalDocument) -> None:
        self.index.insert_document(tdoc.doc)
        self.track(tdoc)

    def track(self, tdoc: TemporalDocument) -> None:
        """Own ``tdoc`` without touching the index."""
        self.docs[tdoc.doc_id] = tdoc
        if tdoc.timestamp < self.min_ts:
            self.min_ts = tdoc.timestamp
        if tdoc.timestamp > self.max_ts:
            self.max_ts = tdoc.timestamp

    def delete(self, doc_id: int) -> Optional[TemporalDocument]:
        tdoc = self.docs.pop(doc_id, None)
        if tdoc is None:
            return None
        self.index.delete_document(tdoc.doc)
        return tdoc


class TemporalIndex:
    """Rolling time-sliced top-k spatial keyword index.

    The index quacks like :class:`I3Index` where the serving stack
    cares (``space``, ``epoch``, ``stats``, ``query``, document
    mutations, keyword bounds, mutation listeners), so
    ``QueryService`` and ``StreamingService`` compose with it
    unchanged; plain :class:`TopKQuery` objects are answered over all
    time with no decay.

    Attributes:
        space: Shared data-space rectangle of every slice index.
        config: Slice width and retention policy.
        stats: One shared I/O counter across all slices (per-query
            attribution via ``io_sink`` keeps working).
        watermark: High-water mark of observed time — the max of every
            inserted timestamp and every ``advance(now)`` call.  Slices
            whose span ends at or before it are sealed.
        epoch: Mutation counter bumped by every insert/delete and every
            retention drop, so external result caches self-invalidate
            exactly like they do for a single I3 index.
    """

    def __init__(
        self,
        space: Rect,
        config: Optional[TemporalConfig] = None,
        *,
        durable_root: Optional[str] = None,
        fs: Optional[FileSystem] = None,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.space = space
        self.config = config if config is not None else TemporalConfig()
        self.stats = stats if stats is not None else IOStats()
        self.fs = fs if fs is not None else OS_FILESYSTEM
        self.durable_root = durable_root
        self._slices: Dict[int, TimeSlice] = {}
        self.watermark = -math.inf
        self.epoch = 0
        self.num_documents = 0
        self.retention_drops = 0
        self.dropped_documents = 0
        self.queries = 0
        self.slices_scanned = 0
        self.sealed_considered = 0
        self.sealed_scanned = 0
        self.last_query_stats: Dict[str, int] = {}
        self.collected_stats: Optional[Dict[str, float]] = None
        self._listeners: List = []
        if durable_root is not None:
            self.fs.makedirs(durable_root)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        space: Rect,
        documents: Iterable[TemporalDocument],
        config: Optional[TemporalConfig] = None,
        *,
        durable_root: Optional[str] = None,
        fs: Optional[FileSystem] = None,
        stats: Optional[IOStats] = None,
    ) -> "TemporalIndex":
        """Build an index from a timestamped corpus.

        Documents are inserted oldest-first so the watermark never
        outruns a pending insert past the retention horizon.  Under a
        durable root the slices are built in memory, then each is written
        once (base and snapshot, no log) before the manifest lists them.
        """
        index = cls(space, config, fs=fs, stats=stats)
        for tdoc in sorted(
            documents, key=lambda t: (t.timestamp, t.doc_id)
        ):
            index.insert(tdoc)
        if durable_root is not None:
            index.durable_root = durable_root
            index.fs.makedirs(durable_root)
            for s in index._slices.values():
                index._place(s)
                index._write_snapshot(s)
            index._write_manifest()
        return index

    @classmethod
    def open(
        cls,
        durable_root: str,
        *,
        fs: Optional[FileSystem] = None,
        stats: Optional[IOStats] = None,
    ) -> "TemporalIndex":
        """Reopen a persisted temporal index from its manifest.

        Every listed slice comes back as its ``meta.json`` base plus
        the records its log holds past it: from its snapshot when the
        snapshot's stamp equals the last lsn, otherwise rebuilt and
        re-snapshotted.
        """
        fs = fs if fs is not None else OS_FILESYSTEM
        manifest_path = os.path.join(durable_root, MANIFEST_NAME)
        if not fs.exists(manifest_path):
            raise FileNotFoundError(
                f"{durable_root} is not a temporal index (missing {MANIFEST_NAME})"
            )
        with _decoding(fs, manifest_path) as manifest:
            cfg = _typed(manifest["config"], dict, "config")
            config = TemporalConfig(
                slice_width=json_number(cfg["slice_width"], "config.slice_width"),
                retention_age=_number_or_none(
                    cfg["retention_age"], "config.retention_age"
                ),
                page_size=json_int(cfg["page_size"], "config.page_size"),
                eta=json_int(cfg["eta"], "config.eta"),
            )
            bounds = _typed(manifest["space"], list, "space")
            if len(bounds) != 4:
                raise ValueError(f"space must hold 4 numbers, got {bounds!r}")
            space = Rect(*(json_number(v, "space") for v in bounds))
            slices = _typed(manifest["slices"], list, "slices")
            slice_ids = [json_int(sid, "slices") for sid in slices]
            watermark = _number_or_none(manifest["watermark"], "watermark")
        index = cls(
            space, config, durable_root=durable_root, fs=fs, stats=stats
        )
        for sid in slice_ids:
            index._open_slice(sid)
        index.watermark = -math.inf if watermark is None else watermark
        for s in index._slices.values():
            if s.docs and s.max_ts > index.watermark:
                index.watermark = s.max_ts
        index._seal_pass()
        return index

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def accepts(self, ts: float) -> bool:
        """Whether a document at ``ts`` is still inside the retention
        horizon (its slice would not qualify for expiry right now)."""
        if self.config.retention_age is None:
            return math.isfinite(ts)
        if not math.isfinite(ts):
            return False
        cutoff = self.watermark - self.config.retention_age
        return slice_span(slice_of(ts, self.config.slice_width), self.config.slice_width)[1] > cutoff

    def insert(self, tdoc: TemporalDocument) -> None:
        """Insert a timestamped document.

        Late arrivals into already-sealed (still-live) slices are
        allowed; under a durable root they wait in the slice's log
        until the next ``checkpoint()`` compacts it.  Inserts behind
        the retention horizon are refused: their slice is already
        expired or about to be.
        """
        if not self.accepts(tdoc.timestamp):
            raise ValueError(
                f"timestamp {tdoc.timestamp} is behind the retention horizon "
                f"(watermark {self.watermark}, "
                f"retention_age {self.config.retention_age})"
            )
        if self.get(tdoc.doc_id) is not None:
            raise ValueError(f"duplicate doc_id {tdoc.doc_id}")
        # Checked before logging: every logged record must replay.
        if not self.space.contains_point(tdoc.doc.x, tdoc.doc.y):
            raise ValueError(f"document {tdoc.doc_id} lies outside the data space")
        sid = slice_of(tdoc.timestamp, self.config.slice_width)
        s = self._slices.get(sid)
        if s is None:
            s = self._create_slice(sid)
        self._log(s, WAL_INSERT, tdoc)
        s.insert(tdoc)
        self.num_documents += 1
        self.epoch += 1
        if tdoc.timestamp > self.watermark:
            self.watermark = tdoc.timestamp
        self._seal_pass()
        self._emit(MutationEvent("insert", self.epoch, tdoc.doc))

    def insert_document(self, tdoc: TemporalDocument) -> None:
        """``I3Index``-shaped insert; a plain document has no timestamp."""
        if not isinstance(tdoc, TemporalDocument):
            raise ValueError(f"expected a TemporalDocument, got {tdoc!r}")
        self.insert(tdoc)

    def delete_document(self, ref: Union[TemporalDocument, SpatialDocument, int]) -> bool:
        """Delete by id (or by any document object carrying one)."""
        if isinstance(ref, (TemporalDocument, SpatialDocument)):
            doc_id = ref.doc_id
        else:
            doc_id = int(ref)
        for s in self._slices.values():
            tdoc = s.docs.get(doc_id)
            if tdoc is not None:
                self._log(s, WAL_DELETE, tdoc)
                s.delete(doc_id)
                self.num_documents -= 1
                self.epoch += 1
                self._emit(MutationEvent("delete", self.epoch, tdoc.doc))
                return True
        return False

    def update_document(self, old: Union[TemporalDocument, SpatialDocument, int], new: TemporalDocument) -> None:
        """Replace a document; emits its delete and insert halves."""
        self.delete_document(old)
        self.insert(new)

    def get(self, doc_id: int) -> Optional[TemporalDocument]:
        for s in self._slices.values():
            tdoc = s.docs.get(doc_id)
            if tdoc is not None:
                return tdoc
        return None

    # ------------------------------------------------------------------
    # Time control: sealing and retention
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Advance the watermark to ``now`` (never backwards), sealing
        any slice whose span has fully passed."""
        if not math.isfinite(now):
            raise ValueError(f"now must be finite, got {now}")
        if now > self.watermark:
            self.watermark = now
            self._seal_pass()

    def expire(self, now: Optional[float] = None) -> List[int]:
        """Apply retention: drop every slice whose span ends at or
        before ``watermark - retention_age``.

        Returns the dropped slice ids.  Cost is O(dropped slices) of
        index work — documents leave with their slice, no per-document
        delete path runs.  When mutation listeners are registered
        (standing queries aging results out), one ``delete`` event per
        dropped document is emitted *after* the slice has left the
        query path.
        """
        if now is not None:
            self.advance(now)
        if self.config.retention_age is None:
            return []
        cutoff = self.watermark - self.config.retention_age
        doomed = sorted(
            sid for sid, s in self._slices.items() if s.end <= cutoff
        )
        for sid in doomed:
            self._drop(sid)
        return doomed

    def _seal_pass(self) -> None:
        for s in self._slices.values():
            if not s.sealed and s.end <= self.watermark:
                s.sealed = True
                if self.durable_root is not None:
                    self._compact(s)

    def _drop(self, sid: int) -> None:
        """Drop one slice: O(1) index bookkeeping plus file unlinks.

        The slice leaves the query path before any observer runs; the
        simtest ``stale-slice`` canary is exactly this method failing
        to make the slice unreachable.
        """
        s = self._slices.pop(sid)
        self.num_documents -= len(s.docs)
        self.retention_drops += 1
        self.dropped_documents += len(s.docs)
        self.epoch += 1
        if self.durable_root is not None:
            if s.log is not None:
                s.log.close()
            # Unlist first: a crash before the unlinks leaves files no
            # manifest names, never a listed slice without its files.
            self._write_manifest()
            self._remove_slice_files(sid)
        if self._listeners:
            for doc_id in sorted(s.docs):
                self.epoch += 1
                self._emit(
                    MutationEvent("delete", self.epoch, s.docs[doc_id].doc)
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Union[TemporalQuery, TopKQuery],
        ranker: Optional[Ranker] = None,
        io_sink: Optional[IOStats] = None,
    ) -> List[ScoredDoc]:
        """Answer a (possibly temporal) top-k query exactly.

        Plain :class:`TopKQuery` objects are answered over all time
        with no recency term — the shape ``QueryService`` and standing
        queries use.  Each slice scan reads that slice's keyword cells
        through its decoded-cell cache.
        """
        tq = query if isinstance(query, TemporalQuery) else TemporalQuery(query)
        if ranker is None:
            ranker = Ranker(self.space)
        if io_sink is None:
            return self._search(tq, ranker)
        with self.stats.tee(io_sink):
            return self._search(tq, ranker)

    def _slice_candidates(
        self, tq: TemporalQuery, ranker: Ranker
    ) -> Tuple[List[Tuple[float, int, TimeSlice, float]], int, int]:
        """Rank live slices by admissible score upper bound.

        Returns ``(ranked, outside, unmatched)`` where ``ranked`` is
        ``(bound, slice_id, slice, decay_ub)`` sorted bound-descending
        (newest slice first on ties — deterministic), ``outside``
        counts slices rejected by the time range, and ``unmatched``
        those rejected by keyword bounds.
        """
        tr = tq.time_range
        ranked: List[Tuple[float, int, TimeSlice, float]] = []
        outside = 0
        unmatched = 0
        phi_s_ub = ranker.spatial_upper_bound(tq.x, tq.y, self.space)
        for sid in sorted(self._slices):
            s = self._slices[sid]
            if not s.docs:
                continue
            if tr is not None and not tr.overlaps_span(s.start, s.end):
                outside += 1
                continue
            bounds = s.index.keyword_bounds(tq.words)
            if not bounds or (
                tq.semantics is Semantics.AND and len(bounds) < len(tq.words)
            ):
                unmatched += 1
                continue
            phi_t_ub = 0.0
            for word in tq.words:
                weight = bounds.get(word)
                if weight is not None:
                    phi_t_ub += weight
            decay_ub = 1.0
            if tq.recency is not None:
                newest = s.max_ts
                if tr is not None and tr.end < newest:
                    newest = tr.end
                decay_ub = recency_weight(tq.recency, newest)
            bound = ranker.combine(phi_s_ub, phi_t_ub) * decay_ub
            ranked.append((bound, sid, s, decay_ub))
        ranked.sort(key=lambda item: (-item[0], -item[1]))
        return ranked, outside, unmatched

    def _search(self, tq: TemporalQuery, ranker: Ranker) -> List[ScoredDoc]:
        collector = TopKCollector(tq.k)
        ranked, outside, unmatched = self._slice_candidates(tq, ranker)
        scanned = 0
        sealed_scanned = 0
        pruned = 0
        for bound, _sid, s, decay_ub in ranked:
            # Strict comparison: a slice whose bound ties the k-th score
            # may still contribute via the smaller-doc-id tie-break.
            if bound < collector.delta:
                pruned = len(ranked) - scanned
                break
            scanned += 1
            if s.sealed:
                sealed_scanned += 1
            self._scan_slice(s, tq, ranker, decay_ub, collector)
        live = sum(1 for s in self._slices.values() if s.docs)
        sealed_live = sum(
            1 for s in self._slices.values() if s.docs and s.sealed
        )
        self.queries += 1
        self.slices_scanned += scanned
        self.sealed_considered += sealed_live
        self.sealed_scanned += sealed_scanned
        self.last_query_stats = {
            "slices": live,
            "sealed": sealed_live,
            "scanned": scanned,
            "sealed_scanned": sealed_scanned,
            "pruned": pruned,
            "outside_range": outside,
            "unmatched": unmatched,
        }
        return collector.results()

    def _scan_slice(
        self,
        s: TimeSlice,
        tq: TemporalQuery,
        ranker: Ranker,
        decay_ub: float,
        collector: TopKCollector,
    ) -> None:
        """Stream one slice best-first, stopping at the decay-adjusted
        score bound.

        The offered score recomputes the base from the stored document
        (``score_document`` — the oracle's own code path), so the final
        number is bit-identical to the naive scan by construction; the
        streamed score only steers traversal order and the early stop.
        """
        tr = tq.time_range
        spec = tq.recency
        for sd in s.index.iter_query(tq.base, ranker):
            if sd.score * decay_ub < collector.delta:
                break
            tdoc = s.docs.get(sd.doc_id)
            if tdoc is None:
                continue
            ts = tdoc.timestamp
            if tr is not None and not tr.contains(ts):
                continue
            base = ranker.score_document(tq.base, tdoc.doc)
            if base is None:
                continue
            if spec is not None:
                collector.offer(sd.doc_id, base * recency_weight(spec, ts))
            else:
                collector.offer(sd.doc_id, base)

    def keyword_bound(self, word: str) -> Optional[float]:
        """Max ``keyword_bound`` across live slices (router metadata)."""
        best: Optional[float] = None
        for s in self._slices.values():
            bound = s.index.keyword_bound(word)
            if bound is not None and (best is None or bound > best):
                best = bound
        return best

    def keyword_bounds(self, words) -> Dict[str, float]:
        bounds: Dict[str, float] = {}
        for word in words:
            bound = self.keyword_bound(word)
            if bound is not None:
                bounds[word] = bound
        return bounds

    # ------------------------------------------------------------------
    # Mutation listeners (streaming seam)
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener) -> None:
        self._listeners.append(listener)

    def remove_mutation_listener(self, listener) -> None:
        with contextlib.suppress(ValueError):
            self._listeners.remove(listener)

    def _emit(self, event: MutationEvent) -> None:
        for listener in list(self._listeners):
            listener(event)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Compact every slice whose log holds records past its base."""
        if self.durable_root is None:
            raise ValueError("temporal index has no durable root")
        for s in self._slices.values():
            if s.last_lsn > s.base_lsn:  # records past its meta
                self._compact(s)
        self._write_manifest()

    def close(self) -> None:
        """Close every open slice log; each acknowledged write is
        already durable when its call returns."""
        for s in self._slices.values():
            if s.log is not None:
                s.log.close()
                s.log = None

    def _slice_dir(self, sid: int) -> str:
        assert self.durable_root is not None
        return os.path.join(self.durable_root, f"slice-{sid}")

    def _slice_file(self, sid: int, name: str) -> str:
        return os.path.join(self._slice_dir(sid), name)

    def _make_slice(self, sid: int) -> TimeSlice:
        index = I3Index(
            self.space,
            eta=self.config.eta,
            page_size=self.config.page_size,
            stats=self.stats,
        )
        return TimeSlice(sid, self.config.slice_width, index)

    def _create_slice(self, sid: int) -> TimeSlice:
        """A new, empty slice; under a durable root it is on disk and
        listed before its first write is logged."""
        s = self._make_slice(sid)
        self._slices[sid] = s
        if self.durable_root is not None:
            self._place(s)
            self._write_manifest()
        return s

    def _place(self, s: TimeSlice) -> None:
        """Write ``s``'s base, first removing what an unlisted slice of
        the same id left, so no stale snapshot or log stands in for it."""
        self._remove_slice_files(s.slice_id)
        self.fs.makedirs(self._slice_dir(s.slice_id))
        self._write_meta(s)

    def _log(self, s: TimeSlice, rec_type: int, tdoc: TemporalDocument) -> None:
        """Write ``tdoc``'s insert or delete ahead to its slice's log,
        fsynced before this returns (nothing in memory).  A slice with
        no open log begins a fresh one past its base."""
        if self.durable_root is None:
            return
        if s.log is None:
            s.log = WriteAheadLog.create(
                self._slice_file(s.slice_id, WAL_NAME),
                snapshot_lsn=s.base_lsn,
                fs=self.fs,
            )
        s.log.append(
            rec_type, wal_body(document_to_record(tdoc.doc, tdoc.timestamp))
        )

    def _compact(self, s: TimeSlice) -> None:
        """Fold the slice's log into its base: meta, then manifest, then
        snapshot; then close the log, whose records (skipped by replay)
        stay until the slice's next write begins a fresh one."""
        s.base_lsn = s.last_lsn
        self._write_meta(s)
        self._write_manifest()
        self._write_snapshot(s)
        if s.log is not None:
            s.log.close()
            s.log = None

    def _write_meta(self, s: TimeSlice) -> None:
        meta = {
            "slice_id": s.slice_id,
            "sealed": s.sealed,
            "lsn": s.base_lsn,
            "docs": [document_to_record(t.doc, t.timestamp) for t in s.docs.values()],
        }
        self._atomic_json(self._slice_file(s.slice_id, META_NAME), meta)

    def _write_snapshot(self, s: TimeSlice) -> None:
        buffer = io.BytesIO()
        write_index(s.index, buffer, last_lsn=s.last_lsn)
        atomic_write(
            self.fs, self._slice_file(s.slice_id, SNAPSHOT_NAME), buffer.getvalue()
        )

    def _write_manifest(self) -> None:
        manifest = {
            "version": 1,
            "space": astuple(self.space),
            "config": asdict(self.config),
            "watermark": self.watermark if math.isfinite(self.watermark) else None,
            "slices": sorted(self._slices),
        }
        self._atomic_json(
            os.path.join(self.durable_root, MANIFEST_NAME), manifest
        )

    def _atomic_json(self, path: str, payload: Dict) -> None:
        atomic_write(
            self.fs,
            path,
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        )

    def _remove_slice_files(self, sid: int) -> None:
        for name in (SNAPSHOT_NAME, META_NAME, WAL_NAME):
            path = self._slice_file(sid, name)
            if self.fs.exists(path):
                self.fs.remove(path)
        # FileSystem has no rmdir seam; best-effort on the real OS.
        with contextlib.suppress(OSError):
            os.rmdir(self._slice_dir(sid))

    def _open_slice(self, sid: int) -> None:
        def placed(doc: SpatialDocument, ts: Optional[float]) -> TemporalDocument:
            if ts is None:
                raise ValueError(f"document ts is missing (id {doc.doc_id})")
            if not self.space.contains_point(doc.x, doc.y):
                raise ValueError(f"document {doc.doc_id} lies outside the data space")
            return TemporalDocument(doc, ts)

        with _decoding(self.fs, self._slice_file(sid, META_NAME)) as meta:
            base_lsn = json_int(meta["lsn"], "lsn")
            sealed = _typed(meta["sealed"], bool, "sealed")
            docs = {}
            for record in _typed(meta["docs"], list, "docs"):
                tdoc = placed(*document_from_record(record))
                docs[tdoc.doc_id] = tdoc
        cached = None
        snapshot = self._slice_file(sid, SNAPSHOT_NAME)
        if self.fs.exists(snapshot):
            with self.fs.open(snapshot, "rb") as fh:
                cached, stamp = read_index(fh, stats=self.stats)

        def apply(record) -> None:
            [(doc, ts)] = wal_documents(record)  # a slice logs no updates
            if record.type == WAL_DELETE:
                docs.pop(doc.doc_id, None)
            else:
                docs[doc.doc_id] = placed(doc, ts)

        log, _, _ = WriteAheadLog.replay(
            self._slice_file(sid, WAL_NAME), base_lsn, apply, fs=self.fs
        )
        s = self._make_slice(sid)
        s.sealed, s.base_lsn = sealed, base_lsn
        if log.last_lsn == base_lsn:  # nothing to compact: hold no handle
            log.close()
        else:
            s.log = log
        fresh = cached is not None and stamp.last_lsn == s.last_lsn
        if fresh:
            s.index = cached
        add = s.track if fresh else s.insert
        for tdoc in docs.values():
            add(tdoc)
        self._slices[sid] = s
        self.num_documents += len(s.docs)
        if not fresh:  # no cache, or the log ran past it: rebuild
            self._write_snapshot(s)

    # ------------------------------------------------------------------
    # Introspection / metrics
    # ------------------------------------------------------------------
    def live_slice_ids(self) -> List[int]:
        return sorted(self._slices)

    def hot_slice_ids(self) -> List[int]:
        return sorted(sid for sid, s in self._slices.items() if not s.sealed)

    @property
    def skip_ratio(self) -> float:
        """Cumulative fraction of live *sealed* slices queries skipped."""
        if self.sealed_considered == 0:
            return 0.0
        return 1.0 - (self.sealed_scanned / self.sealed_considered)

    def slice_stats(self) -> Dict[str, float]:
        slices = list(self._slices.values())
        hot_docs = sum(len(s.docs) for s in slices if not s.sealed)
        # Each slice's data file owns one DECODED_CELL_BUDGET cache,
        # which leaves with the slice.
        cells = dict.fromkeys(("hits", "misses", "bytes", "entries"), 0)
        for s in slices:
            stats = s.index.data.cells.stats()
            for name in cells:
                cells[name] += stats[name]
        return {
            "slices": len(slices),
            "sealed_slices": sum(1 for s in slices if s.sealed),
            "hot_docs": hot_docs,
            "sealed_docs": self.num_documents - hot_docs,
            "sealed_bytes": sum(s.index.size_bytes for s in slices if s.sealed),
            "documents": self.num_documents,
            "retention_drops": self.retention_drops,
            "dropped_documents": self.dropped_documents,
            "queries": self.queries,
            "slices_scanned": self.slices_scanned,
            "skip_ratio": self.skip_ratio,
            **{f"decoded_cell_{name}": n for name, n in cells.items()},
        }

    def bind_metrics(self, registry, read=None) -> None:
        """Publish ``slice_stats()`` as ``temporal_*`` gauges, collected
        (into ``collected_stats`` too) whenever the registry is read, so
        a write or a query pays nothing for them.  ``read(fn)`` runs
        ``fn(self)`` excluding writers, which change what the stats walk.
        """
        for key, help_text in _GAUGES.items():
            if help_text is not None:
                registry.describe(f"temporal_{key}", help_text)

        def collect() -> None:
            walk = TemporalIndex.slice_stats
            stats = self.collected_stats = walk(self) if read is None else read(walk)
            for key in _GAUGES:
                registry.gauge(f"temporal_{key}").set(stats[key])

        registry.on_collect(collect)

    def check_invariants(self) -> None:
        """Structural invariants, used by tests and the simulation."""
        seen: Dict[int, int] = {}
        total = 0
        for sid, s in self._slices.items():
            start, end = slice_span(sid, self.config.slice_width)
            assert (s.start, s.end) == (start, end)
            for doc_id, tdoc in s.docs.items():
                owner = slice_of(tdoc.timestamp, self.config.slice_width)
                assert owner == sid, (
                    f"doc {doc_id} ts {tdoc.timestamp} lives in slice {sid}, "
                    f"belongs to {owner}"
                )
                assert doc_id not in seen, (
                    f"doc {doc_id} present in slices {seen[doc_id]} and {sid}"
                )
                seen[doc_id] = sid
                if s.docs:
                    assert s.min_ts <= tdoc.timestamp <= s.max_ts
            total += len(s.docs)
            s.index.check_invariants()
        assert total == self.num_documents, (
            f"document count {self.num_documents} != slice total {total}"
        )
