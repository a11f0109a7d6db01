"""Unit tests for the temporal subsystem: model types, slice
lifecycle (hot -> sealed -> dropped), retention semantics, durability
round-trips, and mutation events.

The cross-oracle answer checks live in ``test_temporal_equivalence``;
this file pins the *mechanics* those checks rest on.
"""

import contextlib
import json
import math
import random

import pytest

from repro.core.index import I3Index
from repro.core.kwcells import DECODED_CELL_BUDGET
from repro.core.recovery import wal_body
from repro.model.document import SpatialDocument, document_to_record
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.service import QueryService, ServiceConfig
from repro.service.metrics import MetricsRegistry
from repro.simtest.simfs import SimFileSystem, SimulatedCrash
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.errors import CorruptionError, WalCorruptionError
from repro.storage.iostats import IOStats
from repro.storage.records import f32
from repro.storage.wal import WAL_INSERT, WAL_UPDATE, WriteAheadLog
from repro.temporal import (
    NaiveTemporalIndex,
    RecencySpec,
    TemporalConfig,
    TemporalDocument,
    TemporalIndex,
    TemporalQuery,
    TimeRange,
    recency_weight,
    slice_of,
    slice_span,
)
from repro.temporal.index import MANIFEST_NAME, META_NAME, WAL_NAME

from tests.helpers import results_as_pairs


def tdoc(doc_id, ts, words=("cafe",), x=0.5, y=0.5):
    return TemporalDocument(
        SpatialDocument(doc_id, x, y, {w: f32(0.5) for w in words}), ts
    )


def build(docs, width=10.0, retention=None, **kw):
    return TemporalIndex.build(
        UNIT_SQUARE,
        docs,
        TemporalConfig(slice_width=width, retention_age=retention, page_size=256),
        **kw,
    )


# ----------------------------------------------------------------------
# Model types
# ----------------------------------------------------------------------
class TestModel:
    def test_time_range_is_half_open(self):
        tr = TimeRange(1.0, 2.0)
        assert tr.contains(1.0)
        assert not tr.contains(2.0)
        assert tr.overlaps_span(0.0, 1.5)
        assert not tr.overlaps_span(2.0, 3.0)  # [2, 3) starts at our end

    def test_time_range_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            TimeRange(2.0, 2.0)
        with pytest.raises(ValueError):
            TimeRange(0.0, math.inf)

    def test_recency_spec_validation(self):
        with pytest.raises(ValueError):
            RecencySpec(0.0, 0.0)
        with pytest.raises(ValueError):
            RecencySpec(1.0, math.nan)

    def test_recency_weight_halves_per_half_life(self):
        spec = RecencySpec(half_life=10.0, origin=100.0)
        assert recency_weight(spec, 100.0) == 1.0
        assert recency_weight(spec, 90.0) == pytest.approx(0.5)
        assert recency_weight(spec, 80.0) == pytest.approx(0.25)
        # Future documents clamp to weight 1, never amplify.
        assert recency_weight(spec, 200.0) == 1.0

    def test_slice_of_matches_span(self):
        for ts in (0.0, 9.999999, 10.0, -0.1, -10.0, 12345.678):
            sid = slice_of(ts, 10.0)
            lo, hi = slice_span(sid, 10.0)
            assert lo <= ts < hi

    def test_adjacent_spans_share_the_boundary(self):
        for sid in (-3, 0, 7):
            assert slice_span(sid, 7.5)[1] == slice_span(sid + 1, 7.5)[0]

    def test_temporal_query_delegates_to_base(self):
        base = TopKQuery(0.1, 0.2, ("cafe",), k=5, semantics=Semantics.OR)
        tq = TemporalQuery(base, TimeRange(0.0, 1.0))
        assert (tq.x, tq.y, tq.words, tq.k) == (0.1, 0.2, ("cafe",), 5)
        assert not tq.is_plain
        assert TemporalQuery(base).is_plain


# ----------------------------------------------------------------------
# Slice lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_documents_land_in_their_slice(self):
        index = build([tdoc(1, 3.0), tdoc(2, 13.0), tdoc(3, 17.0)])
        assert index.live_slice_ids() == [0, 1]
        assert index.num_documents == 3
        index.check_invariants()

    def test_advance_seals_passed_slices(self):
        index = build([tdoc(1, 3.0), tdoc(2, 13.0)])
        # The second insert moved the watermark to 13, past slice 0's
        # span end, so build already sealed it.
        assert index.hot_slice_ids() == [1]
        index.advance(25.0)
        assert index.hot_slice_ids() == []
        assert index.slice_stats()["sealed_slices"] == 2

    def test_watermark_never_goes_backwards(self):
        index = build([tdoc(1, 50.0)])
        index.advance(10.0)
        assert index.watermark == 50.0

    def test_late_arrival_into_sealed_slice_is_allowed(self):
        index = build([tdoc(1, 3.0)])
        index.advance(20.0)  # slice 0 sealed
        index.insert(tdoc(2, 5.0))  # late, same slice
        assert index.get(2) is not None
        index.check_invariants()

    def test_insert_behind_retention_horizon_is_refused(self):
        index = build([tdoc(1, 95.0)], retention=30.0)
        assert not index.accepts(10.0)
        with pytest.raises(ValueError, match="retention horizon"):
            index.insert(tdoc(2, 10.0))

    def test_duplicate_doc_id_is_refused(self):
        index = build([tdoc(1, 5.0)])
        with pytest.raises(ValueError, match="duplicate"):
            index.insert(tdoc(1, 6.0))

    def test_delete_and_update(self):
        index = build([tdoc(1, 5.0), tdoc(2, 15.0)])
        assert index.delete_document(1)
        assert not index.delete_document(1)
        index.update_document(2, tdoc(2, 16.0))
        assert index.get(2).timestamp == 16.0
        assert index.num_documents == 1


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
class TestRetention:
    def test_expire_drops_whole_slices(self):
        index = build(
            [tdoc(1, 5.0), tdoc(2, 15.0), tdoc(3, 45.0)], retention=20.0
        )
        dropped = index.expire(50.0)
        # Horizon 30: slice 0 (ends 10) and slice 1 (ends 20) expire.
        assert dropped == [0, 1]
        assert index.get(1) is None and index.get(2) is None
        assert index.get(3) is not None
        assert index.retention_drops == 2
        assert index.dropped_documents == 2
        index.check_invariants()

    def test_expire_matches_oracle(self):
        docs = [tdoc(i, float(i * 7 % 60), words=("cafe", "bar")) for i in range(20)]
        index = build(docs, retention=25.0)
        oracle = NaiveTemporalIndex(UNIT_SQUARE, 10.0, 25.0)
        for d in docs:
            oracle.insert(d)
        index.expire(70.0)
        expired = set(oracle.expire(70.0))
        for d in docs:
            assert (index.get(d.doc_id) is None) == (d.doc_id in expired)

    def test_expire_without_retention_is_a_noop(self):
        index = build([tdoc(1, 5.0)])
        assert index.expire(1e9) == []
        assert index.get(1) is not None

    def test_expire_bumps_epoch(self):
        index = build([tdoc(1, 5.0), tdoc(2, 45.0)], retention=20.0)
        before = index.epoch
        index.expire(50.0)
        assert index.epoch > before

    def test_retention_never_runs_document_deletes(self):
        """The headline property: expiry is slice-grained — the
        per-document delete path is never entered."""
        index = build([tdoc(i, float(i)) for i in range(30)], retention=10.0)
        calls = []
        for s in index._slices.values():
            original = s.index.delete_document
            s.index.delete_document = (
                lambda ref, _orig=original: calls.append(ref) or _orig(ref)
            )
        index.expire(60.0)
        assert index.num_documents < 30
        assert calls == []

    def test_drop_events_emitted_only_with_listeners(self):
        index = build([tdoc(1, 5.0), tdoc(2, 45.0)], retention=20.0)
        events = []
        index.add_mutation_listener(events.append)
        index.expire(50.0)
        deletes = [e for e in events if e.kind == "delete"]
        assert [e.doc.doc_id for e in deletes] == [1]


# ----------------------------------------------------------------------
# Queries and pruning evidence
# ----------------------------------------------------------------------
class TestDecodedCellMemory:
    """Each slice's data file owns one decoded-cell budget; the temporal
    store reports the sum and gives a dropped slice's share back."""

    def test_bytes_are_bounded_reported_and_returned_by_expire(self):
        index = build(
            [tdoc(i, float(i), words=("cafe", "bar")) for i in range(40)],
            retention=20.0,
        )
        registry = MetricsRegistry()
        index.bind_metrics(registry)

        def gauge():  # collected when the registry is read
            return registry.as_dict()["gauges"]["temporal_decoded_cell_bytes"]

        assert gauge() == 0
        index.query(TopKQuery(0.5, 0.5, ("cafe", "bar"), k=40))
        stats = index.slice_stats()
        held = stats["decoded_cell_bytes"]
        assert held <= DECODED_CELL_BUDGET * stats["slices"]
        assert gauge() == held  # current after a query, not only a write
        oldest = index._slices[index.live_slice_ids()[0]].index.data.cells
        share = oldest.stats()["bytes"]
        assert held > 0 and stats["decoded_cell_entries"] > 0
        assert share > 0
        assert index.expire(now=45.0) == [0, 1]
        after = index.slice_stats()["decoded_cell_bytes"]
        assert after <= held - share
        assert gauge() == after


class TestQuery:
    def test_plain_query_covers_all_time(self):
        index = build([tdoc(1, 5.0), tdoc(2, 500.0)])
        got = results_as_pairs(
            index.query(TopKQuery(0.5, 0.5, ("cafe",), k=10), Ranker(UNIT_SQUARE))
        )
        assert sorted(p[0] for p in got) == [1, 2]

    def test_time_range_filters_slices_and_documents(self):
        index = build([tdoc(1, 5.0), tdoc(2, 9.0), tdoc(3, 15.0), tdoc(4, 25.0)])
        tq = TemporalQuery(
            TopKQuery(0.5, 0.5, ("cafe",), k=10), TimeRange(6.0, 12.0)
        )
        got = results_as_pairs(index.query(tq, Ranker(UNIT_SQUARE)))
        # Doc 1 (ts 5) is filtered document-level: its slice [0, 10)
        # overlaps [6, 12) so the slice is scanned, the doc is not in
        # range.  Doc 3's slice [10, 20) also overlaps; doc 4's slice
        # [20, 30) does not and is rejected wholesale.
        assert [p[0] for p in got] == [2]
        assert index.last_query_stats["outside_range"] == 1

    def test_out_of_range_query_scans_nothing(self):
        index = build([tdoc(1, 5.0)])
        tq = TemporalQuery(
            TopKQuery(0.5, 0.5, ("cafe",), k=10), TimeRange(100.0, 200.0)
        )
        assert index.query(tq, Ranker(UNIT_SQUARE)) == []
        assert index.last_query_stats["scanned"] == 0

    def test_unmatched_keywords_skip_slices(self):
        index = build([tdoc(1, 5.0, words=("bar",)), tdoc(2, 15.0)])
        index.query(TopKQuery(0.5, 0.5, ("cafe",), k=10), Ranker(UNIT_SQUARE))
        assert index.last_query_stats["unmatched"] == 1

    def test_query_cache_serves_repeats_and_invalidates(self):
        index = build([tdoc(i, float(i), words=("cafe", "bar")) for i in range(10)])
        tq = TemporalQuery(
            TopKQuery(0.5, 0.5, ("cafe",), k=3),
            recency=RecencySpec(5.0, 10.0),
        )
        config = ServiceConfig(cache_capacity=8)
        with QueryService(index, config, ranker=Ranker(UNIT_SQUARE)) as service:
            first = results_as_pairs(service.search(tq))
            scanned = index.slices_scanned
            assert results_as_pairs(service.search(tq)) == first
            assert index.slices_scanned == scanned  # served from cache
            # A mutation bumps the epoch, so the same key recomputes.
            service.insert(tdoc(99, 9.5, words=("cafe",)))
            refreshed = results_as_pairs(service.search(tq))
        assert any(p[0] == 99 for p in refreshed)

    def test_every_slice_scan_reads_through_the_decoded_cell_cache(self):
        """Each slice is scanned by its index's ``iter_query``: every
        keyword cell is asked of that slice's decoded-cell cache, and a
        repeat of the query finds the cells decoded."""
        index = build([tdoc(i, float(i), words=("cafe", "bar")) for i in range(30)])
        query = TopKQuery(0.5, 0.5, ("cafe", "bar"), k=30)

        def lookups():
            stats = index.slice_stats()
            return stats["decoded_cell_hits"], stats["decoded_cell_misses"]

        assert lookups() == (0, 0)
        first = index.query(query)
        hits, misses = lookups()
        assert misses > 0
        assert index.query(query) == first
        assert lookups() == (hits + misses, misses)

    def test_upper_bound_is_admissible(self):
        index = build(
            [tdoc(i, float(i * 3), words=("cafe", "bar")) for i in range(15)]
        )
        ranker = Ranker(UNIT_SQUARE)
        for tq in (
            TemporalQuery(TopKQuery(0.2, 0.8, ("cafe",), k=4)),
            TemporalQuery(
                TopKQuery(0.7, 0.1, ("cafe", "bar"), k=4),
                TimeRange(5.0, 30.0),
                RecencySpec(10.0, 40.0),
            ),
        ):
            # The bounds the slice loop ranks and prunes by: every
            # answer must score no higher than its own slice's bound.
            ranked, _outside, _unmatched = index._slice_candidates(tq, ranker)
            bound_of = {sid: bound for bound, sid, _slice, _decay in ranked}
            results = index.query(tq, ranker)
            assert results
            for sd in results:
                sid = slice_of(index.get(sd.doc_id).timestamp, 10.0)
                assert sd.score <= bound_of[sid]


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
class TestDurability:
    def make_durable(self, fs, retention=None):
        docs = [
            tdoc(i, float(i * 4), words=("cafe", "bar") if i % 2 else ("cafe",))
            for i in range(12)
        ]
        index = TemporalIndex.build(
            UNIT_SQUARE,
            docs,
            TemporalConfig(slice_width=10.0, retention_age=retention, page_size=256),
            durable_root="troot",
            fs=fs,
        )
        return index, docs

    def test_checkpoint_open_round_trip(self):
        fs = SimFileSystem()
        index, docs = self.make_durable(fs)
        index.advance(60.0)
        index.checkpoint()
        index.close()
        reopened = TemporalIndex.open("troot", fs=fs)
        assert reopened.num_documents == len(docs)
        assert reopened.watermark == 60.0
        ranker = Ranker(UNIT_SQUARE)
        probe = TopKQuery(0.5, 0.5, ("cafe",), k=20)
        assert results_as_pairs(reopened.query(probe, ranker)) == results_as_pairs(
            index.query(probe, ranker)
        )
        reopened.check_invariants()

    def test_late_arrival_survives_recheckpoint(self):
        fs = SimFileSystem()
        index, _ = self.make_durable(fs)
        index.advance(60.0)
        index.checkpoint()
        index.insert(tdoc(100, 7.5))  # late write into a sealed slice
        index.checkpoint()
        index.close()
        reopened = TemporalIndex.open("troot", fs=fs)
        assert reopened.get(100) is not None

    def test_open_after_retention(self):
        fs = SimFileSystem()
        index, _ = self.make_durable(fs, retention=20.0)
        index.advance(60.0)
        index.checkpoint()
        dropped = index.expire()
        assert dropped
        index.close()
        reopened = TemporalIndex.open("troot", fs=fs)
        assert reopened.live_slice_ids() == index.live_slice_ids()
        for sid in dropped:
            assert not fs.exists(f"troot/slice-{sid}/{META_NAME}")

    def test_uncompacted_insert_recovers_from_the_log(self):
        """Log first: an insert no checkpoint has folded into its slice's
        base reappears from the slice's write-ahead log, in a sealed
        slice and in the hot one alike, and a write costs one appended
        record, not a rewrite of the base."""
        fs = SimFileSystem()
        index, docs = self.make_durable(fs)
        index.advance(60.0)
        index.checkpoint()
        meta = fs.read_bytes(f"troot/slice-1/{META_NAME}")
        index.insert(tdoc(200, 15.5))  # late, into sealed slice 1
        index.insert(tdoc(201, 65.0))  # into a new hot slice
        assert fs.read_bytes(f"troot/slice-1/{META_NAME}") == meta
        # No checkpoint after the inserts: simulate the process dying
        # here by just reopening from what is on "disk".
        reopened = TemporalIndex.open("troot", fs=fs)
        assert reopened.get(200) is not None and reopened.get(201) is not None
        assert reopened.num_documents == len(docs) + 2
        reopened.check_invariants()

    def test_open_rejects_non_temporal_root(self):
        fs = SimFileSystem()
        fs.makedirs("empty")
        with pytest.raises(FileNotFoundError, match=MANIFEST_NAME):
            TemporalIndex.open("empty", fs=fs)

    # One damaged field per case, in the manifest, in a sidecar, or in
    # the sidecar's first document record; DROP deletes the field.
    DROP = object()
    DAMAGE = [
        (MANIFEST_NAME, "config", DROP),
        (MANIFEST_NAME, "watermark", "60"),
        (MANIFEST_NAME, "slices", DROP),
        (META_NAME, "lsn", DROP),
        (META_NAME, "sealed", "yes"),
        (META_NAME, "docs", {}),
        (META_NAME, "id", "7"),
        (META_NAME, "x", DROP),
        (META_NAME, "y", True),
        (META_NAME, "terms", ["cafe"]),
        (META_NAME, "ts", "5"),
    ]

    @pytest.mark.parametrize(
        "name, field, value", DAMAGE, ids=[f"{n}:{f}" for n, f, _ in DAMAGE]
    )
    def test_a_damaged_field_is_a_corruption_error(self, name, field, value):
        fs = SimFileSystem()
        index, _ = self.make_durable(fs)
        index.checkpoint()
        path = f"troot/{name}" if name == MANIFEST_NAME else f"troot/slice-0/{name}"
        with fs.open(path, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8"))
        record = field in ("id", "x", "y", "terms", "ts")
        target = payload["docs"][0] if record else payload
        if value is self.DROP:
            del target[field]
        else:
            target[field] = value
        with fs.open(path, "wb") as fh:
            fh.write(json.dumps(payload).encode("utf-8"))
        with pytest.raises(CorruptionError) as info:
            TemporalIndex.open("troot", fs=fs)
        assert info.value.offset is None
        assert str(info.value).startswith(f"{path}: ")
        assert f"{'document ' if record else ''}{field}" in str(info.value)

    # Bodies a slice's log cannot replay: an update (a slice logs inserts
    # and deletes only), an insert without its ts, a truncated body, a
    # document outside the data space.
    UNREPLAYABLE = {
        "update": (WAL_UPDATE, lambda r: wal_body([r, r])),
        "outside the space": (WAL_INSERT, lambda r: wal_body({**r, "x": 1.5})),
        "no ts": (WAL_INSERT, lambda r: wal_body({k: v for k, v in r.items() if k != "ts"})),
        "truncated": (WAL_INSERT, lambda r: wal_body(r)[:-2]),
    }

    @pytest.mark.parametrize("case", sorted(UNREPLAYABLE))
    def test_a_log_record_that_does_not_replay_names_its_offset(self, case):
        fs = SimFileSystem()
        index, _ = self.make_durable(fs)
        index.insert(tdoc(300, 45.5))  # logged in hot slice 4
        index.close()
        path = f"troot/slice-4/{WAL_NAME}"
        end = len(fs.read_bytes(path))
        rec_type, body = self.UNREPLAYABLE[case]
        wal, _ = WriteAheadLog.open(path, fs=fs)
        wal.append(rec_type, body(document_to_record(tdoc(301, 46.0).doc, 46.0)))
        wal.close()
        with pytest.raises(WalCorruptionError, match="does not replay") as info:
            TemporalIndex.open("troot", fs=fs)
        assert info.value.offset == end

    def test_an_insert_outside_the_space_never_enters_the_log(self):
        """The space is checked before the record is logged (or a slice
        made for it), so a refused insert leaves nothing that a reopen
        without a checkpoint would fail to replay."""
        fs = SimFileSystem()
        index, docs = self.make_durable(fs)
        index.insert(tdoc(300, 45.5))  # logged in hot slice 4
        for doc_id, ts in ((301, 46.0), (302, 75.0)):  # 75.0: a new slice
            with pytest.raises(ValueError, match="outside the data space"):
                index.insert(tdoc(doc_id, ts, x=1.5))
        assert index.live_slice_ids() == [0, 1, 2, 3, 4]
        reopened = TemporalIndex.open("troot", fs=fs)
        assert reopened.num_documents == len(docs) + 1
        assert reopened.get(300) is not None and reopened.get(301) is None
        reopened.check_invariants()

    def test_a_durable_build_writes_each_slice_once(self):
        """A build loads its slices in memory and puts each on disk in
        one go (base, then manifest, then snapshots), with no log: its
        fsyncs count slices, not documents.  Wherever a crash cuts it,
        the root is either not yet a store or holds every document."""
        fs = SimFileSystem()
        index, docs = self.make_durable(fs)
        slices = len(index.live_slice_ids())
        fsyncs = [op for op in fs.trace if op.startswith("fsync ")]
        assert len(fsyncs) == len(set(fsyncs)) == 2 * slices + 1
        assert not any(op.endswith(WAL_NAME) for op in fs.trace)
        for crash_at in range(1, fs.ops + 1):
            fs = SimFileSystem()
            fs.schedule_crash(crash_at)
            with pytest.raises(SimulatedCrash):
                self.make_durable(fs)
            fs.crash(random.Random(crash_at))
            if not fs.exists(f"troot/{MANIFEST_NAME}"):
                continue
            reopened = TemporalIndex.open("troot", fs=fs)
            assert reopened.num_documents == len(docs), crash_at
            reopened.check_invariants()

    def test_only_slices_being_written_hold_a_log(self):
        """A slice opens its log at its first write past its base and
        closes it when it is compacted, so sealed slices hold no file
        handle however many there are."""
        fs = SimFileSystem()
        index, docs = self.make_durable(fs)

        def logging(ix):
            return sorted(sid for sid, s in ix._slices.items() if s.log is not None)

        assert logging(index) == []
        index.insert(tdoc(300, 45.5))  # hot slice 4
        index.insert(tdoc(301, 7.5))  # late, into sealed slice 0
        assert logging(index) == [0, 4]
        index.advance(60.0)  # seals, so compacts, slice 4
        assert logging(index) == [0]
        index.checkpoint()
        assert logging(index) == []
        index.insert(tdoc(302, 65.0))  # hot slice 6
        index.insert(tdoc(303, 8.5))  # slice 0 begins a fresh log
        reopened = TemporalIndex.open("troot", fs=fs)
        assert logging(reopened) == [0, 6]
        assert reopened.num_documents == len(docs) + 4
        reopened.check_invariants()

    def test_manifest_is_valid_json_listing_slices(self):
        fs = SimFileSystem()
        index, _ = self.make_durable(fs)
        index.checkpoint()
        with fs.open(f"troot/{MANIFEST_NAME}", "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
        assert sorted(int(s) for s in manifest["slices"]) == index.live_slice_ids()
        assert manifest["config"]["slice_width"] == 10.0

    def test_reopened_slices_count_io(self):
        """A slice opened from its snapshot reads through the index's
        shared IOStats, so a query's ``io_sink`` sees its page reads
        after a reopen exactly as before it (each query runs with every
        slice's decoded cells dropped, so it reads pages)."""
        fs = SimFileSystem()
        docs = [
            tdoc(i, float(i * 4), words=("cafe", "bar") if i % 3 else ("cafe",),
                 x=(i * 0.37) % 1.0, y=(i * 0.61) % 1.0)
            for i in range(40)
        ]
        built = TemporalIndex.build(
            UNIT_SQUARE, docs, TemporalConfig(slice_width=10.0, page_size=256),
            durable_root="troot", fs=fs,
        )
        built.checkpoint()
        reopened = TemporalIndex.open("troot", fs=fs)
        assert len(reopened.live_slice_ids()) == 16
        ranker = Ranker(UNIT_SQUARE)
        probe = TopKQuery(0.3, 0.6, ("cafe", "bar"), k=5)

        def reads(index):
            counts = []
            for _ in range(4):
                for sid in index.live_slice_ids():
                    index._slices[sid].index.clear_cache()
                sink = IOStats()
                index.query(probe, ranker, io_sink=sink)
                counts.append(sink.reads())
            return counts

        built_reads, reopened_reads = reads(built), reads(reopened)
        assert built_reads[1] > 0
        assert reopened_reads[1:] == built_reads[1:]
        assert reopened_reads[0] >= built_reads[0]  # first-touch reads
        assert reopened.stats.reads() > 0

    def test_first_write_clears_leftover_slice_files(self):
        """Files an unlisted slice left behind (a base, a log and a
        snapshot, as a crash before a new slice's manifest could leave
        them) never stand in for a re-created slice of the same id,
        wherever a crash cuts that slice's first writes or its
        compaction: every reopen answers like the naive oracle over the
        documents it reopened."""
        config = TemporalConfig(slice_width=10.0, page_size=256)
        old = [tdoc(i, 1.0 + i, words=("cafe",), x=0.1 * i, y=0.2) for i in range(1, 5)]
        new = [tdoc(10 + i, 2.0 + i, words=("cafe", "bar"), x=0.9 - 0.1 * i, y=0.8)
               for i in range(3)]

        def leftovers():
            fs = SimFileSystem()
            TemporalIndex.build(
                UNIT_SQUARE, old, config, durable_root="troot", fs=fs
            ).checkpoint()
            index = TemporalIndex(UNIT_SQUARE, config, durable_root="troot", fs=fs)
            index.checkpoint()  # a manifest that no longer lists slice 0
            return fs, index

        def rewrite(index):
            for t in new:
                index.insert(t)
            index.checkpoint()

        fs, index = leftovers()
        start = fs.ops
        rewrite(index)
        total = fs.ops - start
        ranker = Ranker(UNIT_SQUARE)
        probes = [TopKQuery(x, 0.5, ("cafe",), k=3) for x in (0.1, 0.5, 0.9)]
        for crash_at in range(1, total + 2):
            fs, index = leftovers()
            fs.schedule_crash(crash_at)
            with contextlib.suppress(SimulatedCrash):
                rewrite(index)
            fs.crash(random.Random(crash_at))
            reopened = TemporalIndex.open("troot", fs=fs)
            reopened.check_invariants()
            oracle = NaiveTemporalIndex(UNIT_SQUARE, 10.0)
            for t in old + new:
                if reopened.get(t.doc_id) is not None:
                    oracle.insert(reopened.get(t.doc_id))
            assert all(reopened.get(t.doc_id) is None for t in old), crash_at
            for probe in probes:
                assert results_as_pairs(reopened.query(probe, ranker)) == (
                    results_as_pairs(oracle.query(probe, ranker))
                ), crash_at


# ----------------------------------------------------------------------
# I3-shaped integration surface
# ----------------------------------------------------------------------
class TestIndexSurface:
    def test_keyword_bounds_cover_all_slices(self):
        index = build([tdoc(1, 5.0), tdoc(2, 500.0, words=("bar",))])
        flat = I3Index(UNIT_SQUARE, page_size=256)
        for d in (tdoc(1, 5.0), tdoc(2, 500.0, words=("bar",))):
            flat.insert_document(d.doc)
        for word in ("cafe", "bar", "missing"):
            assert index.keyword_bound(word) == flat.keyword_bound(word)
        assert index.keyword_bounds(["cafe", "bar"]) == flat.keyword_bounds(
            ["cafe", "bar"]
        )

    def test_mutation_events_for_insert_delete(self):
        index = build([])
        events = []
        index.add_mutation_listener(events.append)
        index.insert(tdoc(1, 5.0))
        index.delete_document(1)
        assert [e.kind for e in events] == ["insert", "delete"]
        epochs = [e.epoch for e in events]
        assert epochs == sorted(epochs)
        index.remove_mutation_listener(events.append)
        index.insert(tdoc(2, 6.0))
        assert len(events) == 2
