"""The temporal crash-point matrix: kill a durable temporal index at
*every* file operation and prove the reopened index holds exactly what
was acknowledged.

One scripted run — a build by oldest-first inserts, a checkpoint, late
inserts and deletes into sealed slices, ``advance``, ``expire`` and a
re-checkpoint — runs once uncrashed on a :class:`SimFileSystem` to learn
its operation count and the acknowledged state after every step, then
once per crash point: the filesystem dies before the Nth write, fsync
or rename (appends to a slice's ``wal.log`` among them), and
:meth:`SimFileSystem.crash` decides which unsynced bytes survive, tearing
a record mid-append or not, and :meth:`TemporalIndex.open` reopens what
is left.  After every reopen:

* every acknowledged document is present, with its timestamp: each
  insert is in its slice's write-ahead log, fsynced, before the call
  returns, hot slice included;
* no acknowledged delete or retention drop comes back;
* ``check_invariants()`` holds;
* every answer to a query bank equals a :class:`NaiveTemporalIndex`
  built over the reopened documents.  That check reads the slice
  snapshots (candidates) against the bases and logs (documents), so it
  is the one that notices a stale snapshot standing in for them.
"""

import random

import pytest

from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.simtest.simfs import SimFileSystem, SimulatedCrash
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.records import f32
from repro.temporal import (
    NaiveTemporalIndex,
    RecencySpec,
    TemporalConfig,
    TemporalDocument,
    TemporalIndex,
    TemporalQuery,
    TimeRange,
)
from repro.temporal.index import MANIFEST_NAME

from tests.helpers import results_as_pairs

pytestmark = pytest.mark.durability

ROOT = "troot"
WIDTH = 10.0
CONFIG = TemporalConfig(
    slice_width=WIDTH, retention_age=30.0, page_size=256, eta=16
)
VOCAB = ("cafe", "bar", "sushi", "pizza", "noodle", "grill")
RANKER = Ranker(UNIT_SQUARE, alpha=0.5)


def make_doc(rng, doc_id, ts):
    words = rng.sample(VOCAB, rng.randint(1, 3))
    terms = {w: f32(rng.uniform(0.1, 1.0)) for w in words}
    return TemporalDocument(
        SpatialDocument(doc_id, rng.random(), rng.random(), terms), ts
    )


def build_script():
    """``(op, arg)`` steps; the deletes name documents that live in
    slices sealed by then."""
    rng = random.Random(0x7E3D)
    initial = sorted(
        (make_doc(rng, i, round(rng.uniform(0.0, 60.0), 3)) for i in range(48)),
        key=lambda t: (t.timestamp, t.doc_id),
    )
    script = [("insert", t) for t in initial]  # the build: slices 0-4 seal
    script.append(("checkpoint", None))  # compacts hot slice 5 too
    late = [make_doc(rng, 100 + i, round(rng.uniform(30.0, 59.0), 3))
            for i in range(6)]
    script += [("insert", t) for t in late[:3]]
    victims = rng.sample([t.doc_id for t in initial], 4)
    script += [("delete", victims[0]), ("delete", victims[1])]
    script += [("insert", t) for t in late[3:]]
    script += [
        ("insert", make_doc(rng, 200, 65.0)),  # new slice 6; seals slice 5
        ("delete", victims[2]),
        ("advance", 75.0),  # seals slice 6
        ("insert", make_doc(rng, 201, 76.0)),  # new hot slice 7
        ("expire", None),  # horizon 45: slices 0-3 drop
        ("insert", make_doc(rng, 202, 55.0)),  # late, into sealed slice 5
        ("delete", victims[3]),
        ("checkpoint", None),
    ]
    return script


def build_queries():
    rng = random.Random(0x51CE)
    queries = []
    for i in range(12):
        words = tuple(rng.sample(VOCAB, rng.randint(1, 2)))
        semantics = Semantics.AND if i % 3 == 0 else Semantics.OR
        base = TopKQuery(rng.random(), rng.random(), words, k=5,
                         semantics=semantics)
        queries.append(base)
        start = rng.uniform(0.0, 50.0)
        queries.append(TemporalQuery(
            base,
            time_range=TimeRange(start, start + 25.0),
            recency=RecencySpec(half_life=20.0, origin=80.0),
        ))
    return queries


SCRIPT = build_script()
QUERIES = build_queries()
INSERTED = {t.doc_id: t.timestamp for op, t in SCRIPT if op == "insert"}


def apply(index, step):
    op, arg = step
    if op == "insert":
        index.insert(arg)
    elif op == "delete":
        index.delete_document(arg)
    elif op == "checkpoint":
        index.checkpoint()
    elif op == "advance":
        index.advance(arg)
    else:
        index.expire()


def run(fs, returned):
    """Run the script, appending each step's number once it returns."""
    index = TemporalIndex(UNIT_SQUARE, CONFIG, durable_root=ROOT, fs=fs)
    for number, step in enumerate(SCRIPT):
        apply(index, step)
        returned.append(number)


def acknowledged_states():
    """The uncrashed run: after each step, the acknowledged documents
    ``{id: ts}``, the documents gone for good, and the op count; also
    the run's operation trace."""
    fs = SimFileSystem()
    index = TemporalIndex(UNIT_SQUARE, CONFIG, durable_root=ROOT, fs=fs)
    seen = set()
    states = [({}, frozenset(), 0)]
    for step in SCRIPT:
        apply(index, step)
        live = {
            doc_id: index.get(doc_id).timestamp for doc_id in INSERTED
            if index.get(doc_id) is not None
        }
        seen |= set(live)
        states.append((live, frozenset(seen - set(live)), fs.ops))
    return states, fs.trace


def test_temporal_crash_matrix():
    states, trace = acknowledged_states()
    total_ops = states[-1][2]
    assert total_ops > len(SCRIPT)
    # Every logged mutation is a crash point inside a WAL append.
    appends = [op for op in trace if op.startswith("write ") and op.endswith("/wal.log")]
    assert len(appends) > len(SCRIPT)
    for crash_at in range(1, total_ops + 1):
        fs = SimFileSystem()
        fs.schedule_crash(crash_at)
        returned = []
        with pytest.raises(SimulatedCrash):
            run(fs, returned)
        fs.crash(random.Random(crash_at))
        done = len(returned)  # steps that returned before the crash
        durable, gone, _ = states[done]
        durable_after, _, _ = states[done + 1]
        context = (
            f"crash point {crash_at}/{total_ops} (before a "
            f"{fs.trace[crash_at - 1]}) inside step {done} {SCRIPT[done][0]}"
        )
        if not fs.exists(f"{ROOT}/{MANIFEST_NAME}"):
            assert not durable, context
            continue
        reopened = TemporalIndex.open(ROOT, fs=fs)
        reopened.check_invariants()
        back = {
            doc_id: reopened.get(doc_id).timestamp
            for doc_id in INSERTED if reopened.get(doc_id) is not None
        }
        for doc_id, ts in durable.items():
            # A document the interrupted step deletes or expires may
            # come back or not; every other durable one must.
            if doc_id in durable_after:
                assert back.get(doc_id) == ts, f"{context}: lost doc {doc_id}"
        assert not gone & set(back), f"{context}: deleted docs came back"
        assert all(INSERTED[d] == ts for d, ts in back.items()), context
        oracle = NaiveTemporalIndex(UNIT_SQUARE, WIDTH)
        for doc_id in back:
            oracle.insert(reopened.get(doc_id))
        for query in QUERIES:
            assert results_as_pairs(reopened.query(query, RANKER)) == (
                results_as_pairs(oracle.query(query, RANKER))
            ), f"{context}; query {query} diverged"
