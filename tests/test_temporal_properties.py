"""Property-based tests (hypothesis) for the temporal subsystem.

Four load-bearing properties:

1. **slice-boundary assignment** — every finite timestamp belongs to
   exactly one slice: ``slice_of`` lands inside its own span, and no
   neighbouring span claims the same timestamp (spans partition the
   time line even at one-ulp float boundaries);
2. **seal/drop round-trip** — sealing and checkpointing never lose a
   document, and a retention pass removes exactly the documents whose
   slice span has aged out, nothing else;
3. **recency monotonicity** — at equal relevance an older document
   never scores higher: the decay weight is monotone non-decreasing in
   the timestamp and always in ``(0, 1]``;
4. **routed-bound admissibility** — over temporal shards the cluster
   router never ranks a shard below a document it holds, and never
   counts a shard absent that holds a qualifying document, whatever
   the placement and whether the query carries a range, a decay, both
   or neither.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.cluster import HashPartitioner, SpatialGridPartitioner
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.simtest.simfs import SimFileSystem
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
    recency_weight,
    slice_of,
    slice_span,
)

from tests.helpers import results_as_pairs, temporal_cluster

timestamps = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
widths = st.floats(
    min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)
small_words = st.sampled_from(["a", "b", "c", "d"])
weights = st.floats(min_value=0.01, max_value=1.0, allow_nan=False).map(f32)
coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, exclude_max=True)


# ----------------------------------------------------------------------
# 1. Slice-boundary assignment
# ----------------------------------------------------------------------
@given(ts=timestamps, width=widths)
def test_every_timestamp_has_exactly_one_slice(ts, width):
    sid = slice_of(ts, width)
    lo, hi = slice_span(sid, width)
    assert lo <= ts < hi
    # No neighbour claims it: being < our hi means not >= their lo, and
    # the shared-boundary expressions make the two literally equal.
    assert slice_span(sid + 1, width)[0] == hi
    assert slice_span(sid - 1, width)[1] == lo


@given(ts=timestamps, width=widths)
def test_boundary_timestamps_open_the_next_slice(ts, width):
    sid = slice_of(ts, width)
    _, hi = slice_span(sid, width)
    if math.isfinite(hi):
        assert slice_of(hi, width) == sid + 1 or slice_span(
            slice_of(hi, width), width
        )[0] <= hi < slice_span(slice_of(hi, width), width)[1]


# ----------------------------------------------------------------------
# 2. Seal / drop round-trip
# ----------------------------------------------------------------------
@st.composite
def temporal_corpora(draw, max_docs=25):
    n = draw(st.integers(min_value=1, max_value=max_docs))
    docs = []
    for doc_id in range(n):
        terms = draw(
            st.dictionaries(small_words, weights, min_size=1, max_size=3)
        )
        ts = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
        docs.append(
            TemporalDocument(
                SpatialDocument(doc_id, draw(coords), draw(coords), terms), ts
            )
        )
    return docs


@settings(max_examples=40, deadline=None)
@given(docs=temporal_corpora(), width=st.sampled_from([7.0, 10.0, 33.3]))
def test_seal_checkpoint_round_trip_loses_nothing(docs, width):
    fs = SimFileSystem()
    index = TemporalIndex.build(
        UNIT_SQUARE,
        docs,
        TemporalConfig(slice_width=width, page_size=256),
        durable_root="proot",
        fs=fs,
    )
    index.advance(200.0)  # seal every slice
    index.checkpoint()
    index.close()
    reopened = TemporalIndex.open("proot", fs=fs)
    assert reopened.num_documents == len(docs)
    for tdoc in docs:
        got = reopened.get(tdoc.doc_id)
        assert got is not None and got.timestamp == tdoc.timestamp
    reopened.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    docs=temporal_corpora(),
    width=st.sampled_from([7.0, 10.0, 33.3]),
    retention=st.sampled_from([20.0, 50.0]),
    now=st.floats(min_value=100.0, max_value=300.0, allow_nan=False),
)
def test_retention_drops_exactly_the_aged_out_slices(docs, width, retention, now):
    index = TemporalIndex.build(
        UNIT_SQUARE,
        docs,
        TemporalConfig(slice_width=width, retention_age=retention, page_size=256),
    )
    index.expire(now)
    cutoff = index.watermark - retention
    for tdoc in docs:
        expired = slice_span(slice_of(tdoc.timestamp, width), width)[1] <= cutoff
        assert (index.get(tdoc.doc_id) is None) == expired
    index.check_invariants()


# ----------------------------------------------------------------------
# 3. Recency monotonicity
# ----------------------------------------------------------------------
recency_specs = st.builds(
    RecencySpec,
    half_life=st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
    origin=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)
bounded_ts = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@given(spec=recency_specs, ts_a=bounded_ts, ts_b=bounded_ts)
def test_older_never_outweighs_newer(spec, ts_a, ts_b):
    older, newer = min(ts_a, ts_b), max(ts_a, ts_b)
    w_old = recency_weight(spec, older)
    w_new = recency_weight(spec, newer)
    assert w_old <= w_new
    # Mathematically (0, 1]; extreme age/half-life ratios underflow the
    # float to exactly 0.0, which is still an admissible multiplier.
    assert 0.0 <= w_old <= 1.0 and 0.0 <= w_new <= 1.0


@given(spec=recency_specs, ts=bounded_ts)
def test_future_documents_clamp_to_one(spec, ts):
    if ts >= spec.origin:
        assert recency_weight(spec, ts) == 1.0


@settings(max_examples=30, deadline=None)
@given(
    docs=temporal_corpora(max_docs=15),
    half_life=st.sampled_from([5.0, 25.0]),
    origin=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
)
def test_equal_relevance_orders_by_recency(docs, half_life, origin):
    """With identical location and terms, ranking under a recency spec
    is exactly newest-first (doc-id tie-break on equal timestamps)."""
    clones = [
        TemporalDocument(
            SpatialDocument(t.doc_id, 0.25, 0.75, {"a": f32(0.5)}), t.timestamp
        )
        for t in docs
    ]
    index = TemporalIndex.build(
        UNIT_SQUARE, clones, TemporalConfig(slice_width=10.0, page_size=256)
    )
    tq = TemporalQuery(
        TopKQuery(0.25, 0.75, ("a",), k=len(clones)),
        recency=RecencySpec(half_life, origin),
    )
    results = index.query(tq, Ranker(UNIT_SQUARE))
    # Ranking must be weight-descending.  (Comparing raw timestamps
    # would be too strong: timestamps so close their decay weights are
    # the same float legitimately tie and fall back to the doc-id
    # tie-break.)
    spec = RecencySpec(half_life, origin)
    ranked_w = [
        recency_weight(spec, index.get(sd.doc_id).timestamp)
        for sd in results
    ]
    assert ranked_w == sorted(ranked_w, reverse=True)


# ----------------------------------------------------------------------
# Oracle equivalence over arbitrary corpora (mini, randomized shapes)
# ----------------------------------------------------------------------
@st.composite
def temporal_queries(draw):
    """Range, recency, both or neither, over the corpora's time span."""
    words = tuple(sorted(draw(st.sets(small_words, min_size=1, max_size=3))))
    base = TopKQuery(
        draw(coords), draw(coords), words,
        k=draw(st.integers(min_value=1, max_value=8)),
        semantics=draw(st.sampled_from(list(Semantics))),
    )
    start = draw(st.floats(min_value=-10.0, max_value=90.0, allow_nan=False))
    return TemporalQuery(
        base,
        time_range=draw(st.one_of(
            st.none(),
            st.just(TimeRange(start, start + draw(
                st.floats(min_value=1.0, max_value=60.0, allow_nan=False)
            ))),
        )),
        recency=draw(st.one_of(st.none(), st.just(
            RecencySpec(
                draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False)),
                draw(st.floats(min_value=0.0, max_value=120.0, allow_nan=False)),
            )
        ))),
    )


@settings(max_examples=40, deadline=None)
@given(docs=temporal_corpora(), tq=temporal_queries())
def test_arbitrary_corpus_matches_oracle(docs, tq):
    index = TemporalIndex.build(
        UNIT_SQUARE, docs, TemporalConfig(slice_width=10.0, page_size=256)
    )
    oracle = NaiveTemporalIndex(UNIT_SQUARE, 10.0)
    for tdoc in docs:
        oracle.insert(tdoc)
    ranker = Ranker(UNIT_SQUARE)
    assert results_as_pairs(index.query(tq, ranker)) == results_as_pairs(
        oracle.query(tq, ranker)
    )


# ----------------------------------------------------------------------
# 4. Routed-bound admissibility over temporal shards
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    docs=temporal_corpora(),
    tq=temporal_queries(),
    placement=st.sampled_from(["hash", "grid"]),
    num_shards=st.integers(min_value=1, max_value=4),
)
def test_routed_bound_is_admissible_for_temporal_shards(
    docs, tq, placement, num_shards
):
    partitioner = (
        HashPartitioner(num_shards, UNIT_SQUARE)
        if placement == "hash"
        else SpatialGridPartitioner.from_documents(
            num_shards, UNIT_SQUARE, docs, leaf_capacity=3
        )
    )
    with temporal_cluster(
        docs, partitioner, TemporalConfig(slice_width=10.0, page_size=256)
    ) as cluster:
        ranked, absent, dead = cluster._route(tq)
        assert not dead
        assert len(ranked) + absent == num_shards
        bound_of = {sid: bound for bound, sid in ranked}
        for tdoc in docs:
            if tq.time_range is not None and not tq.time_range.contains(
                tdoc.timestamp
            ):
                continue
            score = cluster.ranker.score_document(tq.base, tdoc.doc)
            if score is None:
                continue
            if tq.recency is not None:
                score *= recency_weight(tq.recency, tdoc.timestamp)
            # A qualifying document: its shard was ranked (not counted
            # absent), at a bound the document cannot exceed.
            assert score <= bound_of[partitioner.shard_of(tdoc)]
