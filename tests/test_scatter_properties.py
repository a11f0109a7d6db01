"""Property tests for the scatter deadline-slice arithmetic.

The cluster deadline is sliced across shard attempts by the pure
functions :func:`repro.cluster.attempt_budget` /
:func:`repro.cluster.slice_remaining` — the seam the ``stuck-scatter``
canary sabotages.  Three properties make a stall impossible by
construction: a non-expired slice is always positive, the slices any
walk consumes can never sum past the deadline, and once expired a
slice stays expired at every later time.  The integration test closes
the loop end to end: a cluster whose every replica is scripted to
stall (via :class:`repro.net.sim.SimShardChannel` ``delay`` faults)
must return a *degraded* answer within the deadline on virtual time —
never hang.  Both run over I3 shards and over temporal shards
(``QueryService(TemporalIndex)`` replicas): the scatter never asks
which it is serving, so the deadline and the degraded contract hold
for a :class:`~repro.temporal.TemporalQuery` by the same code.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    ShardChannel,
    attempt_budget,
    slice_remaining,
)
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.net.sim import SimShardChannel
from repro.service import ServiceConfig
from repro.simtest import SimClock, SimScheduler
from repro.spatial.geometry import UNIT_SQUARE
from repro.temporal import (
    NaiveTemporalIndex,
    RecencySpec,
    TemporalConfig,
    TemporalDocument,
    TemporalQuery,
    TimeRange,
)

from tests.helpers import results_as_pairs, temporal_cluster

finite_times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
deadlines = st.floats(
    min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False
)
timeouts = st.one_of(
    st.none(),
    st.floats(
        min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
    ),
)


class TestAttemptBudgetProperties:
    @given(start=finite_times, deadline=deadlines, attempt_timeout=timeouts)
    def test_non_expired_slice_is_positive_and_capped(
        self, start, deadline, attempt_timeout
    ):
        deadline_at = start + deadline
        expired, timeout = attempt_budget(deadline_at, start, attempt_timeout)
        assert not expired
        assert timeout > 0
        assert timeout <= slice_remaining(deadline_at, start)
        if attempt_timeout is not None:
            assert timeout <= attempt_timeout

    @given(
        start=finite_times,
        deadline=deadlines,
        attempt_timeout=timeouts,
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30
        ),
    )
    @example(start=524288.0, deadline=0.001, attempt_timeout=None, fractions=[1.0])
    @example(
        start=0.0,
        deadline=1.5000000000000002,
        attempt_timeout=None,
        fractions=[2.2204460492503128e-16, 1.0],
    )
    def test_consumed_slices_never_sum_past_the_deadline(
        self, start, deadline, attempt_timeout, fractions
    ):
        """Walk a query through attempts, each consuming any portion of
        its granted slice: the walk never passes ``deadline_at``, the
        total consumed never exceeds what was left at the start, and it
        always terminates in expiry or exhaustion — a stall is
        unrepresentable.

        ``deadline_at = start + deadline`` rounds at ``ulp(start)``, so
        the budget is ``deadline_at - start``, not ``deadline`` (first
        example: 1.2e-10 apart).  The only slack allowed is the walk's
        own: each ``+=`` below rounds by at most half an ulp, and a
        round-to-even tie can land ``now`` on the float just above
        ``deadline_at`` (second example), after which the slice is
        expired.
        """
        deadline_at = start + deadline
        now = start
        consumed = 0.0
        for fraction in fractions:
            expired, timeout = attempt_budget(
                deadline_at, now, attempt_timeout
            )
            if expired:
                assert timeout == 0.0
                break
            spend = timeout * fraction
            consumed += spend
            now += spend
            assert now <= math.nextafter(deadline_at, math.inf)
        assert consumed <= (deadline_at - start) + len(fractions) * math.ulp(
            deadline_at
        )

    @given(
        start=finite_times,
        deadline=deadlines,
        attempt_timeout=timeouts,
        later=st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    )
    def test_expiry_is_monotone(self, start, deadline, attempt_timeout, later):
        deadline_at = start + deadline
        probe = deadline_at + 1e-9 * max(1.0, abs(deadline_at))
        expired, timeout = attempt_budget(deadline_at, probe, attempt_timeout)
        assert expired and timeout == 0.0
        still_expired, _ = attempt_budget(
            deadline_at, probe + later, attempt_timeout
        )
        assert still_expired

    @given(now=finite_times, attempt_timeout=timeouts)
    def test_no_deadline_means_unbounded(self, now, attempt_timeout):
        assert slice_remaining(None, now) is None
        expired, timeout = attempt_budget(None, now, attempt_timeout)
        assert not expired
        assert timeout == attempt_timeout


DOCS = [
    SpatialDocument(i, (i % 10) / 10.0, (i // 10) / 10.0, {"pizza": 0.5})
    for i in range(40)
]


def _stalling_cluster(deadline, attempt_timeout, temporal=False):
    """A 2-shard, 2-replica cluster on virtual time whose every replica
    read goes through a scripted chaos channel.  ``temporal`` stamps
    document ``i`` with time ``i`` and serves time-sliced shards."""
    clock = SimClock()
    sched = SimScheduler(seed=0, clock=clock)
    channel = SimShardChannel(clock)
    partitioner = HashPartitioner(2, UNIT_SQUARE)
    config = ClusterConfig(
        replicas=2,
        retry_rounds=1,
        backoff=0.001,
        deadline=deadline,
        attempt_timeout=attempt_timeout,
        cache_capacity=0,
        shard_config=ServiceConfig(metrics_seed=0),
        metrics_seed=0,
    )
    seams = dict(clock=clock, executor=sched, channel=channel)
    if temporal:
        cluster = temporal_cluster(
            [TemporalDocument(doc, float(doc.doc_id)) for doc in DOCS],
            partitioner, TemporalConfig(slice_width=10.0), config, **seams,
        )
    else:
        cluster = ClusterService.build(DOCS, partitioner, config, **seams)
    return clock, channel, cluster


PIZZA = TopKQuery(0.5, 0.5, ("pizza",), k=5, semantics=Semantics.OR)
RECENT_PIZZA = TemporalQuery(
    PIZZA, TimeRange(5.0, 35.0), RecencySpec(half_life=10.0, origin=40.0)
)


class TestStalledScatterDegrades:
    @settings(max_examples=15, deadline=None)
    @given(
        deadline=st.floats(min_value=0.5, max_value=20.0),
        attempt_timeout=st.one_of(
            st.none(), st.floats(min_value=0.05, max_value=5.0)
        ),
        temporal=st.booleans(),
    )
    def test_all_replicas_stalling_degrades_within_deadline(
        self, deadline, attempt_timeout, temporal
    ):
        """Every attempt against every replica burns its whole slice and
        fails: the exhausted budget must surface as ``degraded`` within
        the deadline on virtual time, never as a hang."""
        clock, channel, cluster = _stalling_cluster(
            deadline, attempt_timeout, temporal
        )
        try:
            channel.set_plan(
                {
                    f"{sid}:{rid}": ["delay"] * 8
                    for sid in range(2)
                    for rid in range(2)
                }
            )
            query = RECENT_PIZZA if temporal else PIZZA
            started = clock()
            answer = cluster.search(query)
            elapsed = clock() - started
            assert answer.degraded
            assert set(answer.failed_shards) == {0, 1}
            assert answer.results == []
            assert elapsed <= deadline + 1e-6
            assert math.isfinite(elapsed)
        finally:
            channel.clear_plan()
            cluster.close()

    def test_a_stalled_temporal_shard_degrades_to_the_oracle_over_the_rest(self):
        """One temporal shard stalls on both replicas through every
        retry round: the answer is flagged, names the shard, and is
        exactly the naive oracle over the documents of the shards that
        did respond — still inside the deadline on virtual time."""
        clock, channel, cluster = _stalling_cluster(2.0, 0.25, temporal=True)
        try:
            channel.set_plan({"1:0": ["delay"] * 8, "1:1": ["delay"] * 8})
            started = clock()
            answer = cluster.search(RECENT_PIZZA)
            assert clock() - started <= 2.0 + 1e-6
            assert answer.degraded and answer.failed_shards == (1,)
            survivors = NaiveTemporalIndex(UNIT_SQUARE, 10.0)
            for i in range(40):
                if cluster.partitioner.shard_of_id(i) != 1:
                    survivors.insert(cluster.replica(0).index.get(i))
            assert answer.results
            assert results_as_pairs(answer.results) == results_as_pairs(
                survivors.query(RECENT_PIZZA, cluster.ranker)
            )
            # The stall over, the same query is complete again.
            channel.clear_plan()
            whole = cluster.search(RECENT_PIZZA)
            assert not whole.degraded
            assert len(whole.results) == 5
        finally:
            channel.clear_plan()
            cluster.close()


class _SlowBoundsChannel(ShardChannel):
    """Every router bounds read costs ``cost`` seconds of virtual time,
    as when the shard's writer holds its read lock; attempts are free."""

    def __init__(self, clock, cost):
        self.clock = clock
        self.cost = cost

    def keyword_bounds(self, replica, words):
        self.clock.advance(self.cost)
        return super().keyword_bounds(replica, words)


class TestDeadlineCoversRouting:
    def test_slow_routing_spends_the_cluster_deadline(self):
        """``config.deadline`` runs from the start of the query: routing
        that eats the whole budget leaves no slice for any shard, so
        the answer is degraded with every ranked shard failed — not a
        complete answer delivered after the deadline."""
        clock = SimClock()
        config = ClusterConfig(
            deadline=1.0,
            cache_capacity=0,
            shard_config=ServiceConfig(metrics_seed=0),
            metrics_seed=0,
        )
        with ClusterService.build(
            DOCS, HashPartitioner(2, UNIT_SQUARE), config,
            clock=clock, executor=SimScheduler(seed=0, clock=clock),
            channel=_SlowBoundsChannel(clock, 0.6),
        ) as cluster:
            answer = cluster.search(PIZZA)
            assert clock() == 1.2  # two bounds reads, nothing after
            assert answer.degraded
            assert answer.failed_shards == (0, 1)
            assert answer.results == []
