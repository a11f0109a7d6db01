"""Tests for the router's spatial bound: ``shard_min_dists``.

The router used to scan every leaf rectangle of every candidate shard;
it now asks the partitioner one question per query and the grid
partitioners answer it by a best-first descent of their leaf quadtree.
The load-bearing property is that nothing observable moved: the bound
is the *same float* the scan produced (compared by ``float.hex()``),
``ClusterService._route`` returns the same ranking, and the scan cannot
quietly come back (call and heap-pop counts, no timing).
"""

from __future__ import annotations

import heapq
import random
import sys
import threading
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    ShardChannel,
    ShardManifest,
    SpatialGridPartitioner,
    build_manifest,
    partitioner_from_manifest,
)
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.planner import WorkloadModel, WorkloadPartitioner
from repro.service import ServiceConfig
from repro.spatial.cells import ROOT_CELL, cell_level
from repro.spatial.geometry import UNIT_SQUARE, Rect

from tests.helpers import DEFAULT_VOCAB, make_documents


# ----------------------------------------------------------------------
# The two sides of the comparison
# ----------------------------------------------------------------------
def _scan_phi_s(partitioner, ranker: Ranker, x: float, y: float) -> List[float]:
    """The parent commit's expression: the best spatial upper bound over
    every region of the shard, one ``Rect.min_dist`` per leaf."""
    regions = partitioner.shard_regions()
    return [
        max(
            (ranker.spatial_upper_bound(x, y, rect) for rect in regions[sid]),
            default=0.0,
        )
        for sid in range(partitioner.num_shards)
    ]


def _descent_phi_s(partitioner, ranker: Ranker, x: float, y: float) -> List[float]:
    """What ``ClusterService._route`` makes of ``shard_min_dists``."""
    diagonal = ranker.space.diagonal
    return [
        0.0 if dist is None else max(0.0, 1.0 - dist / diagonal)
        for dist in partitioner.shard_min_dists(x, y)
    ]


def _hex(values: List[float]) -> List[str]:
    return [value.hex() for value in values]


# ----------------------------------------------------------------------
# Random tilings and probe points
# ----------------------------------------------------------------------
@st.composite
def tilings(draw) -> SpatialGridPartitioner:
    """A random leaf tiling: depth <= 8, 1-7 shards, and (usually) some
    shards that own no leaf at all."""
    min_x = draw(st.floats(-1000.0, 1000.0))
    min_y = draw(st.floats(-1000.0, 1000.0))
    width = draw(st.floats(1e-3, 1000.0))
    height = draw(st.floats(1e-3, 1000.0))
    space = Rect(min_x, min_y, min_x + width, min_y + height)
    leaves = [ROOT_CELL]
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=40)):
        cell = leaves[pick % len(leaves)]
        if cell_level(cell) < 8:
            leaves.remove(cell)
            leaves.extend((cell << 2) | quadrant for quadrant in range(4))
    num_shards = draw(st.integers(1, 7))
    owners = draw(
        st.lists(st.integers(0, num_shards - 1), min_size=1, max_size=num_shards)
    )
    table = {
        cell: owners[draw(st.integers(0, len(owners) - 1))] for cell in leaves
    }
    return SpatialGridPartitioner(num_shards, space, table)


def _probe_points(partitioner, data) -> List[Tuple[float, float]]:
    """Points inside the space, on leaf borders and corners, and outside."""
    space = partitioner.space
    unit = st.floats(0.0, 1.0)
    inside = (
        space.min_x + data.draw(unit) * space.width,
        space.min_y + data.draw(unit) * space.height,
    )
    rects = [rect for group in partitioner.shard_regions().values() for rect in group]
    rect = rects[data.draw(st.integers(0, len(rects) - 1))]
    corner = (
        data.draw(st.sampled_from([rect.min_x, rect.max_x])),
        data.draw(st.sampled_from([rect.min_y, rect.max_y])),
    )
    border = (corner[0], rect.min_y + data.draw(unit) * rect.height)
    reach = st.floats(-2.0, 3.0)
    outside = (
        space.min_x + data.draw(reach) * space.width,
        space.max_y + (0.001 + data.draw(unit)) * space.height,
    )
    return [inside, corner, border, outside]


class TestTheBoundIsTheSameNumber:
    @settings(max_examples=150, deadline=None)
    @given(partitioner=tilings(), data=st.data())
    def test_grid_descent_equals_the_leaf_scan(self, partitioner, data):
        ranker = Ranker(partitioner.space)
        for x, y in _probe_points(partitioner, data):
            assert _hex(_descent_phi_s(partitioner, ranker, x, y)) == _hex(
                _scan_phi_s(partitioner, ranker, x, y)
            )

    @settings(max_examples=50, deadline=None)
    @given(partitioner=tilings(), data=st.data())
    def test_leafless_shards_answer_none(self, partitioner, data):
        x, y = _probe_points(partitioner, data)[0]
        owning = set(partitioner.leaves.values())
        for sid, dist in enumerate(partitioner.shard_min_dists(x, y)):
            assert (dist is None) == (sid not in owning)

    @settings(max_examples=50, deadline=None)
    @given(
        shards=st.integers(1, 7),
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
    )
    def test_hash_equals_the_scan_of_its_one_region(self, shards, x, y):
        partitioner = HashPartitioner(shards, UNIT_SQUARE)
        ranker = Ranker(UNIT_SQUARE)
        assert _hex(_descent_phi_s(partitioner, ranker, x, y)) == _hex(
            _scan_phi_s(partitioner, ranker, x, y)
        )

    def test_learned_placement_equals_the_scan(self, rng):
        docs = make_documents(600, rng)
        partitioner = _learned(4, docs, leaf_capacity=4)
        assert len(partitioner.leaves) > 150
        ranker = Ranker(UNIT_SQUARE)
        for _ in range(200):
            x, y = rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)
            assert _hex(_descent_phi_s(partitioner, ranker, x, y)) == _hex(
                _scan_phi_s(partitioner, ranker, x, y)
            )


def _scan_dists(partitioner, x: float, y: float) -> List[Optional[float]]:
    """Per shard, the least ``Rect.min_dist`` over its leaves (``None``
    for a shard that owns none)."""
    regions = partitioner.shard_regions()
    return [
        min((rect.min_dist(x, y) for rect in regions[sid]), default=None)
        for sid in range(partitioner.num_shards)
    ]


def _hex_or_none(values: List[Optional[float]]) -> List[Optional[str]]:
    return [None if value is None else value.hex() for value in values]


class _Pops:
    """Counts ``heapq.heappop`` calls and remembers the cells popped."""

    def __init__(self, monkeypatch) -> None:
        self.cells: List[int] = []
        real_pop = heapq.heappop

        def counting_pop(heap):
            entry = real_pop(heap)
            self.cells.append(entry[1])
            return entry

        monkeypatch.setattr(heapq, "heappop", counting_pop)

    def during(self, call) -> List[int]:
        self.cells = []
        call()
        return self.cells


class TestTheMaskedDescent:
    """The router asks only about the shards that hold a query keyword:
    ``shard_min_dists(x, y, shards)`` with ``shards`` a bit mask."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(partitioner=tilings(), data=st.data())
    def test_a_masked_shard_gets_the_same_number(self, partitioner, data):
        mask = data.draw(st.integers(0, (1 << partitioner.num_shards) - 1))
        for x, y in _probe_points(partitioner, data):
            full = _hex_or_none(partitioner.shard_min_dists(x, y))
            scan = _hex_or_none(_scan_dists(partitioner, x, y))
            masked = _hex_or_none(partitioner.shard_min_dists(x, y, mask))
            for sid in range(partitioner.num_shards):
                if mask >> sid & 1:
                    assert masked[sid] == full[sid] == scan[sid]
                else:
                    assert masked[sid] is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(partitioner=tilings(), data=st.data())
    def test_a_masked_descent_pops_no_more(self, partitioner, data):
        mask = data.draw(st.integers(0, (1 << partitioner.num_shards) - 1))
        with pytest.MonkeyPatch.context() as monkeypatch:
            pops = _Pops(monkeypatch)
            for x, y in _probe_points(partitioner, data):
                full = pops.during(lambda: partitioner.shard_min_dists(x, y))
                masked = pops.during(
                    lambda: partitioner.shard_min_dists(x, y, mask)
                )
                assert len(masked) <= len(full)
                if mask == 0:
                    assert masked == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(partitioner=tilings(), data=st.data())
    def test_the_owner_of_the_point_is_found_at_its_leaf(self, partitioner, data):
        """Asked only about the shard owning the leaf that holds the
        point, the descent walks straight down to that leaf: one pop per
        level, and the leaf is the only leaf it pops."""
        leaf = data.draw(st.sampled_from(sorted(partitioner.leaves)))
        x, y = partitioner._grid.rect(leaf).center
        shard = partitioner.leaves[leaf]
        with pytest.MonkeyPatch.context() as monkeypatch:
            pops = _Pops(monkeypatch)
            popped = pops.during(
                lambda: partitioner.shard_min_dists(x, y, 1 << shard)
            )
        assert popped[-1] == leaf
        assert len(popped) == cell_level(leaf) + 1
        assert [cell for cell in popped if cell in partitioner.leaves] == [leaf]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        shards=st.integers(1, 7),
        mask=st.integers(0, 127),
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
    )
    def test_hash_ignores_the_mask(self, shards, mask, x, y):
        partitioner = HashPartitioner(shards, UNIT_SQUARE)
        assert partitioner.shard_min_dists(x, y, mask) == (
            partitioner.shard_min_dists(x, y)
        )


# ----------------------------------------------------------------------
# A leaf table that is not a tiling is rejected when it is loaded
# ----------------------------------------------------------------------
def _load(tmp_path, kind: str, leaves: Dict[int, int]):
    """``leaves`` as a manifest on disk, loaded back the way a restarted
    router would."""
    good = SpatialGridPartitioner(2, UNIT_SQUARE, {ROOT_CELL: 0})
    manifest = build_manifest(good, 1, [0, 0])
    manifest.partitioner = kind
    manifest.params = {"leaves": [[c, sid] for c, sid in sorted(leaves.items())]}
    path = str(tmp_path / "manifest.json")
    manifest.save(path)
    return partitioner_from_manifest(ShardManifest.load(path))


class TestLeafTableMustTile:
    @pytest.mark.parametrize("kind", ["spatial", "workload"])
    def test_missing_quadrant_is_rejected_at_load(self, tmp_path, kind):
        # Quadrant 3 of the root (cell 7) has no leaf.
        with pytest.raises(ValueError, match=r"no leaf covers cell 7\b"):
            _load(tmp_path, kind, {4: 0, 5: 1, 6: 0})

    @pytest.mark.parametrize("kind", ["spatial", "workload"])
    def test_hole_deeper_down_names_the_cell(self, tmp_path, kind):
        leaves = {4: 0, 5: 1, 6: 0, 28: 1, 29: 1, 31: 0}  # 30 is missing
        with pytest.raises(ValueError, match=r"no leaf covers cell 30\b"):
            _load(tmp_path, kind, leaves)

    @pytest.mark.parametrize("kind", ["spatial", "workload"])
    def test_leaf_under_a_leaf_is_rejected_at_load(self, tmp_path, kind):
        # Cell 5 is a leaf and so is its child 21: the ancestor would
        # shadow the deeper one for documents and for the descent alike.
        leaves = {4: 0, 5: 1, 6: 0, 7: 1, 21: 0}
        with pytest.raises(ValueError, match=r"leaf 5 has another leaf beneath"):
            _load(tmp_path, kind, leaves)

    def test_a_tiling_round_trips(self, tmp_path):
        leaves = {4: 0, 5: 1, 6: 0, 28: 1, 29: 1, 30: 0, 31: 0}
        restored = _load(tmp_path, "spatial", leaves)
        assert restored.leaves == leaves

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        count=st.integers(0, 120),
        shards=st.integers(1, 5),
        leaf_capacity=st.integers(1, 12),
        max_level=st.integers(0, 6),
        crowd=st.integers(0, 40),
        empty_half=st.booleans(),
    )
    def test_learned_and_grown_tables_always_tile(
        self, seed, count, shards, leaf_capacity, max_level, crowd, empty_half
    ):
        """``from_documents`` and ``learn`` only ever emit tilings — with
        empty quadrants (every document in the west half) and with a
        crowd of co-located documents that stops splitting only at
        ``max_level``.  Constructing the partitioner *is* the check."""
        rng = random.Random(seed)
        space = Rect(0.0, 0.0, 0.5, 1.0) if empty_half else UNIT_SQUARE
        docs = make_documents(count, rng, space=space)
        docs += [
            SpatialDocument(10_000 + i, 0.123, 0.456, {"cafe": 0.5})
            for i in range(crowd)
        ]
        grown = SpatialGridPartitioner.from_documents(
            shards, UNIT_SQUARE, docs,
            leaf_capacity=leaf_capacity, max_level=max_level,
        )
        queries = _queries(rng, 20)
        learned = WorkloadPartitioner.learn(
            shards, UNIT_SQUARE, docs,
            model=WorkloadModel.from_queries(queries, UNIT_SQUARE),
            leaf_capacity=leaf_capacity, max_level=max_level,
        )
        for partitioner in (grown, learned):
            assert sum(4 ** -cell_level(c) for c in partitioner.leaves) == 1.0
            for doc in docs:
                assert 0 <= partitioner.shard_of(doc) < shards


# ----------------------------------------------------------------------
# The router: same ranking, same under rebalance, same from four threads
# ----------------------------------------------------------------------
def _queries(rng, count: int, vocab=DEFAULT_VOCAB) -> List[TopKQuery]:
    return [
        TopKQuery(
            rng.random(),
            rng.random(),
            tuple(rng.sample(list(vocab), rng.randint(1, 3))),
            k=rng.randint(1, 10),
            semantics=rng.choice([Semantics.AND, Semantics.OR]),
        )
        for _ in range(count)
    ]


def _learned(shards: int, docs, leaf_capacity: int) -> WorkloadPartitioner:
    training = _queries(random.Random(99), 80)
    return WorkloadPartitioner.learn(
        shards, UNIT_SQUARE, docs,
        model=WorkloadModel.from_queries(training, UNIT_SQUARE),
        leaf_capacity=leaf_capacity,
    )


def _reference_route(cluster: ClusterService, query: TopKQuery):
    """``_route`` the parent's way: every leaf rectangle of the shard's
    ``shard_regions()`` through ``Ranker.spatial_upper_bound``."""
    regions = cluster.partitioner.shard_regions()
    ranked = []
    absent = 0
    for sid in range(cluster.num_shards):
        found = cluster.replica(sid).index.keyword_bounds(query.words)
        bounds = [found[word] for word in query.words if word in found]
        if not bounds or (
            query.semantics is Semantics.AND and len(bounds) < len(query.words)
        ):
            absent += 1
            continue
        phi_s = max(
            (
                cluster.ranker.spatial_upper_bound(query.x, query.y, rect)
                for rect in regions[sid]
            ),
            default=0.0,
        )
        ranked.append((cluster.ranker.combine(phi_s, sum(bounds)), sid))
    ranked.sort(key=lambda entry: (-entry[0], entry[1]))
    return ranked, absent, []


def _hex_route(route):
    ranked, absent, dead = route
    return [(bound.hex(), sid) for bound, sid in ranked], absent, dead


class _AttemptChannel(ShardChannel):
    """The default in-process channel, flagging (per thread) the span of
    each shard attempt: an attempt may run its shard's engine on the
    calling thread, and that work is the shard's, not the router's."""

    def __init__(self) -> None:
        self._flag = threading.local()

    @property
    def inside(self) -> bool:
        return getattr(self._flag, "inside", False)

    def search(self, replica, query, timeout):
        self._flag.inside = True
        try:
            return super().search(replica, query, timeout)
        finally:
            self._flag.inside = False


_ATTEMPTS = _AttemptChannel()


@pytest.fixture(scope="module")
def learned_cluster():
    rng = random.Random(2013)
    docs = make_documents(1500, rng)
    cluster = ClusterService.build(
        docs,
        _learned(4, docs, leaf_capacity=2),
        ClusterConfig(cache_capacity=0, shard_config=ServiceConfig()),
        ranker=Ranker(UNIT_SQUARE),
        channel=_ATTEMPTS,
    )
    try:
        yield cluster, docs
    finally:
        cluster.close()


class TestRouteIsUnchanged:
    def test_route_equals_the_scan_before_and_after_rebalance(self, learned_cluster):
        cluster, docs = learned_cluster
        queries = _queries(random.Random(5), 300)
        learned = cluster.partitioner
        assert len(learned.leaves) >= 500
        for partitioner in (
            learned,
            HashPartitioner(4, UNIT_SQUARE),
            learned,
            HashPartitioner(4, UNIT_SQUARE),
            learned,  # leave the shared cluster as it was found
        ):
            if partitioner is not cluster.partitioner:
                cluster.rebalance(partitioner)
            for query in queries:
                assert _hex_route(cluster._route(query)) == _hex_route(
                    _reference_route(cluster, query)
                )

    def test_four_threads_route_like_one(self, learned_cluster):
        cluster, _docs = learned_cluster
        queries = _queries(random.Random(6), 500)
        expected = [_hex_route(cluster._route(query)) for query in queries]
        outcomes: List[Optional[list]] = [None] * 4

        def route_all(slot: int) -> None:
            outcomes[slot] = [_hex_route(cluster._route(q)) for q in queries]

        threads = [
            threading.Thread(target=route_all, args=(slot,)) for slot in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [expected] * 4


# ----------------------------------------------------------------------
# Counts that keep the scan from coming back
# ----------------------------------------------------------------------
class _RouterCalls:
    """Counts calls to a method that the cluster makes on the creating
    thread outside a shard attempt — the router's.  A shard engine runs
    on whichever thread takes its service's turn, which for an idle
    service is this one, inside an ``_ATTEMPTS`` span."""

    def __init__(self, monkeypatch, owner, name: str) -> None:
        self.calls = 0
        thread = threading.get_ident()
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if threading.get_ident() == thread and not _ATTEMPTS.inside:
                self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class TestTheScanStaysGone:
    @pytest.mark.parametrize("kind, allowed", [("learned", 0), ("hash", 1)])
    def test_search_makes_no_per_leaf_calls(
        self, learned_cluster, monkeypatch, kind, allowed
    ):
        cluster, _docs = learned_cluster
        learned = cluster.partitioner
        assert len(learned.leaves) >= 1000
        if kind == "hash":
            cluster.rebalance(HashPartitioner(4, UNIT_SQUARE))
        try:
            queries = _queries(random.Random(8), 60)
            min_dist = _RouterCalls(monkeypatch, Rect, "min_dist")
            upper = _RouterCalls(monkeypatch, Ranker, "spatial_upper_bound")
            for query in queries:
                before = (min_dist.calls, upper.calls)
                cluster.search(query)
                assert min_dist.calls - before[0] <= allowed
                assert upper.calls - before[1] == 0
        finally:
            monkeypatch.undo()
            if kind == "hash":
                cluster.rebalance(learned)

    def test_heap_pops_grow_with_depth_not_with_leaves(self, monkeypatch):
        rng = random.Random(31)
        docs = make_documents(12_000, rng, max_words=1)
        coarse = SpatialGridPartitioner.from_documents(
            4, UNIT_SQUARE, docs, leaf_capacity=128
        )
        fine = SpatialGridPartitioner.from_documents(
            4, UNIT_SQUARE, docs, leaf_capacity=6
        )
        assert len(coarse.leaves) <= 260
        assert len(fine.leaves) >= 4000
        points = [(rng.random(), rng.random()) for _ in range(300)]
        pops = {"n": 0}
        real_pop = heapq.heappop

        def counting_pop(heap):
            pops["n"] += 1
            return real_pop(heap)

        monkeypatch.setattr(heapq, "heappop", counting_pop)
        totals = []
        for partitioner in (coarse, fine):
            pops["n"] = 0
            for x, y in points:
                partitioner.shard_min_dists(x, y)
            totals.append(pops["n"])
        # Sixteen times the leaves, at most three times the heap work.
        assert totals[1] <= 3 * totals[0]


# ----------------------------------------------------------------------
# Observability: the route share without a profiler
# ----------------------------------------------------------------------
class TestRouteHistogram:
    def test_route_ms_counts_every_scattered_query(self, rng):
        docs = make_documents(200, rng)
        cluster = ClusterService.build(
            docs,
            SpatialGridPartitioner.from_documents(3, UNIT_SQUARE, docs, leaf_capacity=8),
            ClusterConfig(shard_config=ServiceConfig(), metrics_seed=0),
            ranker=Ranker(UNIT_SQUARE),
        )
        with cluster:
            queries = _queries(rng, 25)
            answers = [cluster.search(query) for query in queries + queries]
            snapshot = cluster.metrics_snapshot()
            hits = sum(answer.from_cache for answer in answers)
            assert hits > 0
            route = snapshot["histograms"]["cluster.route_ms"]
            assert route["count"] == snapshot["counters"]["cluster.queries"] - hits
            assert route["count"] == snapshot["histograms"]["cluster.latency_ms"]["count"]
            assert route["p50"] >= 0.0
            assert "repro_cluster_route_ms" in cluster.metrics.render_prometheus()
