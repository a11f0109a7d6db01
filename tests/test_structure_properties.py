"""Property-based tests (hypothesis): quadtree structure and signature
filtering behaviour.

Complements ``tests/test_properties.py`` (storage round-trips, oracle
equivalence) with structural invariants of the point quadtree — every
point lives inside its leaf's cell, splits respect capacity and depth
bounds, queries match brute force — and an exact characterisation of
signature filtering: ``might_contain`` answers True *iff* the probed
id's hash bit was set by some added id, which simultaneously pins "no
false negatives, ever" and "false positives exactly on hash
collisions".
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.spatial.geometry import Rect, UNIT_SQUARE, point_distance
from repro.spatial.quadtree import PointQuadtree
from repro.text.signature import Signature

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, exclude_max=True)
points = st.lists(st.tuples(coords, coords), min_size=1, max_size=120)
id_sets = st.lists(st.integers(min_value=0, max_value=2**32), max_size=64)
etas = st.integers(min_value=1, max_value=256)


def _walk(tree):
    """Yield ``(node, depth)`` over every node of a PointQuadtree."""
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if not node.is_leaf:
            stack.extend((child, depth + 1) for child in node.children)


class TestQuadtreeStructure:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points, st.integers(min_value=1, max_value=8))
    def test_points_contained_and_splits_bounded(self, pts, capacity):
        tree = PointQuadtree(UNIT_SQUARE, capacity=capacity, max_depth=12)
        for i, (x, y) in enumerate(pts):
            tree.insert(x, y, i)
        assert len(tree) == len(pts)
        seen = 0
        for node, depth in _walk(tree):
            cell_rect = tree.grid.rect(node.cell)
            if node.is_leaf:
                seen += len(node.points)
                # Cell containment: a leaf only ever holds points that
                # fall inside its own cell rectangle.
                for x, y, _ in node.points:
                    assert cell_rect.contains_point(x, y)
                # Split invariant: a leaf above capacity can only exist
                # at the depth limit (duplicate pile-ups stop splitting).
                if len(node.points) > capacity:
                    assert depth == tree.max_depth
            else:
                # Internal nodes are always fully split into 4 children.
                assert len(node.children) == 4
        assert seen == len(pts)
        stats = tree.stats()
        assert stats.num_points == len(pts)
        assert stats.max_depth <= tree.max_depth
        # leaf_cells agrees with the walk: counts sum to the points.
        assert sum(count for _, count in tree.leaf_cells()) == len(pts)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points, st.tuples(coords, coords, coords, coords))
    def test_range_query_matches_brute_force(self, pts, corners):
        x1, y1, x2, y2 = corners
        rect = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        tree = PointQuadtree(UNIT_SQUARE, capacity=4)
        for i, (x, y) in enumerate(pts):
            tree.insert(x, y, i)
        got = sorted(v for _, _, v in tree.range_query(rect))
        expected = sorted(
            i for i, (x, y) in enumerate(pts) if rect.contains_point(x, y)
        )
        assert got == expected

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points, st.tuples(coords, coords), st.integers(1, 10))
    def test_nearest_matches_brute_force(self, pts, origin, n):
        qx, qy = origin
        tree = PointQuadtree(UNIT_SQUARE, capacity=4)
        for i, (x, y) in enumerate(pts):
            tree.insert(x, y, i)
        got = [d for d, _ in tree.nearest(qx, qy, n=n)]
        expected = sorted(
            point_distance(qx, qy, x, y) for x, y in pts
        )[:n]
        assert len(got) == min(n, len(pts))
        assert got == expected

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points, st.randoms(use_true_random=False))
    def test_delete_roundtrip(self, pts, pyrandom):
        tree = PointQuadtree(UNIT_SQUARE, capacity=4)
        for i, (x, y) in enumerate(pts):
            tree.insert(x, y, i)
        order = list(range(len(pts)))
        pyrandom.shuffle(order)
        keep = set(order[: len(order) // 2])
        for i in order:
            if i not in keep:
                x, y = pts[i]
                assert tree.delete(x, y, lambda v, i=i: v == i)
        assert len(tree) == len(keep)
        remaining = {v for _, _, v in tree.range_query(UNIT_SQUARE)}
        assert remaining == keep
        # Deleting the same points again finds nothing.
        for i in order:
            if i not in keep:
                x, y = pts[i]
                assert not tree.delete(x, y, lambda v, i=i: v == i)


class TestSignatureFiltering:
    @settings(max_examples=100, deadline=None)
    @given(id_sets, etas, st.lists(st.integers(0, 2**32), max_size=32))
    def test_might_contain_iff_bit_collision(self, ids, eta, probes):
        """The exact filter semantics: ``might_contain(x)`` is True iff
        some added id hashes to x's bit.  Added ids always collide with
        themselves, so false negatives are impossible; non-members hit
        iff they collide — the Bloom-style contract of Algorithm 5."""
        sig = Signature(eta)
        sig.add_all(ids)
        set_bits = {i % eta for i in ids}
        for probe in ids + probes:
            assert sig.might_contain(probe) == ((probe % eta) in set_bits)

    @settings(max_examples=100, deadline=None)
    @given(id_sets, etas)
    def test_saturation_counts_distinct_bits(self, ids, eta):
        sig = Signature(eta)
        sig.add_all(ids)
        distinct = len({i % eta for i in ids})
        assert sig.bit_count == distinct
        assert math.isclose(sig.saturation, distinct / eta)
        assert sig.is_zero == (len(ids) == 0)

    @settings(max_examples=100, deadline=None)
    @given(id_sets, id_sets, etas)
    def test_algebra_identities(self, a_ids, b_ids, eta):
        a = Signature(eta)
        a.add_all(a_ids)
        b = Signature(eta)
        b.add_all(b_ids)
        full = Signature.full(eta)
        zero = Signature(eta)
        # full is the intersection identity (Algorithm 5 line 1), zero
        # the union identity.
        assert full.intersect(a) == a
        assert zero.union(a) == a
        # intersect narrows, union widens — for every probe.
        inter, uni = a.intersect(b), a.union(b)
        for probe in a_ids + b_ids:
            if inter.might_contain(probe):
                assert a.might_contain(probe) and b.might_contain(probe)
            if a.might_contain(probe) or b.might_contain(probe):
                assert uni.might_contain(probe)
        # A saturated signature prunes nothing: every probe passes.
        assert all(full.might_contain(p) for p in a_ids + b_ids)

    @settings(max_examples=60, deadline=None)
    @given(id_sets, etas)
    def test_copy_isolated_and_hash_consistent(self, ids, eta):
        sig = Signature(eta)
        sig.add_all(ids)
        dup = sig.copy()
        assert dup == sig and hash(dup) == hash(sig)
        dup.add(ids[0] + 1 if ids else 1)
        # Mutating the copy never touches the original.
        assert sig.bit_count == len({i % eta for i in ids})
