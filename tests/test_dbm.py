"""Zone-engine tests: brute-force grids as the ground truth.

The oracle enumerates integer valuations on a small grid and evaluates the
raw constraint list directly; the DBM under test must agree after
canonicalization and after every operation.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymon.dbm import (
    DBM,
    INF,
    Interval,
    LE_ZERO,
    bound,
    bound_is_strict,
    bound_value,
    included_in_union,
    reduce_union,
)

GRID = range(0, 7)  # valuation grid per clock


def grid_points(dim: int) -> Iterable[tuple[int, ...]]:
    for tail in itertools.product(GRID, repeat=dim - 1):
        yield (0, *tail)


def raw_satisfies(cons: list[tuple[int, int, int]], v: tuple[int, ...]) -> bool:
    for i, j, b in cons:
        d = v[i] - v[j]
        if bound_is_strict(b):
            if not d < bound_value(b):
                return False
        elif not d <= bound_value(b):
            return False
    return True


def zone_from(cons: list[tuple[int, int, int]], dim: int = 3) -> DBM:
    return DBM.universal(dim).and_constraints(cons)


def points_of(z: DBM) -> set[tuple[int, ...]]:
    return {v for v in grid_points(z.dim) if z.contains(v)}


# hypothesis strategy: random constraint lists over 2 real clocks (+ ref)
constraint = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(-4, 6), st.booleans()
).map(lambda t: (t[0], t[1], bound(t[2], strict=t[3])))
constraints = st.lists(constraint, max_size=8)


class TestEncoding:
    def test_bound_roundtrip(self):
        for v in (-5, 0, 3, 71):
            for s in (True, False):
                b = bound(v, strict=s)
                assert bound_value(b) == v
                assert bound_is_strict(b) is s

    def test_order_strict_below_weak(self):
        assert bound(5, strict=True) < bound(5) < bound(6, strict=True)

    def test_negative_values_encode_correctly(self):
        b = bound(-3, strict=True)
        assert bound_value(b) == -3 and bound_is_strict(b)


class TestCanonicalization:
    def test_contradiction_is_empty(self):
        z = zone_from([(1, 0, bound(2)), (0, 1, bound(-3))])  # x<=2 and x>=3
        assert z.is_empty()

    def test_strict_touching_is_empty(self):
        # x < 3 and x >= 3
        z = zone_from([(1, 0, bound(3, strict=True)), (0, 1, bound(-3))])
        assert z.is_empty()

    def test_weak_touching_is_point(self):
        z = zone_from([(1, 0, bound(3)), (0, 1, bound(-3))])
        assert not z.is_empty()
        assert z.contains((0, 3, 0))

    def test_close_idempotent(self):
        z = zone_from([(1, 2, bound(1)), (2, 0, bound(4, strict=True))])
        assert DBM(z.dim, z.copy_matrix()) == z

    @given(constraints)
    @settings(max_examples=150, deadline=None)
    def test_membership_matches_raw_constraints(self, cons):
        z = zone_from(cons)
        raw = [(i, j, b) for i, j, b in cons]
        for v in grid_points(3):
            assert z.contains(v) == raw_satisfies(raw, v)


class TestOperations:
    @given(constraints)
    @settings(max_examples=80, deadline=None)
    def test_up_keeps_differences_drops_upper(self, cons):
        z = zone_from(cons)
        u = z.up()
        for v in points_of(z):
            # every uniform time shift of a member stays in up(z)
            for d in range(0, 3):
                shifted = (0, v[1] + d, v[2] + d)
                assert u.contains(shifted)
        assert u.includes(z)

    @given(constraints)
    @settings(max_examples=80, deadline=None)
    def test_reset_sends_members_to_zero(self, cons):
        z = zone_from(cons)
        r = z.reset([1])
        expect = {(0, 0, v[2]) for v in points_of(z)}
        assert expect <= points_of(r)
        for v in points_of(r):
            assert v[1] == 0

    @given(constraints)
    @settings(max_examples=80, deadline=None)
    def test_free_is_existential_projection(self, cons):
        z = zone_from(cons)
        f = z.free(1)
        reachable = {v[2] for v in points_of(z)}
        for v in grid_points(3):
            if v[2] in reachable:
                assert f.contains(v)

    @given(constraints, constraints)
    @settings(max_examples=80, deadline=None)
    def test_intersect_is_set_intersection(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        assert points_of(a.intersect(b)) == points_of(a) & points_of(b)

    @given(constraints, constraints)
    @settings(max_examples=80, deadline=None)
    def test_includes_sound_on_grid(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        if a.includes(b):
            assert points_of(b) <= points_of(a)

    @given(constraints, constraints)
    @settings(max_examples=60, deadline=None)
    def test_subtract_partitions_grid(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        pieces = a.subtract(b)
        covered: set[tuple[int, ...]] = set()
        for p in pieces:
            pts = points_of(p)
            assert not pts & covered  # disjoint
            covered |= pts
        assert covered == points_of(a) - points_of(b)

    @given(constraints, constraints)
    @settings(max_examples=60, deadline=None)
    def test_included_in_union_exact_on_grid(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        if included_in_union(a, [b]):
            assert points_of(a) <= points_of(b)

    def test_restrict_projects_submatrix(self):
        z = zone_from([(1, 0, bound(4)), (2, 1, bound(1)), (0, 2, bound(0))])
        p = z.restrict([2])
        assert p.dim == 2
        for v in grid_points(3):
            if z.contains(v):
                assert p.contains((0, v[2]))

    def test_reset_reference_clock_rejected(self):
        with pytest.raises(ValueError):
            DBM.universal(3).reset([0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DBM.universal(3).intersect(DBM.universal(4))


class TestDifferenceBounds:
    def test_bounded_difference(self):
        # 1 <= x - y <= 5, upper strict
        z = zone_from([(1, 2, bound(5, strict=True)), (2, 1, bound(-1))])
        iv = z.difference_bounds(1, 2)
        assert (iv.lo, iv.lo_strict, iv.hi, iv.hi_strict) == (1, False, 5, True)

    def test_unbounded_above(self):
        z = zone_from([(2, 1, bound(-1))])
        iv = z.difference_bounds(1, 2)
        assert iv.hi == INF and iv.lo == 1

    def test_negation_symmetry(self):
        z = zone_from([(1, 2, bound(5, strict=True)), (2, 1, bound(-1))])
        # x - y in [1, 5), so y - x in (-5, -1]
        fwd, back = z.difference_bounds(1, 2), z.difference_bounds(2, 1)
        assert (fwd.lo, fwd.lo_strict, fwd.hi, fwd.hi_strict) == (
            1, False, 5, True)
        assert (back.lo, back.lo_strict, back.hi, back.hi_strict) == (
            -5, True, -1, False)

    def test_empty_zone_gives_empty_interval(self):
        z = zone_from([(1, 0, bound(0, strict=True))])  # x < 0 impossible
        assert z.difference_bounds(1, 2).is_empty()


class TestInterval:
    def test_clip_to_window(self):
        iv = Interval(3, False, 20, True)
        c = iv.clip(5, 10)
        assert (c.lo, c.lo_strict, c.hi, c.hi_strict) == (5, False, 10, False)

    def test_clip_can_empty(self):
        assert Interval(3, False, 4, False).clip(10, 20).is_empty()

    def test_clip_unbounded_upper(self):
        iv = Interval(0, False, INF, True)
        c = iv.clip(2, INF)
        assert c.lo == 2 and c.hi == INF

    def test_open_point_is_empty(self):
        assert Interval(4, True, 4, False).is_empty()

    def test_closed_point_nonempty(self):
        assert not Interval(4, False, 4, False).is_empty()


class TestUnionHelpers:
    def test_reduce_union_drops_subsumed(self):
        big = zone_from([(1, 0, bound(5))])
        small = zone_from([(1, 0, bound(2))])
        assert reduce_union([small, big]) == [big]

    def test_reduce_union_drops_empty(self):
        empty = zone_from([(1, 0, bound(0, strict=True))])
        assert reduce_union([empty]) == []

    def test_union_cover_needs_both_pieces(self):
        whole = zone_from([(1, 0, bound(6))])
        lowhalf = zone_from([(1, 0, bound(3))])
        highhalf = zone_from([(0, 1, bound(-3))])
        assert not included_in_union(whole, [lowhalf])
        assert included_in_union(whole, [lowhalf, highhalf])
