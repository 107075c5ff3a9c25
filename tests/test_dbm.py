"""Zone-engine tests: brute-force grids as the ground truth.

The oracle enumerates integer valuations on a small grid and evaluates the
raw constraint list directly; the DBM under test must agree after
canonicalization and after every operation.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delaymon.dbm import (
    DBM,
    INF,
    Interval,
    LE_ZERO,
    MAX_SCALED,
    ScaleError,
    bound,
    bound_is_strict,
    bound_value,
    format_scaled,
    included_in_union,
    merge_difference_bounds,
    parse_scaled,
    reduce_union,
)

from helpers_automata import (
    difference_bounds,
    textbook_down,
    textbook_meet,
    textbook_pre,
    textbook_reset,
    textbook_up,
    zone_contains,
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
    return {v for v in grid_points(z.dim) if zone_contains(z, v)}


# hypothesis strategy: random constraint lists over 2 real clocks (+ ref)
constraint = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(-4, 6), st.booleans()
).map(lambda t: (t[0], t[1], bound(t[2], strict=t[3])))
constraints = st.lists(constraint, max_size=8)


NAN, NEG, BIG = "not a number", "is negative", "is too large"
PREC = "needs more precision"

# Per decimal, its value or a fragment of its message at scales 1, 10 and
# 100: the CLI fuzzer's FUZZ_NUMBERS, then edge cases of the grammar.
DECIMALS = {
    "0": (0, 0, 0),
    "-1": (NEG, NEG, NEG),
    "0.5": (PREC, 5, 50),
    "1e3": (NAN, NAN, NAN),
    "1/2": (NAN, NAN, NAN),
    "inf": (NAN, NAN, NAN),
    "1125899906842623": (2 ** 50 - 1, BIG, BIG),
    "1125899906842624": (BIG, BIG, BIG),
    "4611686018427387904": (BIG, BIG, BIG),
    "9" * 40: (BIG, BIG, BIG),
    "5.": (5, 50, 500),
    ".5": (PREC, 5, 50),
    "+5": (5, 50, 500),
    "-0": (0, 0, 0),
    "00.10": (PREC, 1, 10),
    "-99999999999999999": (NEG, NEG, NEG),
    "9" * 5000: (BIG, BIG, BIG),
}


class TestDecimals:
    @pytest.mark.parametrize("text", DECIMALS, ids=lambda t: (
        t if len(t) <= 40 else f"{len(t)}-digits"))
    def test_value_or_message(self, text):
        for scale, want in zip((1, 10, 100), DECIMALS[text]):
            if isinstance(want, int):
                assert parse_scaled(text, scale, "v") == want
            else:
                with pytest.raises(ScaleError, match=want):
                    parse_scaled(text, scale, "v")

    @given(st.integers(0, MAX_SCALED - 1), st.sampled_from([1, 10, 100, 1000]))
    @example(MAX_SCALED - 1, 1)
    @example(MAX_SCALED - 1, 1000)
    def test_format_roundtrip(self, value, scale):
        assert parse_scaled(format_scaled(value, scale), scale, "v") == value

    @pytest.mark.parametrize("scale", [0, 3, 20, -10])
    def test_scale_must_be_a_power_of_ten(self, scale):
        # twice each: the scale's digits are cached, its refusal is not
        for _ in range(2):
            with pytest.raises(ValueError, match="not a power of ten"):
                parse_scaled("1", scale, "v")
            with pytest.raises(ValueError, match="not a power of ten"):
                format_scaled(1, scale)


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

    @given(st.integers(-MAX_SCALED, MAX_SCALED), st.booleans(),
           st.integers(-MAX_SCALED, MAX_SCALED), st.booleans())
    @example(-1, True, -1, True)
    @example(-1, False, 0, True)
    def test_sum_is_one_expression(self, x, x_strict, y, y_strict):
        # the kernel adds two finite encoded bounds as a + c - ((a | c) & 1)
        a, c = bound(x, strict=x_strict), bound(y, strict=y_strict)
        assert a + c - ((a | c) & 1) == bound(
            bound_value(a) + bound_value(c),
            strict=bound_is_strict(a) or bound_is_strict(c))


# Zones with their constants in thirds of a unit and every clock in
# [0, 6]: each region of such a zone holds a point with coordinates in
# thirds (two clocks need no finer fractions), so the grid of thirds
# decides inclusion in a union exactly.
THIRDS = range(0, 19)


def boxed_zone(cons: list[tuple[int, int, int]]) -> DBM:
    """The zone of ``cons`` in thirds, within the box [0, 6] per clock."""
    box = [(1, 0, bound(18)), (2, 0, bound(18))]
    return zone_from([(i, j, bound(3 * bound_value(b), bound_is_strict(b)))
                      for i, j, b in cons] + box)


def thirds_of(z: DBM) -> set[tuple[int, ...]]:
    return {v for v in itertools.product([0], THIRDS, THIRDS)
            if zone_contains(z, v)}


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
        assert zone_contains(z, (0, 3, 0))

    def test_close_idempotent(self):
        z = zone_from([(1, 2, bound(1)), (2, 0, bound(4, strict=True))])
        assert DBM(z.dim, z.copy_matrix()) == z

    @given(constraints)
    @settings(max_examples=150, deadline=None)
    def test_membership_matches_raw_constraints(self, cons):
        z = zone_from(cons)
        raw = [(i, j, b) for i, j, b in cons]
        for v in grid_points(3):
            assert zone_contains(z, v) == raw_satisfies(raw, v)


class TestOperations:
    @given(constraints)
    @settings(max_examples=80, deadline=None)
    def test_up_keeps_differences_drops_upper(self, cons):
        z = zone_from(cons)
        assume(not z.is_empty())
        u = z.elapse(())
        for v in points_of(z):
            # every uniform time shift of a member stays in up(z)
            for d in range(0, 3):
                shifted = (0, v[1] + d, v[2] + d)
                assert zone_contains(u, shifted)
        assert u.includes(z)

    @given(constraints)
    @settings(max_examples=80, deadline=None)
    def test_reset_sends_members_to_zero(self, cons):
        z = zone_from(cons)
        assume(not z.is_empty())
        r = z.and_constraints((), [1])
        expect = {(0, 0, v[2]) for v in points_of(z)}
        assert expect <= points_of(r)
        for v in points_of(r):
            assert v[1] == 0

    @given(constraints)
    @settings(max_examples=80, deadline=None)
    def test_free_is_existential_projection(self, cons):
        # The preimage of a reset of x1 frees x1 in the zone pinned at
        # x1 = 0: with no delay, any x1 leads to a member.
        z = zone_from(cons)
        assume(not z.is_empty())
        f = z.pre((), [1])
        reachable = {v[2] for v in points_of(z) if v[1] == 0}
        for v in grid_points(3):
            if v[2] in reachable:
                assert zone_contains(f, v)

    @given(constraints, constraints)
    @settings(max_examples=80, deadline=None)
    def test_intersect_is_set_intersection(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        both = zone_from(c1 + c2)
        assert points_of(both) == points_of(a) & points_of(b)

    @given(constraints, constraints)
    @settings(max_examples=80, deadline=None)
    def test_includes_sound_on_grid(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        assume(not a.is_empty() and not b.is_empty())
        if a.includes(b):
            assert points_of(b) <= points_of(a)

    @given(constraints, constraints)
    @settings(max_examples=60, deadline=None)
    def test_subtract_partitions_grid(self, c1, c2):
        a, b = zone_from(c1), zone_from(c2)
        assume(not a.is_empty() and not b.is_empty())
        pieces = a.subtract(b)
        covered: set[tuple[int, ...]] = set()
        for p in pieces:
            pts = points_of(p)
            assert not pts & covered  # disjoint
            covered |= pts
        assert covered == points_of(a) - points_of(b)

    @given(constraints, st.lists(constraints, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_included_in_union_exact_on_grid(self, c, cs):
        a, zs = boxed_zone(c), [boxed_zone(x) for x in cs]
        assume(not a.is_empty())
        zs = [z for z in zs if not z.is_empty()]  # they cover nothing
        union = set().union(*map(thirds_of, zs))
        assert included_in_union(a, zs) == (thirds_of(a) <= union)

    def test_restrict_projects_submatrix(self):
        z = zone_from([(1, 0, bound(4)), (2, 1, bound(1)), (0, 2, bound(0))])
        p = z.restrict([2])
        assert p.dim == 2
        for v in grid_points(3):
            if zone_contains(z, v):
                assert zone_contains(p, (0, v[2]))

    def test_reset_reference_clock_rejected(self):
        with pytest.raises(ValueError):
            DBM.universal(3).and_constraints((), [0])

    def test_contradicted_meet_builds_one_empty_zone(self, monkeypatch):
        # 1 <= x1 <= 3 met with x1 < 1: the first tightening constraint
        # contradicts the zone, which is answered before any copy
        z = zone_from([(1, 0, bound(3)), (0, 1, bound(-1))])
        before = [row[:] for row in z.m]
        built, copies = [], []
        init, copy = DBM.__init__, DBM.copy_matrix

        def counted(dbm, *args, **kwargs):
            built.append(dbm)
            init(dbm, *args, **kwargs)

        def counted_copy(dbm):
            copies.append(dbm)
            return copy(dbm)
        monkeypatch.setattr(DBM, "__init__", counted)
        monkeypatch.setattr(DBM, "copy_matrix", counted_copy)
        empty = z.and_constraints(((1, 0, bound(1, strict=True)),))
        monkeypatch.undo()

        assert built == [empty] and copies == []
        assert empty.is_empty()
        assert z.m == before and not z.is_empty()
        assert empty == zone_from([(1, 0, bound(0, strict=True))])


class TestDifferenceBounds:
    def test_bounded_difference(self):
        # 1 <= x - y <= 5, upper strict
        z = zone_from([(1, 2, bound(5, strict=True)), (2, 1, bound(-1))])
        iv = difference_bounds(z, 1, 2)
        assert (iv.lo, iv.lo_strict, iv.hi, iv.hi_strict) == (1, False, 5, True)

    def test_unbounded_above(self):
        z = zone_from([(2, 1, bound(-1))])
        iv = difference_bounds(z, 1, 2)
        assert iv.hi == INF and iv.lo == 1

    def test_negation_symmetry(self):
        z = zone_from([(1, 2, bound(5, strict=True)), (2, 1, bound(-1))])
        # x - y in [1, 5), so y - x in (-5, -1]
        fwd, back = difference_bounds(z, 1, 2), difference_bounds(z, 2, 1)
        assert (fwd.lo, fwd.lo_strict, fwd.hi, fwd.hi_strict) == (
            1, False, 5, True)
        assert (back.lo, back.lo_strict, back.hi, back.hi_strict) == (
            -5, True, -1, False)


class TestInterval:
    def test_open_point_is_empty(self):
        assert not any(Interval(4, True, 4, False).contains(v)
                       for v in (3, 4, 5))

    def test_closed_point_nonempty(self):
        assert Interval(4, False, 4, False).contains(4)


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Reference: union of nonempty intervals as a sorted list of maximal
    disjoint intervals, merged on decoded endpoints."""
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.lo_strict))
    out: list[Interval] = []
    for iv in ivs:
        if out:
            last = out[-1]
            touches = (
                last.hi == INF
                or iv.lo < last.hi
                or (iv.lo == last.hi and not (iv.lo_strict and last.hi_strict))
            )
            if touches:
                new_hi, new_hi_s = last.hi, last.hi_strict
                if last.hi != INF and (
                        iv.hi == INF or iv.hi > last.hi
                        or (iv.hi == last.hi and last.hi_strict
                            and not iv.hi_strict)):
                    new_hi, new_hi_s = iv.hi, iv.hi_strict
                out[-1] = Interval(last.lo, last.lo_strict, new_hi, new_hi_s)
                continue
        out.append(iv)
    return out


def encoded(lo: int, lo_strict: bool, hi: int, hi_strict: bool
            ) -> tuple[int, int]:
    """``(m[y][x], m[x][y])`` of a zone in which ``x - y`` ranges over the
    interval; ``-INF``/``INF`` ends are unbounded."""
    return (INF if lo == -INF else bound(-lo, strict=lo_strict),
            INF if hi == INF else bound(hi, strict=hi_strict))


def decoded(lo_b: int, up_b: int) -> Interval:
    """Reference decoding of an encoded pair, endpoint by endpoint."""
    return Interval(-INF if lo_b == INF else -bound_value(lo_b),
                    bound_is_strict(lo_b) if lo_b != INF else True,
                    INF if up_b == INF else bound_value(up_b),
                    bound_is_strict(up_b) if up_b != INF else True)


class TestMergeDifferenceBounds:
    @staticmethod
    def random_pairs(rng: random.Random) -> list[tuple[int, int]]:
        """A union of nonempty ranges over few endpoint values, so ends
        often meet, in all four strictness pairs, and ranges repeat."""
        pool = []
        for _ in range(rng.randint(1, 6)):
            lo = -INF if rng.random() < 0.15 else rng.randint(-4, 4)
            hi = INF if rng.random() < 0.15 else rng.randint(
                -4 if lo == -INF else lo, 5)
            lo_s, hi_s = rng.random() < 0.5, rng.random() < 0.5
            if lo == hi:
                lo_s = hi_s = False
            pool.append(encoded(lo, lo_s, hi, hi_s))
        return [rng.choice(pool) for _ in range(rng.randint(1, 10))]

    def test_matches_merge_on_decoded_intervals(self):
        for seed in range(3000):
            rng = random.Random(seed)
            pairs = self.random_pairs(rng)
            ref = merge_intervals([decoded(*p) for p in pairs])
            assert merge_difference_bounds(
                sorted(pairs, reverse=True)) == tuple(ref), pairs

    @pytest.mark.parametrize("first_open,second_open,pieces", [
        (True, True, 2), (True, False, 1), (False, True, 1),
        (False, False, 1)])
    def test_touching_ends(self, first_open, second_open, pieces):
        # [0,1) and (1,2] leave the point 1 out; any closed end covers it
        pairs = [encoded(0, False, 1, first_open),
                 encoded(1, second_open, 2, False)]
        merged = merge_difference_bounds(pairs)
        assert len(merged) == pieces
        assert merged == tuple(merge_intervals(decoded(*p) for p in pairs))

    def test_unbounded_ends(self):
        merged = merge_difference_bounds(
            [encoded(-INF, True, -1, False), encoded(3, True, INF, True)])
        assert merged == (Interval(-INF, True, -1, False),
                          Interval(3, True, INF, True))

    def test_empty_union(self):
        assert merge_difference_bounds([]) == ()


class TestUnionHelpers:
    def test_reduce_union_drops_subsumed(self):
        big = zone_from([(1, 0, bound(5))])
        small = zone_from([(1, 0, bound(2))])
        assert reduce_union([small, big]) == [big]

    def test_reduce_union_leaves_out_skipped_clocks(self):
        # dim 3: the zones differ only in clock 1, so with clock 1 left out
        # the later one is covered by the first, which is kept whole.
        a = zone_from([(1, 0, bound(2)), (2, 0, bound(5))])
        b = zone_from([(0, 1, bound(-3)), (2, 0, bound(5))])
        assert reduce_union([a, b]) == [a, b]
        assert reduce_union([a, b], skip=0b10) == [a]
        assert reduce_union([a, b], skip=0b100) == [a, b]

    def test_union_cover_needs_both_pieces(self):
        whole = zone_from([(1, 0, bound(6))])
        lowhalf = zone_from([(1, 0, bound(3))])
        highhalf = zone_from([(0, 1, bound(-3))])
        assert not included_in_union(whole, [lowhalf])
        assert included_in_union(whole, [lowhalf, highhalf])

    def test_every_union_branch_exact_on_grid(self, monkeypatch):
        """Seeded unions of up to three zones, each answered as the grid of
        thirds answers it.  Every branch is taken: a member includes the
        zone, at most one member is left, or several are and only then does
        subtraction run."""
        subtracted = []
        subtract = DBM.subtract

        def counted_subtract(zone, other):
            subtracted.append(1)
            return subtract(zone, other)

        monkeypatch.setattr(DBM, "subtract", counted_subtract)
        rng = random.Random(11)
        taken: dict[str, int] = {}
        for _ in range(600):
            a = boxed_zone(random_constraints(rng, 3, rng.randint(1, 4)))
            if a.is_empty():
                continue
            zs = [boxed_zone(random_constraints(rng, 3, rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 3))]
            zs = [z for z in zs if not z.is_empty()]  # they cover nothing
            union = set().union(*map(thirds_of, zs))
            subtracted.clear()
            assert included_in_union(a, zs) == (thirds_of(a) <= union)
            branch = union_branch(a, zs)
            assert bool(subtracted) == (branch == "subtract"), branch
            taken[branch] = taken.get(branch, 0) + 1
        assert set(taken) == {"includes", "one left", "subtract"}, taken


def union_branch(zone: DBM, zones: list[DBM]) -> str:
    """Which of its branches :func:`included_in_union` takes."""
    if any(z.includes(zone) for z in zones):
        return "includes"
    return "one left" if len(zones) < 2 else "subtract"


# -- the incremental kernel against the full closure ---------------------------
#
# ``DBM(dim, m)`` closes an arbitrary matrix with Floyd-Warshall; each
# operation below must give the very same canonical matrix (or emptiness)
# as applying its textbook definition to a copy and closing that.

DIMS = range(2, 9)
ZONES_PER_DIM = 60


def random_constraints(rng: random.Random, dim: int, k: int
                       ) -> list[tuple[int, int, int]]:
    return [(*rng.sample(range(dim), 2),
             bound(rng.randint(-6, 10), strict=rng.random() < 0.3))
            for _ in range(k)]


def random_zones(dim: int) -> Iterable[tuple[random.Random, DBM]]:
    """Seeded nonempty canonical zones; a few clocks may go negative."""
    rng = random.Random(dim)
    made = 0
    while made < ZONES_PER_DIM:
        nonneg = [c for c in range(1, dim) if rng.random() < 0.8]
        base = DBM.universal(dim, nonneg=nonneg)
        z = textbook_meet(
            base, random_constraints(rng, dim, rng.randint(0, dim)))
        if not z.is_empty():
            made += 1
            yield rng, z


def entries(z: DBM) -> list[tuple[int, int, int]]:
    return [(i, j, b) for i, row in enumerate(z.m) for j, b in enumerate(row)]


def assert_same(fast: DBM, ref: DBM) -> None:
    assert fast.is_empty() == ref.is_empty()
    if not ref.is_empty():
        assert fast.m == ref.m


@pytest.mark.parametrize("dim", DIMS)
class TestKernelMatchesClosure:
    def test_and_constraint(self, dim):
        for rng, z in random_zones(dim):
            (c,) = random_constraints(rng, dim, 1)
            assert_same(z.and_constraints((c,)), textbook_meet(z, [c]))

    def test_and_constraints(self, dim):
        for rng, z in random_zones(dim):
            cons = random_constraints(rng, dim, rng.randint(1, 2 * dim))
            assert_same(z.and_constraints(cons), textbook_meet(z, cons))

    # Each fused operation against its textbook steps, each step closed
    # fully; the degenerate cases first.

    def test_up(self, dim):
        for _, z in random_zones(dim):
            assert_same(z.elapse(()), textbook_up(z))

    def test_reset(self, dim):
        for rng, z in random_zones(dim):
            cs = tuple(sorted(rng.sample(range(1, dim),
                                         rng.randint(1, dim - 1))))
            assert_same(z.and_constraints((), cs), textbook_reset(z, cs))

    def test_down(self, dim):
        for _, z in random_zones(dim):
            assert_same(z.pre((), ()), textbook_down(z))

    def test_free(self, dim):
        # pin the reset clocks to 0, free them, then down
        for rng, z in random_zones(dim):
            cs = tuple(sorted(rng.sample(range(1, dim),
                                         rng.randint(1, dim - 1))))
            assert_same(z.pre((), cs), textbook_pre(z, (), cs))

    def test_elapse_then_window(self, dim):
        # up, then one clock's window, as post and the verdict probe do;
        # random_zones lets clocks go negative, like an input channel's
        outcomes = set()
        for rng, z in random_zones(dim):
            for _ in range(4):
                c = rng.randrange(1, dim)
                lo = rng.randint(-6, 10)
                window = [(c, 0, bound(lo + rng.randint(0, 3))),
                          (0, c, bound(-lo))]
                ref = textbook_meet(textbook_up(z), window)
                assert_same(z.elapse(window), ref)
                outcomes.add(ref.is_empty())
        assert outcomes == {True, False}

    def test_guard_then_reset(self, dim):
        outcomes = set()
        for rng, z in random_zones(dim):
            for _ in range(4):
                guard = random_constraints(rng, dim, rng.randint(0, 3))
                resets = tuple(sorted(rng.sample(range(1, dim),
                                                 rng.randint(0, dim - 1))))
                fast = z.and_constraints(guard, resets)
                ref = textbook_reset(textbook_meet(z, guard), resets)
                assert_same(fast, ref)
                if not resets and textbook_meet(z, guard) == z:
                    assert fast is z  # no copy when nothing changes
                outcomes.add(ref.is_empty())
        assert outcomes == {True, False}

    def test_pre_edge(self, dim):
        # pin, free, guard, down; count where the textbook chain empties
        emptied = {"pin": 0, "guard": 0, "none": 0}
        for rng, z in random_zones(dim):
            for _ in range(4):
                guard = random_constraints(rng, dim, rng.randint(0, 3))
                resets = tuple(sorted(rng.sample(range(1, dim),
                                                 rng.randint(0, dim - 1))))
                ref = textbook_pre(z, guard, resets)
                assert_same(z.pre(guard, resets), ref)
                pinned = textbook_meet(
                    z, [(x, 0, LE_ZERO) for x in resets]
                    + [(0, x, LE_ZERO) for x in resets])
                emptied["pin" if pinned.is_empty() else
                        "guard" if ref.is_empty() else "none"] += 1
        assert all(emptied.values()), emptied

    def test_intersects(self, dim):
        # meeting two zones by tightening one with the other's entries, as
        # the verdict probe and the latency report do
        zones = [z for _, z in random_zones(dim)]
        for a, b in zip(zones, zones[1:]):
            assert_same(a.and_constraints(b.constraints()),
                        textbook_meet(a, entries(b)))


def test_intersects_needs_more_than_the_pair_test():
    """Both zones are nonempty, no pair ``a[i][j] + b[j][i]`` is negative,
    yet x5 <= x3 - 2 (a), x3 <= x2 + 5 (b), x2 <= x1 - 4 (a) and x1 <= x5
    (b) chain into x5 <= x5 - 1."""
    a = DBM.universal(7).and_constraints(
        [(5, 3, bound(-2)), (2, 1, bound(-4))])
    b = DBM.universal(7).and_constraints(
        [(1, 5, bound(0)), (3, 2, bound(5))])
    assert not a.is_empty() and not b.is_empty()
    assert all(
        bound_value(a.m[i][j]) + bound_value(b.m[j][i]) >= 0
        for i in range(7) for j in range(7)
        if INF not in (a.m[i][j], b.m[j][i]))
    assert a.and_constraints(b.constraints()).is_empty()
    assert b.and_constraints(a.constraints()).is_empty()
    assert textbook_meet(a, entries(b)).is_empty()
