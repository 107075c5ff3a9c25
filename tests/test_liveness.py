"""Nonemptiness-map tests against the explicit region-graph oracle."""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest

import delaymon.liveness as liveness
import delaymon.monitor as monitor_module
from delaymon.automata import (
    AtomicConstraint,
    SymbolicState,
    TBA,
    Transition,
    io_alternation_product,
    parse_tba,
    post,
)
from delaymon.cli import main as cli_main
from delaymon.dbm import (DBM, LE_ZERO, bound, bound_value,
                          included_in_union, reduce_union)
from delaymon.liveness import (LivenessError, intersects_nonempty,
                               nonempty_states)
from delaymon.monitor import DelayBounds, Monitor, Verdict

from helpers_automata import (
    eventually_then_safe_tba,
    nonempty_contains,
    random_tba,
    scale_tba,
    textbook_down,
    textbook_free,
    textbook_meet,
    with_io,
    with_islands,
)
from helpers_oracle import complement_pair
from helpers_regions import RegionGraph
from test_monitor import loop_pair


def zone_x_le(c: int) -> DBM:
    return DBM.universal(2).and_constraints(((1, 0, bound(c)),))


def federation_equals(zones, expected) -> bool:
    zones, expected = list(zones), list(expected)
    return (all(included_in_union(z, expected) for z in zones)
            and all(included_in_union(z, zones) for z in expected))


class TestKnownMaps:
    def test_good_variant(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=True))
        assert set(m.zones) == {"q0", "q1", "good"}
        assert federation_equals(m.zones["q0"], [zone_x_le(100)])
        assert federation_equals(m.zones["q1"], [DBM.universal(2)])
        assert federation_equals(m.zones["good"], [DBM.universal(2)])

    def test_bad_variant(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=False))
        assert set(m.zones) == {"q0", "q1", "bad"}
        assert federation_equals(m.zones["q0"], [DBM.universal(2)])
        assert federation_equals(m.zones["q1"], [zone_x_le(200)])
        assert federation_equals(m.zones["bad"], [DBM.universal(2)])

    def test_no_accepting_location(self):
        a = eventually_then_safe_tba(accept_good=True)
        stripped = TBA(
            alphabet=a.alphabet, locations=a.locations, initial=a.initial,
            clocks=a.clocks, transitions=a.transitions,
            accepting=frozenset())
        assert nonempty_states(stripped).zones == {}

    def test_unreachable_accepting_location(self):
        t = [
            Transition("p", "p", "a"),
            Transition("island", "island", "a"),
        ]
        a = TBA(alphabet=frozenset("a"),
                locations=frozenset({"p", "island"}),
                initial=frozenset({"p"}), clocks=(),
                transitions=tuple(t), accepting=frozenset({"island"}))
        m = nonempty_states(a)
        assert set(m.zones) == {"island"}

    def test_zeno_only_acceptance_rejected(self):
        # accepting self-loop under x <= 5 with no reset: time cannot
        # diverge, so no state qualifies
        a = TBA(alphabet=frozenset("a"), locations=frozenset({"q"}),
                initial=frozenset({"q"}), clocks=("x",),
                transitions=(Transition("q", "q", "a",
                                        guard=(AtomicConstraint("x", "<=", 5),)),),
                accepting=frozenset({"q"}))
        assert nonempty_states(a).zones == {}

    def test_reset_restores_divergence(self):
        a = TBA(alphabet=frozenset("a"), locations=frozenset({"q"}),
                initial=frozenset({"q"}), clocks=("x",),
                transitions=(Transition(
                    "q", "q", "a", resets=frozenset({"x"}),
                    guard=(AtomicConstraint("x", "<=", 5),)),),
                accepting=frozenset({"q"}))
        m = nonempty_states(a)
        assert federation_equals(m.zones["q"], [zone_x_le(5)])


class TestProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_region_oracle(self, seed):
        """Quarter-grid membership sampling vs explicit region analysis."""
        rng = random.Random(1000 + seed)
        base = random_tba(rng, n_clocks=rng.choice([1, 2]), max_const=3)
        sym = nonempty_states(scale_tba(base, 4))
        oracle = RegionGraph(base)
        span = (max((g.constant for t in base.transitions
                     for g in t.guard), default=1) + 2) * 4
        points = range(0, span, 3)  # quarters, deliberately off-grid steps
        n = len(base.clocks)
        for loc in sorted(base.locations):
            for vals in itertools.product(points, repeat=n):
                got = nonempty_contains(sym, loc, vals)
                want = oracle.has_accepting_run(loc, list(vals), denom=4)
                assert got == want, (loc, vals)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_accepting_set(self, seed):
        rng = random.Random(2000 + seed)
        a = random_tba(rng, n_clocks=1, max_const=3)
        bigger_f = a.accepting | {sorted(a.locations)[0]}
        b = TBA(alphabet=a.alphabet, locations=a.locations,
                initial=a.initial, clocks=a.clocks,
                transitions=a.transitions, accepting=frozenset(bigger_f))
        small = nonempty_states(a)
        big = nonempty_states(b)
        for q, zs in small.zones.items():
            for z in zs:
                assert included_in_union(z, big.zones.get(q, ()))

    def test_deterministic(self):
        a = eventually_then_safe_tba(accept_good=False)
        m1 = nonempty_states(a)
        m2 = nonempty_states(a)
        assert set(m1.zones) == set(m2.zones)
        for q in m1.zones:
            assert federation_equals(m1.zones[q], m2.zones[q])


SHIPPED = sorted(
    p for d in ("perfbench/inputs", "tests/fixtures")
    for p in (Path(__file__).parent.parent / d).glob("*.txt")
    if not p.name.endswith("_trace.txt"))
LADDER_3 = (Path(__file__).parent.parent / "perfbench" / "inputs"
            / "ladder_3_spec.txt")


def freed_zones_stay_nonempty(a: TBA) -> int:
    """Check that the nonempty set at each location is a cylinder in the
    location's inactive clocks, which pruning modulo those clocks relies
    on: every nonempty zone with them freed stays inside the set.  Returns
    how many zones had a clock to free."""
    nonempty = nonempty_states(a)
    inactive = a.inactive_clocks
    freed = 0
    for q, zs in nonempty.zones.items():
        skip = [i for i in range(1, 1 + len(a.clocks))
                if inactive.get(q, 0) >> i & 1]
        if not skip:
            continue
        for z in zs:
            assert included_in_union(textbook_free(z, skip), zs), q
            freed += 1
    return freed


class TestNonEmptyIsCylinderInInactiveClocks:
    @pytest.mark.parametrize("seed", range(12))
    def test_random(self, seed):
        rng = random.Random(3000 + seed)
        a = random_tba(rng, n_clocks=rng.choice([2, 3]), max_const=3,
                       guard_ratio=0.3)
        freed_zones_stay_nonempty(a)
        freed_zones_stay_nonempty(io_alternation_product(with_io(a)))

    def test_shipped_automata_and_io_products(self):
        freed = 0
        for path in SHIPPED:
            a = parse_tba(path.read_text(), 10)
            freed += freed_zones_stay_nonempty(a)
            if a.has_io_partition:
                freed += freed_zones_stay_nonempty(io_alternation_product(a))
        assert len(SHIPPED) >= 16 and freed > 0


def nonempty_is_closed_backward(a: TBA) -> int:
    """Check that nothing leaves the nonempty set going backward: every
    state that can delay and take an edge into it, or delay into it, is in
    it.  Returns how many edge preimages were checked."""
    zones = nonempty_states(a).zones
    checked = 0
    for q, zs in zones.items():
        for z in zs:
            assert included_in_union(textbook_down(z), zs), q
    for e in a.compiled:
        for z in zones.get(e.dst, ()):
            p = z.pre(e.guard, e.resets)
            if not p.is_empty():
                assert included_in_union(p, zones.get(e.src, ())), e
                checked += 1
    return checked


class TestNonEmptyIsClosedBackward:
    @pytest.mark.parametrize("seed", range(12))
    def test_random(self, seed):
        rng = random.Random(4000 + seed)
        a = random_tba(rng, n_clocks=rng.choice([1, 2, 3]), max_const=3,
                       guard_ratio=0.4)
        nonempty_is_closed_backward(a)
        nonempty_is_closed_backward(io_alternation_product(with_io(a)))

    def test_shipped_automata_and_io_products(self):
        checked = 0
        for path in SHIPPED:
            a = parse_tba(path.read_text(), 10)
            checked += nonempty_is_closed_backward(a)
            if a.has_io_partition:
                checked += nonempty_is_closed_backward(
                    io_alternation_product(a))
        assert len(SHIPPED) >= 16 and checked > 0


# The map of every shipped automaton, I/O product and reachable part, one
# line per analysis: its file, its kind, and its map in key order, each
# location with its matrices in zone order.
SEEDED_ANALYSIS = """
import sys
from pathlib import Path
from delaymon.automata import io_alternation_product, parse_tba
from delaymon.liveness import nonempty_states
for path in sys.argv[1:]:
    a = parse_tba(Path(path).read_text(), 10)
    kinds = {"automaton": a}
    if a.has_io_partition:
        kinds["product"] = io_alternation_product(a)
    for kind, b in kinds.items():
        for part, c in (("whole", b), ("reachable", b.reachable)):
            print(Path(path).name, kind, part, [
                (q, [z.m for z in zs])
                for q, zs in nonempty_states(c).zones.items()])
"""


class TestAnalysisIgnoresTheHashSeed:
    """String hashing orders a frozenset of locations, so an analysis that
    followed the stored order of the accepting set would list its zones in
    an order that changes with ``PYTHONHASHSEED``."""

    def test_shipped_automata_under_four_seeds(self):
        src = Path(__file__).resolve().parents[1] / "src"
        maps = [subprocess.run(
            [sys.executable, "-c", SEEDED_ANALYSIS, *map(str, SHIPPED)],
            env={**os.environ, "PYTHONHASHSEED": str(seed),
                 "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=300
        ).stdout.splitlines() for seed in range(4)]
        assert len(maps[0]) >= 60
        for other in maps[1:]:
            assert other == maps[0]


# -- the analysis against a two-space reference loop ------------------------
#
# The reference keeps each core zone over the automaton clocks alone: every
# round lifts it to one more clock, unconstrained even in sign (a textbook
# meet with a universal zone one clock larger), meets z >= K for the same
# lap schedule (K = 1, doubling each round up to the largest guard constant
# plus 1), and projects z away from every refreshed zone.  Its backward
# reach takes a preimage through every edge, also into a location whose
# zones already hold every valuation, and it tests union inclusion by
# subtraction alone.  The
# analysis must give the same map zone for zone, and its one budget must
# run out at the count of zones that all the reference's reaches inserted.


def reference_included_in_union(zone: DBM, zones) -> bool:
    assert not zone.is_empty()  # the analysis asks for nonempty zones only
    remains = [zone]
    for z in zones:
        nxt: list[DBM] = []
        for r in remains:
            nxt.extend(r.subtract(z))
        remains = nxt
        if not remains:
            return True
    return not remains


def reference_backward_reach(automaton: TBA, targets
                             ) -> tuple[dict[str, list[DBM]], int]:
    """The backward reach with no skip, and how many zones it inserted."""
    by_dst: dict = {}
    for e in automaton.compiled:
        by_dst.setdefault(e.dst, []).append(e)
    result: dict[str, list[DBM]] = {}
    queue = deque((q, z) for q, zs in targets.items() for z in zs)
    inserted = 0
    while queue:
        loc, zone = queue.popleft()
        for e in by_dst.get(loc, ()):
            p = zone.pre(e.guard, e.resets)
            if p.is_empty():
                continue
            have = result.setdefault(e.src, [])
            if reference_included_in_union(p, have):
                continue
            have[:] = [z for z in have if not p.includes(z)]
            have.append(p)
            queue.append((e.src, p))
            inserted += 1
    return result, inserted


def reference_embed(z: DBM) -> DBM:
    """``z`` with one more trailing clock that nothing constrains."""
    return textbook_meet(DBM.universal(z.dim + 1, nonneg=range(1, z.dim)),
                         z.constraints())


def reference_map(a: TBA) -> tuple[dict[str, list[DBM]], int]:
    """The two-space reference analysis of ``a`` and the zones that all its
    backward reaches inserted."""
    zi = len(a.clocks) + 1
    own = range(1, zi)  # the automaton's clocks
    accepting = sorted(a.accepting)
    core = {q: [DBM.universal(zi)] for q in accepting}
    cap = max((abs(bound_value(b)) for e in a.compiled for _, _, b in e.guard),
              default=0) + 1
    k = 1
    inserted = 0
    while True:
        back, n = reference_backward_reach(a, {
            q: [textbook_meet(reference_embed(z), [(0, zi, bound(-k))])
                for z in zs]
            for q, zs in core.items()})
        inserted += n
        refreshed = {}
        for q in accepting:
            pinned = (textbook_meet(z, [(zi, 0, LE_ZERO), (0, zi, LE_ZERO)])
                      for z in back.get(q, ()))
            zs = reduce_union(z.restrict(own) for z in pinned
                              if not z.is_empty())
            if zs:
                refreshed[q] = zs
        if all(reference_included_in_union(z, refreshed.get(q, ()))
               for q, zs in core.items() for z in zs):
            break
        core = refreshed
        k = min(2 * k, cap)
    return ({q: reduce_union(z.restrict(own) for z in zs)
             for q, zs in back.items()}, inserted)


def assert_same_as_reference(a: TBA) -> int:
    """Check the analysis of ``a`` against the reference: the same
    locations in the same order, and per location the same matrices in the
    same order.  Also check that the insertion budget runs out at the
    reference's count for the whole analysis.  Returns how many zones the
    map holds."""
    want, inserted = reference_map(a)
    got = nonempty_states(a)
    assert list(got.zones) == list(want)
    for q, zs in want.items():
        assert [(z.dim, z.m) for z in got.zones[q]] == [
            (z.dim, z.m) for z in zs], q
    with pytest.MonkeyPatch.context() as mp:
        if inserted:
            mp.setattr(liveness, "MAX_INSERTIONS", inserted - 1)
            with pytest.raises(LivenessError, match="iteration budget"):
                nonempty_states(a)
        mp.setattr(liveness, "MAX_INSERTIONS", inserted)
        nonempty_states(a)
    return sum(map(len, want.values()))


def shipped_and_products() -> list[TBA]:
    out = []
    for path in SHIPPED:
        a = parse_tba(path.read_text(), 10)
        out.append(a)
        if a.has_io_partition:
            out.append(io_alternation_product(a))
    return out


class TestMatchesReferenceLoop:
    def test_shipped_automata_and_io_products(self):
        zones = [assert_same_as_reference(a) for a in shipped_and_products()]
        assert len(zones) >= 30 and sum(zones) > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        rng = random.Random(5000 + seed)
        for _ in range(20):
            a = random_tba(rng, n_clocks=rng.choice([1, 2, 3]), max_const=3,
                           guard_ratio=0.4)
            assert_same_as_reference(a)
            assert_same_as_reference(io_alternation_product(with_io(a)))
            for b in complement_pair(rng, n_clocks=rng.choice([1, 2])):
                assert_same_as_reference(b)

    def test_full_location_takes_no_preimage(self, monkeypatch):
        """On ladder_2's complement I/O product most preimages land in a
        location that already holds every valuation (176 without the
        skip)."""
        comp = parse_tba((Path(__file__).parent.parent / "perfbench" / "inputs"
                          / "ladder_2_complement.txt").read_text(), 10)
        product = io_alternation_product(comp)
        calls = []
        pre = DBM.pre

        def counted_pre(zone, guard, resets):
            calls.append(1)
            return pre(zone, guard, resets)

        monkeypatch.setattr(DBM, "pre", counted_pre)
        nonempty_states(product)
        assert 0 < len(calls) <= 40


# -- engines analyse the reachable part ---------------------------------------


def assert_engine_map_agrees(a: TBA) -> bool:
    """Check the map that engines read for ``a``, the analysis of its
    reachable part, against the analysis of all of ``a``: the same
    locations with zones among those a run can enter, and at each the same
    valuations.  When both analyses run the same rounds, also check the
    same matrices in the same order, and return True: both seed the
    reachable accepting locations in sorted order, and a backward reach
    from the rest never enters the part.

    Otherwise the two can list a location's zones differently, with the
    same union: the whole automaton's analysis runs more rounds when a
    core outside the part settles later."""
    part = a.reachable
    rounds: list[int] = []
    reach = liveness._backward_reach

    def counted(*args):
        rounds.append(1)
        return reach(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liveness, "_backward_reach", counted)
        got = monitor_module._nonempty(a)
        analysed_rounds = len(rounds)
        full = nonempty_states(a)
    assert set(got.zones) == {q for q in full.zones if q in part.locations}
    for q, zones in got.zones.items():
        assert federation_equals(zones, full.zones[q]), q
    if len(rounds) != 2 * analysed_rounds:
        return False
    for q, zones in got.zones.items():
        assert [z.m for z in zones] == [z.m for z in full.zones[q]], q
    return True


class TestEnginesAnalyseTheReachablePart:
    def test_shipped_automata_and_io_products(self):
        automata = shipped_and_products()
        smaller = [a for a in automata if a.reachable is not a]
        same = sum(map(assert_engine_map_agrees, automata))
        assert len(smaller) >= 20 and same >= len(automata) // 2

    @pytest.mark.parametrize("seed", range(20))
    def test_random_with_islands(self, seed):
        rng = random.Random(6000 + seed)
        same = 0
        for _ in range(20):
            a = random_tba(rng, n_clocks=rng.choice([1, 2, 3]), max_const=3,
                           guard_ratio=0.4)
            same += assert_engine_map_agrees(with_islands(a, rng))
            same += assert_engine_map_agrees(io_alternation_product(
                with_io(with_islands(a, rng))))
            for b in complement_pair(rng, n_clocks=rng.choice([1, 2])):
                same += assert_engine_map_agrees(with_islands(b, rng))
        assert same >= 20

    def test_unreachable_part_spends_no_budget(self, monkeypatch):
        """An island, ladder_3's property that no run from ``p`` can
        enter, takes more zones than the lowered budget allows: it refuses
        the whole automaton, but not an engine on it."""
        ladder = parse_tba(LADDER_3.read_text(), 10)
        spec = dataclasses.replace(
            ladder, locations=ladder.locations | {"p"},
            initial=frozenset({"p"}),
            transitions=ladder.transitions + tuple(
                Transition("p", "p", a) for a in sorted(ladder.alphabet)),
            accepting=ladder.accepting | {"p"})
        comp = dataclasses.replace(spec, accepting=ladder.accepting)
        monkeypatch.setattr(liveness, "MAX_INSERTIONS", 50)
        for a in (spec, comp):
            with pytest.raises(LivenessError, match="iteration budget"):
                nonempty_states(a)
        m = Monitor(spec, comp, DelayBounds(0, 0, 0))
        assert m.verdict is Verdict.TRUE
        assert set(m.pos.nonempty.zones) == {"p"} and not m.neg.nonempty.zones


class TestOneBudget:
    """One budget, the zones inserted by all backward reaches of one
    analysis, bounds the rounds too.  The lap length doubles each round up
    to the largest guard constant plus 1, so a loop guarded by ``x<=c``
    takes about ``log2 c`` rounds: the largest legal constant, ``2**49``,
    takes 51."""

    @staticmethod
    def count_rounds(monkeypatch) -> list[int]:
        """Patch the backward reach to record the running insertion count
        after each round; one entry per round."""
        totals: list[int] = []
        reach = liveness._backward_reach

        def counted(*args):
            back, inserted = reach(*args)
            totals.append(inserted)
            return back, inserted
        monkeypatch.setattr(liveness, "_backward_reach", counted)
        return totals

    def test_large_constant_is_analysed(self):
        spec, comp = loop_pair(1000)
        assert nonempty_states(spec).zones == {}  # x<=1000 cannot diverge
        assert set(nonempty_states(comp).zones) == {"q", "bad"}

    def test_largest_constant_is_analysed_quickly(self):
        spec, comp = loop_pair(2 ** 49)
        start = time.thread_time()
        assert nonempty_states(spec).zones == {}
        assert time.thread_time() - start < 0.25
        assert set(nonempty_states(comp).zones) == {"q", "bad"}

    def test_rounds_stay_within_insertions(self, monkeypatch):
        totals = self.count_rounds(monkeypatch)
        nonempty_states(loop_pair(2 ** 49)[0])
        assert 50 <= len(totals) <= totals[-1] + 2

    def test_budget_ends_a_long_fixpoint(self, monkeypatch):
        """The budget ends the longest fixpoint, ``loop_pair(2**49)``'s 51
        rounds, and an analysis that inserts many zones in few rounds,
        ladder_3's I/O product (98 zones in 2 rounds), once either has
        inserted more zones than it allows."""
        ladder = parse_tba(LADDER_3.read_text(), 10)
        product = io_alternation_product(ladder)
        totals = self.count_rounds(monkeypatch)
        for a, budget in ((loop_pair(2 ** 49)[0], 25), (product, 50)):
            totals.clear()
            monkeypatch.setattr(liveness, "MAX_INSERTIONS", budget)
            start = time.thread_time()
            with pytest.raises(LivenessError, match="iteration budget"):
                nonempty_states(a)
            assert time.thread_time() - start < 1.0
            assert len(totals) <= budget + 2

    @staticmethod
    def run_loop_cli(capsys, tmp_path, c: str, scale: str,
                     trace: str) -> None:
        """Run the CLI on ``loop_pair``'s automata with ``x<=c`` and check
        that it ends with a verdict."""
        header = ("alphabet a\nclocks x\nlocation q initial{}\n"
                  f"location bad{{}}\nedge q -> q on a when x<={c}\n"
                  f"edge q -> bad on a when x>{c}\nedge bad -> bad on a\n")
        spec, comp, path = (tmp_path / name for name in (
            "spec.txt", "complement.txt", "trace.txt"))
        spec.write_text(header.format(" accepting", ""))
        comp.write_text(header.format("", " accepting"))
        path.write_text(trace)
        code = cli_main(["--spec", str(spec), "--complement", str(comp),
                         "--scale", scale, "--latency", "0", "1",
                         "--trace", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), err
        assert err == "" and "Verdict:" in out

    def test_cli_takes_a_loop_bound_of_100_at_scale_10(self, capsys,
                                                       tmp_path):
        self.run_loop_cli(capsys, tmp_path, "100", "10", "@5 a\n@99.5 a\n")

    def test_cli_takes_a_loop_bound_of_1000_at_scale_100(self, capsys,
                                                         tmp_path):
        self.run_loop_cli(capsys, tmp_path, "1000", "100",
                          "@5 a\n@999.25 a\n")


# A monitor's zones over eventually_then_safe_tba: x, then time and etime.
MONITOR_DIM = 4


class TestIntersection:
    def test_empty_reach_set(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=True))
        assert not intersects_nonempty([], m)

    def test_projection_before_test(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=True))
        # x pinned to 150 at q0: outside the x <= 100 nonempty zone
        z = DBM.universal(MONITOR_DIM).and_constraints(
            [(1, 0, bound(150)), (0, 1, bound(-150))])
        assert not intersects_nonempty([SymbolicState("q0", z)], m)
        z2 = DBM.universal(MONITOR_DIM).and_constraints(
            [(1, 0, bound(90)), (0, 1, bound(-90))])
        assert intersects_nonempty([SymbolicState("q0", z2)], m)

    def test_stops_at_first_live_state(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=True))
        dead = DBM.universal(MONITOR_DIM).and_constraints(
            [(1, 0, bound(150)), (0, 1, bound(-150))])
        live = DBM.universal(MONITOR_DIM).and_constraints(
            [(1, 0, bound(90)), (0, 1, bound(-90))])

        def states():
            yield SymbolicState("q0", dead)
            yield SymbolicState("q0", live)
            raise AssertionError("consumed past the first live state")
        assert intersects_nonempty(states(), m)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_projection_then_meet(self, seed):
        """Tightening a full reach zone by a nonempty zone's entries meets
        the same states as projecting the reach zone onto the automaton
        clocks first, whatever the auxiliary clocks and their signs."""
        rng = random.Random(3000 + seed)
        while True:  # draw until some location's zones constrain a clock
            a = random_tba(rng, n_clocks=rng.choice([1, 2]), max_const=4)
            m = nonempty_states(a)
            full = DBM.universal(1 + len(a.clocks))
            if any(zs != (full,) for zs in m.zones.values()):
                break
        # the automaton's clocks 1..n, then 1-3 auxiliary ones, some signed
        n = len(a.clocks)
        dim = 1 + n + rng.randint(1, 3)
        signed = {i for i in range(n + 1, dim) if rng.random() < 0.5}
        idx = list(range(1, n + 1))
        locations = sorted(a.locations)
        outcomes = set()
        for _ in range(150):
            cons = [(*rng.sample(range(dim), 2),
                     bound(rng.randint(-6, 10), strict=rng.random() < 0.3))
                    for _ in range(rng.randint(1, 2 * dim))]
            zone = DBM.universal(dim, set(range(1, dim)) - signed
                                 ).and_constraints(cons)
            if zone.is_empty():
                continue
            loc = rng.choice(locations)
            proj = zone.restrict(idx)
            want = any(not proj.and_constraints(z.constraints()).is_empty()
                       for z in m.zones.get(loc, ()))
            got = intersects_nonempty([SymbolicState(loc, zone)], m)
            assert got == want, (loc, zone)
            outcomes.add(got)
        assert outcomes == {True, False}


def walk_states(a: TBA, rng: random.Random, steps: int = 12
                ) -> list[SymbolicState]:
    """Reach states along a seeded walk of ``a``, stepped as a classic
    monitor steps them: the automaton's clocks, then time and one channel
    clock, each event pinning the channel clock to its stamp and taking a
    symbol with successors.  Stops early when no symbol has one."""
    ci = len(a.clocks) + 2
    horizon = 1 + max((abs(bound_value(b)) for e in a.compiled
                       for _, _, b in e.guard), default=0)
    states = [SymbolicState(q, DBM.universal(ci + 1))
              for q in sorted(a.initial)]
    seen, tau = list(states), 0
    for _ in range(steps):
        tau += rng.randint(0, horizon)
        window = [(ci, 0, bound(tau)), (0, ci, bound(-tau))]
        for symbol in rng.sample(sorted(a.alphabet), len(a.alphabet)):
            successors = post(states, symbol, a, window)
            if successors:
                break
        else:
            break
        states = rng.sample(successors, min(len(successors), 4))
        seen += states
    return seen


def check_nonempty_map(a: TBA, rng: random.Random) -> tuple[int, int]:
    """Check ``a``'s map: its full locations are those whose zones include
    the universal zone; each constraint tuple is its zone's finite entries
    less exactly the ``x >= 0`` ones, in the same order; and meeting reach
    zones of a seeded walk with either gives the same matrix.  Returns the
    full locations and the meets compared."""
    m = nonempty_states(a)
    universal = DBM.universal(1 + len(a.clocks))
    assert m.full == {q for q, zs in m.zones.items()
                      if any(z.includes(universal) for z in zs)}
    assert m.constraints.keys() == m.zones.keys()
    for q, zs in m.zones.items():
        assert len(m.constraints[q]) == len(zs)
        for z, cons in zip(zs, m.constraints[q]):
            whole = list(z.constraints())
            assert [c for c in whole if c in cons] == list(cons)
            assert [c for c in whole if c not in cons] == [
                (0, i, LE_ZERO) for i in range(1, z.dim)
                if z.m[0][i] == LE_ZERO]
    compared = 0
    for s in walk_states(a, rng):
        for z, cons in zip(m.zones.get(s.location, ()),
                           m.constraints.get(s.location, ())):
            old = s.zone.and_constraints(tuple(z.constraints()))
            new = s.zone.and_constraints(cons)
            assert old.is_empty() == new.is_empty()
            assert old.is_empty() or old.m == new.m
            compared += 1
    return len(m.full), compared


class TestNonEmptyMapLeavesOutNonNegativity:
    """Every reach zone has its automaton clocks at least 0, so the map's
    constraint tuples leave those bounds out: a full location's tuple is
    ``()``, and meeting a reach zone with it is the zone itself."""

    def test_shipped_automata_products_and_reachable_parts(self):
        rng = random.Random(7000)
        automata = []
        for a in shipped_and_products():
            automata += [a] if a.reachable is a else [a, a.reachable]
        full, compared = map(sum, zip(*(check_nonempty_map(a, rng)
                                        for a in automata)))
        assert len(automata) >= 40 and full > 0 and compared > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_random(self, seed):
        rng = random.Random(7100 + seed)
        full = compared = 0
        for _ in range(20):
            a = random_tba(rng, n_clocks=rng.choice([1, 2, 3]), max_const=4,
                           guard_ratio=0.4)
            f, c = check_nonempty_map(a, rng)
            full, compared = full + f, compared + c
        assert full > 0 and compared > 0

    def test_a_full_location_meets_without_a_copy(self):
        spec = eventually_then_safe_tba(accept_good=True)
        m = nonempty_states(spec)
        assert m.full and m.full < set(m.zones)
        z = DBM.universal(MONITOR_DIM).and_constraints(
            [(1, 0, bound(150)), (0, 1, bound(-150))])
        for q in m.full:
            assert m.constraints[q] == ((),)
            assert z.and_constraints(*m.constraints[q]) is z
