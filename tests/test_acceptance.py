"""Acceptance gate: end-to-end checks of every deliverable behavior.

Covers the hand-derived symbolic-state regressions, the golden CLI session,
the latency-band scenarios, the exact nonemptiness maps, high-volume oracle
equivalence for both engines, high-volume structural invariants, the
gear-controller fixture runs, and a throughput/size benchmark.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import gc
import random
import resource
import time
from pathlib import Path

import pytest

import delaymon.dbm as dbm_module
import delaymon.monitor as monitor_module
from delaymon.automata import (
    TBA,
    SymbolicState,
    TBAError,
    io_alternation_product,
    parse_tba,
    post,
    prune_subsumed,
)
from delaymon.cli import main, read_trace
from delaymon.dbm import (DBM, INF, LE_ZERO, bound, bound_value,
                          included_in_union)
from delaymon.liveness import nonempty_states
from delaymon.monitor import (
    ComplementViolationError,
    DelayBounds,
    Monitor,
    MonitorError,
    Verdict,
)
from delaymon.tester import IODelayBounds, Tester

from helpers_automata import (
    difference_bounds,
    eventually_then_safe_tba,
    holds,
    random_tba,
    rename_clock,
    request_response_tba,
    with_io,
    with_islands,
    with_unreached_location,
)
from helpers_oracle import IOOracleBounds, OracleBounds, complement_pair, \
    oracle_io_verdict, oracle_verdict
from helpers_regions import RegionGraph
from test_monitor import (DENOM, ETIME, TIME, X, make_monitor, random_setup,
                          spans)
from test_tester import random_io_setup

FIXTURES = Path(__file__).parent / "fixtures"


class TestSymbolicStateRegression:
    """Exact symbolic states for the delay monitor's worked run at scale 10:
    property "a within 10, then b no earlier than 20 later", latency in
    [0, 10], jitter bound 0.2, observations (a, 17.3), (b, 27.5)."""

    def test_initial_state(self):
        m = make_monitor(0, 100, 2)
        (s,) = m.pos.reach
        x, e = X, ETIME
        assert s.location == "q0"
        # [DERIVED] x = 0 and the event clock ranges over the latency band.
        assert spans([difference_bounds(s.zone, x, 0)]) == [
            (0, False, 0, False)]
        assert spans([difference_bounds(s.zone, e, 0)]) == [
            (0, False, 100, False)]

    def test_state_after_first_observation(self):
        m = make_monitor(0, 100, 2)
        assert m.observe("a", 173) is Verdict.INCONCLUSIVE
        x, e = X, ETIME
        assert {s.location for s in m.pos.reach} == {"q1", "bad"}
        (s,) = [st for st in m.pos.reach if st.location == "q1"]
        # [DERIVED] on-time branch: ground delivery within the guard window.
        assert spans([difference_bounds(s.zone, x, 0)]) == [
            (71, False, 100, False)]
        assert spans([difference_bounds(s.zone, e, 0)]) == [
            (171, False, 173, False)]
        assert spans([difference_bounds(s.zone, e, x)]) == [
            (71, False, 100, False)]
        (b,) = [st for st in m.pos.reach if st.location == "bad"]
        # [DERIVED] late branch: delivery after the deadline has passed.
        # No path from bad reads x, so the step frees it; ground time,
        # which x tracked until then, keeps the branch's bounds.
        t = TIME
        assert spans([difference_bounds(b.zone, x, 0)]) == [
            (0, False, INF, True)]
        assert spans([difference_bounds(b.zone, t, 0)]) == [
            (100, True, 173, False)]
        assert spans([difference_bounds(b.zone, e, x)]) == [
            (-INF, True, 173, False)]
        assert spans([difference_bounds(b.zone, e, t)]) == [
            (0, False, 73, True)]

    def test_state_after_second_observation(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 173)
        assert m.observe("b", 275) is Verdict.INCONCLUSIVE
        x, e = X, ETIME
        (s,) = [st for st in m.pos.reach if st.location == "good"]
        # [DERIVED] no path from good reads x, so the step frees it; ground
        # time, which x tracked until then, keeps its bounds
        t = TIME
        assert spans([difference_bounds(s.zone, x, 0)]) == [
            (0, False, INF, True)]
        assert spans([difference_bounds(s.zone, t, 0)]) == [
            (200, True, 204, False)]
        assert spans([difference_bounds(s.zone, e, 0)]) == [
            (273, False, 275, False)]
        assert spans([difference_bounds(s.zone, e, x)]) == [
            (-INF, True, 275, False)]
        assert spans([difference_bounds(s.zone, e, t)]) == [
            (71, False, 75, True)]

    def test_early_second_observation_is_a_violation(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 173)
        # [DERIVED] at 27.1 the response cannot be both on time for the
        # guard and consistent with the first delivery: verdict is FALSE.
        assert m.observe("b", 271) is Verdict.FALSE


class TestGoldenCliSession:
    """The CLI run of the same worked example, reproduced byte for byte."""

    GOLDEN = """\
Input: @173 a

Verdict: INCONCLUSIVE
Positive:
Consistent latencies: {[71,100]}
Jitter bound: 2
Negative:
Consistent latencies: {[0,100]}
Jitter bound: 2

Input: @275 b

Verdict: INCONCLUSIVE
Positive:
Consistent latencies: {[71,75)}
Jitter bound: 2
Negative:
Consistent latencies: {[0,100]}
Jitter bound: 2

"""

    def test_session_reproduced_exactly(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("@173 a\n@275 b\n")
        code = main([
            "--spec", str(FIXTURES / "deadline_spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--scale", "1", "--latency", "0", "100", "--jitter", "2",
            "--trace", str(trace),
        ])
        assert capsys.readouterr().out == self.GOLDEN
        assert code == 2


class TestLatencyBandScenarios:
    """Same trace, different channel assumptions, opposite outcomes."""

    def test_unbounded_latency_forces_violation(self):
        m = make_monitor(0, INF, 2)
        m.observe("a", 173)
        assert m.observe("b", 271) is Verdict.FALSE
        assert m.verdict_at(400) is Verdict.FALSE

    def test_narrow_band_stays_inconclusive(self):
        m = make_monitor(45, 80, 3)
        m.observe("a", 173)
        assert m.observe("b", 271) is Verdict.INCONCLUSIVE
        rep = m.latency_report()
        # [DERIVED] the satisfying explanations pin the latency to
        # [7, 7.1); the upper endpoint is strict because delivery exactly
        # 7.1 late puts the response on the closed guard boundary of the
        # violating branch only.
        assert spans(rep.positive) == [(70, False, 71, True)]
        # a future violation is still possible under every admissible
        # latency, so the negative set stays full
        assert spans(rep.negative) == [(45, False, 80, False)]


class TestNonEmptyMaps:
    """The per-location nonemptiness zones of the worked automaton pair."""

    @staticmethod
    def _federation_equals(zones, expected) -> bool:
        zones, expected = list(zones), list(expected)
        return (all(included_in_union(z, expected) for z in zones)
                and all(included_in_union(z, zones) for z in expected))

    def x_le(self, c: int) -> DBM:
        return DBM.universal(2).and_constraints(((1, 0, bound(c)),))

    def test_property_side_map(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=True))
        assert set(m.zones) == {"q0", "q1", "good"}
        # [DERIVED] acceptance requires reaching "good", so the initial
        # location is live only while the deadline guard x <= 10 can fire.
        assert self._federation_equals(m.zones["q0"], [self.x_le(100)])
        assert self._federation_equals(m.zones["q1"], [DBM.universal(2)])
        assert self._federation_equals(m.zones["good"], [DBM.universal(2)])

    def test_complement_side_map(self):
        m = nonempty_states(eventually_then_safe_tba(accept_good=False))
        assert set(m.zones) == {"q0", "q1", "bad"}
        # [DERIVED] the violation sink is reachable from q0 at any age
        # (miss the deadline), but from q1 only while x <= 20 can still
        # trap an early response.
        assert self._federation_equals(m.zones["q0"], [DBM.universal(2)])
        assert self._federation_equals(m.zones["q1"], [self.x_le(200)])
        assert self._federation_equals(m.zones["bad"], [DBM.universal(2)])


class TestOracleEquivalenceVolume:
    """High-volume randomized equivalence against the exact ground-truth
    enumeration oracles: every verdict of both engines must match."""

    def test_monitor_five_hundred_instances(self):
        deadline = time.monotonic() + 240
        for seed in range(500):
            rng = random.Random(1_000_000 + seed)
            unit_spec, unit_comp, spec, comp, bounds, events = \
                random_setup(rng)
            g_spec, g_comp = RegionGraph(unit_spec), RegionGraph(unit_comp)
            ob = OracleBounds(bounds.latency_low, bounds.latency_high,
                              bounds.jitter)
            m = Monitor(spec, comp, bounds)
            seen = []
            for sym, tau in events:
                got = m.observe(sym, tau)
                seen.append((sym, tau))
                want = oracle_verdict(spec, comp, g_spec, g_comp, ob, seen,
                                      tau, DENOM)
                assert got.value == want, (seed, seen, tau)
                if got.conclusive:
                    break
            else:
                t_late = events[-1][1] + rng.randint(0, 4) * DENOM + 2
                got = m.verdict_at(t_late)
                want = oracle_verdict(spec, comp, g_spec, g_comp, ob, seen,
                                      t_late, DENOM)
                assert got.value == want, (seed, seen, t_late)
            assert time.monotonic() < deadline, f"budget blown at {seed}"

    def test_tester_two_hundred_instances(self):
        deadline = time.monotonic() + 240
        for seed in range(200):
            rng = random.Random(2_000_000 + seed)
            unit_spec, unit_comp, spec, comp, bounds, ob, events, _ = \
                random_io_setup(rng)
            prod_spec = io_alternation_product(spec)
            prod_comp = io_alternation_product(comp)
            g_spec = RegionGraph(io_alternation_product(unit_spec))
            g_comp = RegionGraph(io_alternation_product(unit_comp))
            t = Tester(spec, comp, bounds)
            seen = []
            for sym, tau in events:
                got = t.observe_io(sym, tau)
                seen.append((sym, tau))
                want = oracle_io_verdict(prod_spec, prod_comp, g_spec,
                                         g_comp, ob, seen, tau, DENOM)
                assert got.value == want, (seed, seen, tau)
                if got.conclusive:
                    break
            else:
                t_late = events[-1][1] + rng.randint(0, 4) * DENOM + 2
                got = t.verdict_at(t_late)
                want = oracle_io_verdict(prod_spec, prod_comp, g_spec,
                                         g_comp, ob, seen, t_late, DENOM)
                assert got.value == want, (seed, seen, t_late)
            assert time.monotonic() < deadline, f"budget blown at {seed}"


class TestInvariantVolume:
    """Structural properties of the latency reports and verdicts, each
    exercised over at least a thousand randomized observation steps."""

    STEP_TARGET = 1000

    def test_latency_sets_shrink_and_stay_covering(self):
        steps = 0
        seed = 0
        while steps < self.STEP_TARGET:
            rng = random.Random(3_000_000 + seed)
            seed += 1
            _, _, spec, comp, bounds, events = random_setup(rng)
            if bounds.latency_high == bounds.latency_low == 0:
                continue
            m = Monitor(spec, comp, bounds)
            grid = range(bounds.latency_low, bounds.latency_high + 1)
            prev_pos = {d: True for d in grid}
            prev_neg = {d: True for d in grid}
            for sym, tau in events:
                v = m.observe(sym, tau)
                steps += 1
                rep = m.latency_report()
                pos = {d: any(iv.contains(d) for iv in rep.positive)
                       for d in grid}
                neg = {d: any(iv.contains(d) for iv in rep.negative)
                       for d in grid}
                for d in grid:
                    assert not (pos[d] and not prev_pos[d]), (seed, d)
                    assert not (neg[d] and not prev_neg[d]), (seed, d)
                    # every admissible latency explains at least one
                    # polarity at all times
                    assert pos[d] or neg[d], (seed, d)
                prev_pos, prev_neg = pos, neg
                if v.conclusive:
                    break

    def test_wider_delay_bounds_preserve_conclusive_verdicts(self):
        steps = 0
        seed = 0
        while steps < self.STEP_TARGET:
            rng = random.Random(4_000_000 + seed)
            seed += 1
            _, _, spec, comp, bounds, events = random_setup(rng)
            wide = DelayBounds(
                max(0, bounds.latency_low - DENOM),
                bounds.latency_high + rng.randint(0, 2) * DENOM,
                bounds.jitter + rng.randint(0, 1) * DENOM,
            )
            narrow_m = Monitor(spec, comp, bounds)
            wide_m = Monitor(spec, comp, wide)
            for sym, tau in events:
                vn = narrow_m.observe(sym, tau)
                vw = wide_m.observe(sym, tau)
                steps += 1
                # a verdict reached under the weaker channel assumption
                # holds a fortiori under the stronger one
                if vw.conclusive:
                    assert vn is vw, (seed, sym, tau)

    def test_verdicts_are_stable_once_conclusive(self):
        steps = 0
        seed = 0
        while steps < self.STEP_TARGET:
            rng = random.Random(5_000_000 + seed)
            seed += 1
            _, _, spec, comp, bounds, events = random_setup(rng)
            m = Monitor(spec, comp, bounds)
            concluded = None
            for sym, tau in events:
                v = m.observe(sym, tau)
                steps += 1
                if concluded is not None:
                    assert v is concluded, (seed, sym, tau)
                elif v.conclusive:
                    concluded = v
                    assert m.verdict_at(tau + 40) is v, (seed, tau)


GEAR_TEST_ARGS = [
    "--spec", str(FIXTURES / "gear_spec.txt"),
    "--complement", str(FIXTURES / "gear_complement.txt"),
    "--scale", "1", "--mode", "test",
]


class TestGearControllerRuns:
    """Replays of the shipped gear-controller test sessions: a request must
    be answered within 150..1205 ms; both sessions inject response-time
    errors and must be refuted at exactly the 22nd observation."""

    def run_fixture(self, capsys, tmp_path, trace: str, flags: list[str]):
        csv_path = tmp_path / "bounds.csv"
        code = main(GEAR_TEST_ARGS + flags + [
            "--trace", str(FIXTURES / trace), "--csv", str(csv_path)])
        capsys.readouterr()
        rows = [line.split(",")
                for line in csv_path.read_text().splitlines()[1:]]
        return code, rows

    def test_narrow_channel_session(self, capsys, tmp_path):
        code, rows = self.run_fixture(
            capsys, tmp_path, "gear_narrow_trace.txt",
            ["--in-latency", "10", "50", "--in-jitter", "10",
             "--out-latency", "60", "100", "--out-jitter", "10"])
        assert code == 1
        assert rows[-1][0] == "22" and len(rows) == 22
        # refuted: the positive latency cells are empty at the end
        assert all(cell == "" for cell in rows[-1][1:7])
        # [DERIVED] before the first response-time error the declared
        # bounds cannot be tightened at all...
        assert rows[14][1:7] == ["10", "50", "60", "100", "70", "150"]
        # ...and the error at observation 16 forces a large combined
        # lower-bound jump (70 -> 116) that excludes the true latencies
        # (input 45, output 65, combined 110).
        assert rows[15][1:7] == ["16", "50", "66", "100", "116", "150"]

    def test_wide_channel_session(self, capsys, tmp_path):
        code, rows = self.run_fixture(
            capsys, tmp_path, "gear_wide_trace.txt",
            ["--in-latency", "0", "90", "--in-jitter", "10",
             "--out-latency", "100", "200", "--out-jitter", "10"])
        assert code == 1
        assert rows[-1][0] == "22" and len(rows) == 22
        assert all(cell == "" for cell in rows[-1][1:7])
        # [DERIVED] the single error at observation 2 already caps the
        # combined latency below the true 180 (60 in + 120 out).
        assert rows[1][5] == "100"
        assert rows[1][6] == "178"
        assert int(rows[1][6]) < 180
        # the combined lower bound then only ratchets upward
        lows = [int(r[5]) for r in rows[1:-1] if r[5]]
        assert lows == sorted(lows)


def gear_trace(pairs: int) -> list[tuple[str, int]]:
    """Error-free gear session observed through fixed-latency channels:
    every response arrives 710 ms after its request."""
    events = []
    send = 100  # observed stimulus time
    for _ in range(pairs):
        arrival = send + 30  # input latency 30
        resp = arrival + 600 + 80  # response time 600, output latency 80
        events.append(("ReqNewGear", send))
        events.append(("NewGear", resp))
        send = resp + 50
    return events


class TestBenchmark:
    """Throughput and state-size sanity on a 10000-event error-free gear
    session: reach sets stay constant-size over time, sizes are ordered
    classic <= delayed monitoring <= two-channel testing, and every
    observation is processed in well under 10 ms."""

    PAIRS = 5000
    CHECKPOINT = 1000  # events after which the max size must be final

    def run_engine(self, observe, engine, events):
        max_states = 0
        checkpoint_states = None
        # the slowest event: wall and thread CPU time (ns), gen-2
        # collections and involuntary context switches during it
        worst = (0, 0, 0, 0)
        gen2 = [0]

        def count_gen2(phase, info):
            if phase == "start" and info["generation"] == 2:
                gen2[0] += 1

        gc.callbacks.append(count_gen2)
        try:
            for k, (sym, tau) in enumerate(events, start=1):
                switches = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
                collections = gen2[0]
                cpu = time.thread_time_ns()
                start = time.perf_counter_ns()
                v = observe(sym, tau)
                wall = time.perf_counter_ns() - start
                if wall > worst[0]:
                    worst = (
                        wall, time.thread_time_ns() - cpu,
                        gen2[0] - collections,
                        resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
                        - switches)
                assert v is Verdict.INCONCLUSIVE
                max_states = max(
                    max_states, len(engine.pos.reach) + len(engine.neg.reach))
                if k == self.CHECKPOINT:
                    checkpoint_states = max_states
        finally:
            gc.callbacks.remove(count_gen2)
        assert max_states == checkpoint_states, "reach sets kept growing"
        wall, cpu, collections, switches = worst
        assert wall < 10_000_000, (
            f"slow event: {wall / 1e6:.2f} ms wall, {cpu / 1e6:.2f} ms "
            f"thread CPU, {collections} gen-2 collections, {switches} "
            f"involuntary context switches")
        return max_states

    def test_constant_state_sizes_and_throughput(self):
        spec = request_response_tba(True, 150, 1205, "ReqNewGear", "NewGear")
        comp = request_response_tba(False, 150, 1205, "ReqNewGear", "NewGear")
        events = gear_trace(self.PAIRS)
        # delay-free monitoring sees the ground times themselves
        ground = [(sym, tau + 30 if sym == "ReqNewGear" else tau - 80)
                  for sym, tau in events]

        classic = Monitor(spec, comp, DelayBounds(0, 0, 0))
        classic_max = self.run_engine(classic.observe, classic, ground)

        delayed = Monitor(spec, comp, DelayBounds(0, 100, 10))
        delayed_max = self.run_engine(delayed.observe, delayed, events)

        tester = Tester(spec, comp, IODelayBounds(
            DelayBounds(10, 50, 10), DelayBounds(60, 100, 10)))
        tester_max = self.run_engine(tester.observe_io, tester, events)

        assert classic_max <= delayed_max <= tester_max


class TestNoClosurePerEvent:
    """Every zone operation keeps its DBM canonical incrementally, so a
    gear session (observe plus latency report per event) runs no full
    Floyd-Warshall closure in classic, monitor or test mode.  Each event's
    symbolic step builds a fixed number of zones."""

    PAIRS = 100
    # DBMs built per observe in classic, monitor and test mode: one for up
    # and the window, and one per edge whose guard tightens or that resets
    # a clock active at its target.
    # The verdict probe builds none: in classic and monitor mode the window
    # already puts every state past the cutoff, and in test mode the state
    # it would advance lies at a full location, which it leaves as it is
    ALLOCS_PER_EVENT = (2.5, 2.5, 2.5)

    def runs(self) -> list:
        """(engine, observe, events) for classic, monitor and test mode."""
        spec = request_response_tba(True, 150, 1205, "ReqNewGear", "NewGear")
        comp = request_response_tba(False, 150, 1205, "ReqNewGear", "NewGear")
        events = gear_trace(self.PAIRS)
        ground = [(sym, tau + 30 if sym == "ReqNewGear" else tau - 80)
                  for sym, tau in events]
        classic = Monitor(spec, comp, DelayBounds(0, 0, 0))
        delayed = Monitor(spec, comp, DelayBounds(0, 100, 10))
        tester = Tester(spec, comp, IODelayBounds(
            DelayBounds(10, 50, 10), DelayBounds(60, 100, 10)))
        return [(classic, classic.observe, ground),
                (delayed, delayed.observe, events),
                (tester, tester.observe_io, events)]

    def test_gear_session_allocates_fixed_zones(self, monkeypatch):
        runs = self.runs()
        allocs = []
        init = DBM.__init__

        def counted(dbm, *args, **kwargs):
            allocs.append(dbm)
            init(dbm, *args, **kwargs)
        monkeypatch.setattr(DBM, "__init__", counted)

        per_event = []
        for engine, observe, evs in runs:
            built = 0
            for sym, tau in evs:
                before = len(allocs)
                assert observe(sym, tau) is Verdict.INCONCLUSIVE
                built += len(allocs) - before
                engine.latency_report()
            per_event.append(built / len(evs))
        assert per_event == list(self.ALLOCS_PER_EVENT)

    def test_gear_session_closes_no_matrix(self, monkeypatch):
        runs = self.runs()
        closures = []
        close = DBM._close_in_place

        def counted(dbm):
            closures.append(dbm.dim)
            close(dbm)
        monkeypatch.setattr(DBM, "_close_in_place", counted)

        for engine, observe, evs in runs:
            for sym, tau in evs:
                assert observe(sym, tau) is Verdict.INCONCLUSIVE
                engine.latency_report()
        assert closures == []
        DBM(2, [[LE_ZERO] * 2 for _ in range(2)])  # the counter is live
        assert closures == [2]


class TestWideBandZonesPerEvent:
    """On ``WIDE_BAND`` walks the reach sets grow to several zones, many of
    them at the violation sink ``bad``, where no clock is active.  The step
    drops the sink loop's dead reset, so the loop yields the elapsed zone
    itself with no copy, and frees a dying clock only on a matrix that an
    edge copies anyway.  The zones each walk builds are pinned, so that a
    change that copies a matrix again on a sink loop fails; the exact step,
    which takes every reset, builds more."""

    # DBMs built by the 100 observations of the walks that
    # TestPruneModuloInactiveClocks runs in monitor and test mode
    BUILT = {"monitor": 570, "test": 687}

    @staticmethod
    def built(run, seed: int) -> int:
        spec, comp = wide_band_pair()
        build, observe, events = run(seed)
        engine = build(spec, comp)
        made = [0]
        init = DBM.__init__

        def counted(dbm, *args, **kwargs):
            made[0] += 1
            init(dbm, *args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DBM, "__init__", counted)
            for sym, tau in events:
                assert getattr(engine, observe)(sym, tau) is (
                    Verdict.INCONCLUSIVE)
        return made[0]

    @pytest.mark.parametrize("mode", ["monitor", "test"])
    def test_walk_builds_pinned_zones(self, mode):
        run, seed = ((wide_band_monitor_run, 7) if mode == "monitor"
                     else (wide_band_test_run, 8))
        assert self.built(run, seed) == self.BUILT[mode]
        with exact_steps():
            assert self.built(run, seed) > self.BUILT[mode]


WIDE_BAND = """
alphabet a b
clocks x y
location q0 initial {q0}
location q1
location q2
location q3
location bad {bad}
edge bad -> bad on a reset x
edge bad -> bad on b
edge q0 -> q1 on a when y>=1 reset x
edge q0 -> bad on a when y<1
edge q0 -> bad on b
edge q1 -> q2 on b when x>=1 && x<=3 reset y
edge q1 -> bad on b when x<1
edge q1 -> bad on b when x>3
edge q1 -> bad on a
edge q2 -> q3 on a when y>=0.5 && y<=2.5 && x<=6
edge q2 -> bad on a when y<0.5
edge q2 -> bad on a when y>2.5
edge q2 -> bad on a when x>6
edge q2 -> bad on b
edge q3 -> q0 on b when x>=3 && x<=8 reset x
edge q3 -> bad on b when x<3
edge q3 -> bad on b when x>8
edge q3 -> bad on a
"""


def wide_band_pair() -> tuple[TBA, TBA]:
    spec = parse_tba(WIDE_BAND.format(q0="", bad="accepting"), 10)
    comp = parse_tba(WIDE_BAND.format(q0="accepting", bad=""), 10)
    return spec, comp


def wide_band_walk(rng: random.Random, laps: int) -> list[tuple[str, int]]:
    """A ground-truth run around the cycle q0 q1 q2 q3 of ``WIDE_BAND``;
    each wait moves at most 0.3 from the middle of its guard window."""
    events, t = [], 0
    for _ in range(laps):
        for sym, gap in (("a", 15), ("b", 20), ("a", 15), ("b", 25)):
            t += gap + rng.randint(-3, 3)
            events.append((sym, t))
    return events


def wide_band_monitor_run(seed: int):
    """(build, observe, events): a 100-event walk of ``WIDE_BAND`` seen
    through a latency band."""
    rng = random.Random(seed)
    events = [(s, t + 10 + rng.randint(0, 10))
              for s, t in wide_band_walk(rng, 25)]

    def build(spec, comp):
        return Monitor(spec, comp, DelayBounds(0, 20, 10))
    return build, "observe", events


def wide_band_test_run(seed: int):
    """(build, observe, events): a 100-event walk of ``WIDE_BAND`` with
    stimuli sent early and responses seen late."""
    rng = random.Random(seed)
    events = [(s, t - 3 - rng.randint(0, 2)) if s == "a"
              else (s, t + 3 + rng.randint(0, 2))
              for s, t in wide_band_walk(rng, 25)]
    bounds = IODelayBounds(DelayBounds(0, 5, 2), DelayBounds(0, 5, 2))

    def build(spec, comp):
        return Tester(with_io(spec), with_io(comp), bounds)
    return build, "observe_io", events


def random_pair_run(mode: str, seed: int):
    """(spec, comp, build, observe, events): a random automaton against
    itself with the other locations accepting, and 80 events; rare guards
    leave clocks inactive."""
    rng = random.Random(f"{mode}/{seed}")
    spec = random_tba(rng, n_clocks=3, guard_ratio=0.25)
    comp = dataclasses.replace(spec, accepting=spec.locations - spec.accepting)
    if mode == "monitor":
        def build(spec, comp):
            return Monitor(spec, comp, DelayBounds(0, 4, 2))
        observe, syms = "observe", [rng.choice("ab") for _ in range(80)]
    else:
        io = IODelayBounds(DelayBounds(0, 2, 1), DelayBounds(0, 2, 1))

        def build(spec, comp):
            return Tester(with_io(spec), with_io(comp), io)
        observe, syms = "observe_io", ["a", "b"] * 40
    tau, events = 4, []
    for sym in syms:
        tau += rng.randint(0, 3)
        events.append((sym, tau))
    return spec, comp, build, observe, events


def lockstep(engine, ref, observe: str, events,
             ref_context=contextlib.nullcontext):
    """Feed ``events`` to two engines, the reference inside
    ``ref_context()``.  After each event, assert the same verdict or the
    same error type and, while inconclusive, equal latency reports; yield
    that outcome.  Stops after the first conclusive verdict or error."""

    def outcome(e, sym, tau):
        try:
            return getattr(e, observe)(sym, tau)
        except MonitorError as err:
            return type(err)

    for sym, tau in events:
        got = outcome(engine, sym, tau)
        with ref_context():
            want = outcome(ref, sym, tau)
        assert got == want, (sym, tau)
        if got is Verdict.INCONCLUSIVE:
            assert engine.latency_report() == ref.latency_report()
        yield got
        if got is not Verdict.INCONCLUSIVE:
            return


def exact_post(states, a: str, automaton: TBA, window):
    """The symbolic step that applies every reset of each edge and frees no
    clock: the exact successors, dead clocks included."""
    if a not in automaton.alphabet:
        raise TBAError(f"symbol {a!r} not in alphabet")
    out = []
    for s in states:
        edges = automaton._edges.get((s.location, a), ())
        if not edges:
            continue
        z = s.zone.elapse(*window)
        if z.is_empty():
            continue
        for e in edges:
            g = z.and_constraints(e.guard, e.resets)
            if not g.is_empty():
                out.append(SymbolicState(e.dst, g))
    return out


@contextlib.contextmanager
def exact_steps():
    """Engines built and stepped inside take every reset and free no
    clock."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monitor_module, "post", exact_post)
        yield


class TestPruneModuloInactiveClocks:
    """Pruning modulo inactive clocks changes no answer: along walks of 80
    events and more, each engine agrees after every event with the same
    engine stepping exactly (:func:`exact_post`) and pruning on whole
    zones, on the verdict and on every latency union.  (The oracle gates
    use 1-4 events, too few for reach sets to grow.)"""

    @staticmethod
    def compare(monkeypatch, make, observe: str, events) -> tuple[int, int]:
        """Events compared, and how many of them left the engine with fewer
        states than the whole-zone reference."""

        def whole_zones(states, inactive):
            return prune_subsumed(states, {})

        @contextlib.contextmanager
        def whole_zone_pruning():
            with monkeypatch.context() as mp:
                mp.setattr(monitor_module, "post", exact_post)
                mp.setattr(monitor_module, "prune_subsumed", whole_zones)
                yield

        try:
            engine, ref = make(), make()
        except ComplementViolationError:
            return 0, 0
        compared = smaller = 0
        for got in lockstep(engine, ref, observe, events, whole_zone_pruning):
            if got is Verdict.INCONCLUSIVE:
                compared += 1
                smaller += (len(engine.pos.reach) + len(engine.neg.reach)
                            < len(ref.pos.reach) + len(ref.neg.reach))
        return compared, smaller

    def test_wide_band_monitor(self, monkeypatch):
        spec, comp = wide_band_pair()
        build, observe, events = wide_band_monitor_run(7)
        compared, smaller = self.compare(
            monkeypatch, lambda: build(spec, comp), observe, events)
        assert compared == 100 and smaller > 0

    def test_wide_band_test(self, monkeypatch):
        spec, comp = wide_band_pair()
        build, observe, events = wide_band_test_run(8)
        compared, smaller = self.compare(
            monkeypatch, lambda: build(spec, comp), observe, events)
        assert compared == 100 and smaller > 0

    @pytest.mark.parametrize("mode", ["monitor", "test"])
    def test_random_pairs(self, monkeypatch, mode):
        long_walks = 0
        for seed in range(10):
            spec, comp, build, observe, events = random_pair_run(mode, seed)
            compared, smaller = self.compare(
                monkeypatch, lambda: build(spec, comp), observe, events)
            long_walks += compared == 80 and smaller > 0
        assert long_walks >= 2


PERFBENCH_INPUTS = Path(__file__).parents[1] / "perfbench" / "inputs"


def shipped_pairs() -> list[tuple[str, TBA, TBA]]:
    """Every property/complement pair the repository ships, each one
    automaton with two accepting sets."""
    pairs = []
    for directory, stems in (
            (PERFBENCH_INPUTS, ["gear", "ladder_1", "ladder_2", "ladder_3",
                                "ladder_4", "wide_band"]),
            (FIXTURES, ["deadline", "gear"])):
        for stem in stems:
            spec, comp = (parse_tba((directory / f"{stem}_{role}.txt")
                                    .read_text(), 10)
                          for role in ("spec", "complement"))
            pairs.append((f"{directory.name}/{stem}", spec, comp))
    pairs.append(("request_response",
                  request_response_tba(True, 150, 1205, "a", "b"),
                  request_response_tba(False, 150, 1205, "a", "b")))
    pairs.append(("eventually_then_safe", eventually_then_safe_tba(True),
                  eventually_then_safe_tba(False)))
    return pairs


def ground_walk(tba: TBA, rng: random.Random, count: int, alternate: bool
                ) -> list[tuple[str, int]]:
    """A concrete run of ``tba`` that never enters ``bad``: each step waits
    a whole number of units, at most the largest guard constant plus one,
    and takes an edge that is then enabled; with ``alternate``, inputs and
    outputs alternate, starting with an input.  Stops early when no such
    edge turns up."""
    horizon = 1 + max((g.constant for t in tba.transitions for g in t.guard),
                      default=0)
    loc, val = min(tba.initial), dict.fromkeys(tba.clocks, 0)
    tau, events = 0, []
    while len(events) < count:
        labels = tba.alphabet
        if alternate:
            labels = tba.inputs if len(events) % 2 == 0 else tba.outputs
        for _ in range(100):
            d = rng.randint(1, horizon)
            enabled = [t for t in tba.transitions
                       if t.src == loc and t.label in labels
                       and t.dst != "bad"
                       and all(holds(g, val[g.clock] + d) for g in t.guard)]
            if enabled:
                break
        else:
            break
        t = rng.choice(enabled)
        tau += d
        val = {c: 0 if c in t.resets else v + d for c, v in val.items()}
        loc = t.dst
        events.append((t.label, tau))
    return events


def engine_runs(spec: TBA, comp: TBA, seed: int):
    """(engine, observe, events) in classic, monitor and test mode, each
    over a ground-truth walk of ``spec``: seen as it is, 10 late, and as it
    is through channels that may delay it.  A pair without an input/output
    partition is tested with its first symbol as input."""
    rng = random.Random(seed)
    if not spec.has_io_partition:
        first, second = sorted(spec.alphabet)
        spec, comp = (dataclasses.replace(
            a, inputs=frozenset({first}), outputs=frozenset({second}))
            for a in (spec, comp))
    free = ground_walk(spec, rng, 30, alternate=False)
    classic = Monitor(spec, comp, DelayBounds(0, 0, 0))
    delayed = Monitor(spec, comp, DelayBounds(0, 20, 5))
    tester = Tester(spec, comp, IODelayBounds(
        DelayBounds(0, 10, 2), DelayBounds(0, 10, 2)))
    return [(classic, "observe", free),
            (delayed, "observe", [(s, t + 10) for s, t in free]),
            (tester, "observe_io", ground_walk(spec, rng, 30, alternate=True))]


class TestOneReachSetForBothPolarities:
    """A complement that differs from its property only in the accepting
    set has the same reach set on every trace, so both polarities read one
    reach set, stepped once per event; a complement that differs anywhere
    else gets its own.  Sharing changes no answer."""

    @staticmethod
    def feed(engine, observe: str, events) -> int:
        """Events the engine took, up to a conclusive verdict or an error,
        checking after each that both polarities read one reach set, also
        in a deep copy given the next event."""
        taken = 0
        for sym, tau in events:
            twin = copy.deepcopy(engine)
            try:
                verdict = getattr(engine, observe)(sym, tau)
                getattr(twin, observe)(sym, tau)
            except MonitorError:
                break
            for e in (engine, twin):
                assert e.tracks == (e.pos.track,)
                assert e.neg.reach is e.pos.reach
            taken += 1
            if verdict.conclusive:
                break
        return taken

    @pytest.mark.parametrize("spec,comp", [
        pytest.param(spec, comp, id=name)
        for name, spec, comp in shipped_pairs()])
    def test_shipped_pairs_share(self, spec, comp):
        for engine, observe, events in engine_runs(spec, comp, seed=10):
            taken = self.feed(engine, observe, events)
            assert taken == len(events) > 20 or engine.verdict.conclusive

    @pytest.mark.parametrize("variant", ["unreached_location",
                                         "renamed_clock"])
    def test_other_complements_keep_two_sets(self, variant):
        spec = request_response_tba(True, 150, 1205, "a", "b")
        comp = request_response_tba(False, 150, 1205, "a", "b")
        comp = (with_unreached_location(comp)
                if variant == "unreached_location"
                else rename_clock(comp, "x", "z"))
        for engine, observe, events in engine_runs(spec, comp, seed=11):
            assert len(engine.tracks) == 2
            assert engine.pos.track is not engine.neg.track
            sym, tau = events[0]
            getattr(engine, observe)(sym, tau)
            assert engine.neg.reach is not engine.pos.reach

    @staticmethod
    def compare(build, spec, comp, observe: str, events) -> int:
        """Events after which the engine on (spec, comp), one shared reach
        set, agreed with the engine on a complement with an unreached
        location, two reach sets."""
        shared = build(spec, comp)
        two = build(spec, with_unreached_location(comp))
        assert len(shared.tracks) == 1 and len(two.tracks) == 2
        return sum(got is Verdict.INCONCLUSIVE
                   for got in lockstep(shared, two, observe, events))

    def test_wide_band_monitor(self):
        build, observe, events = wide_band_monitor_run(7)
        assert self.compare(build, *wide_band_pair(), observe, events) == 100

    def test_wide_band_test(self):
        build, observe, events = wide_band_test_run(8)
        assert self.compare(build, *wide_band_pair(), observe, events) == 100

    @pytest.mark.parametrize("mode", ["monitor", "test"])
    def test_random_pairs(self, mode):
        long_walks = 0
        for seed in range(10):
            spec, comp, build, observe, events = random_pair_run(mode, seed)
            try:
                long_walks += self.compare(
                    build, spec, comp, observe, events) == 80
            except ComplementViolationError:
                pass
        assert long_walks >= 2

    def test_complement_violation_on_two_sets(self):
        spec = request_response_tba(True, 15, 25)
        bounds = IODelayBounds(DelayBounds(2, 4, 0), DelayBounds(5, 7, 0))
        shared = Tester(spec, spec, bounds)
        two = Tester(spec, with_unreached_location(spec), bounds)
        assert len(shared.tracks) == 1 and len(two.tracks) == 2
        outcomes = list(lockstep(shared, two, "observe_io",
                                 [("req", 10), ("resp", 31)]))
        assert outcomes == [Verdict.INCONCLUSIVE, ComplementViolationError]


class TestEnginesReadOnlyTheReachablePart:
    """Engines analyse only the part of each automaton that a run can
    enter.  Along seeded walks in classic, monitor and test mode, every
    reach state sits at a location of that part, and each engine agrees
    after every event, on the verdict and on every latency union, with one
    that analysed the whole automaton."""

    @staticmethod
    def compare(spec: TBA, comp: TBA, seed: int) -> int:
        """Events compared over the three modes; 0 when the pair is not
        complementary enough to build its engines."""
        try:
            runs = engine_runs(spec, comp, seed)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(monitor_module, "_nonempty", nonempty_states)
                refs = engine_runs(spec, comp, seed)
        except ComplementViolationError:
            return 0
        compared = 0
        for (engine, observe, events), (ref, _, ref_events) in zip(runs,
                                                                   refs):
            assert events == ref_events
            parts = [t.automaton.reachable.locations for t in engine.tracks]
            for _ in lockstep(engine, ref, observe, events):
                compared += 1
                for track, locations in zip(engine.tracks, parts):
                    assert {s.location for s in track.reach} <= locations
        return compared

    @pytest.mark.parametrize("spec,comp", [
        pytest.param(spec, comp, id=name)
        for name, spec, comp in shipped_pairs()])
    def test_shipped_pairs(self, spec, comp):
        assert self.compare(spec, comp, seed=13) >= 3

    @pytest.mark.parametrize("seed", range(10))
    def test_random_pairs_with_islands(self, seed):
        """A complement pair and a random automaton against its other
        locations, each with locations that no run enters."""
        rng = random.Random(f"islands/{seed}")
        spec, comp = complement_pair(rng, n_clocks=rng.choice([1, 2]))
        spec_i = with_islands(spec, rng)
        islands = spec_i.locations - spec.locations
        pairs = [(spec_i, dataclasses.replace(
            spec_i, accepting=comp.accepting | (islands - spec_i.accepting)))]
        a = with_islands(random_tba(rng, n_clocks=3, guard_ratio=0.25), rng)
        pairs.append((a, dataclasses.replace(
            a, accepting=a.locations - a.accepting)))
        assert all(p.reachable is not p for pair in pairs for p in pair)
        assert sum(self.compare(*pair, seed) for pair in pairs) >= 3


# A deterministic, complete pair over inputs a and outputs b; the property
# accepts in q0 and q1, its complement in bad.
SHARING_PAIR = """
alphabet a b
inputs a
outputs b
clocks x y
location q0 initial {ok}
location q1 {ok}
location bad {bad}
edge q0 -> q1 on a when x>=1 reset y
edge q0 -> bad on a when x<1
edge q0 -> bad on b
edge q1 -> q0 on b when y>=2 && y<=5 reset x
edge q1 -> bad on b when y<2
edge q1 -> bad on b when y>5
edge q1 -> q1 on a when y=0
edge q1 -> bad on a when y>0
edge bad -> bad on a
edge bad -> bad on b
"""

# Per complement variant: the edit to the complement's text, and whether
# the engines step one reach set for both polarities.
SHARING_VARIANTS = {
    "accepting only": ("", ""),
    "equality as two bounds": ("y=0", "y>=0 && y<=0"),
    "bounds reordered": ("y>=2 && y<=5", "y<=5 && y>=2"),
    "redundant bound": ("y>=2 && y<=5", "y>=2 && y<=5 && y<=7"),
    "guard constant": ("y>=2 && y<=5", "y>=2 && y<=6"),
    "reset": ("y<=5 reset x", "y<=5 reset x y"),
    "label": ("bad -> bad on a", "bad -> bad on b"),
    "initial set": ("location q1", "location q1 initial"),
    "clock list": ("clocks x y", "clocks y x"),
}
SHARED = {"accepting only", "equality as two bounds", "bounds reordered",
          "redundant bound"}


class TestReachSetSharingTable:
    """One reach set serves both polarities iff the complement differs from
    the property only in its accepting set or in how a guard is written;
    either way every verdict and latency report is that of an engine that
    never shares."""

    @pytest.mark.parametrize("variant", SHARING_VARIANTS)
    def test_variant(self, variant):
        old, new = SHARING_VARIANTS[variant]
        spec = parse_tba(SHARING_PAIR.format(ok="accepting", bad=""), 10)
        text = SHARING_PAIR.format(ok="", bad="accepting")
        assert old in text
        comp = parse_tba(text.replace(old, new, 1), 10)
        runs = engine_runs(spec, comp, seed=12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monitor_module, "_same_but_accepting",
                       lambda a, b: False)
            refs = engine_runs(spec, comp, seed=12)
        inconclusive = 0
        for (engine, observe, events), (ref, _, ref_events) in zip(runs,
                                                                   refs):
            assert events == ref_events and len(events) >= 20
            assert len(engine.tracks) == (1 if variant in SHARED else 2)
            assert len(ref.tracks) == 2
            inconclusive += sum(
                got is Verdict.INCONCLUSIVE
                for got in lockstep(engine, ref, observe, events))
        assert inconclusive >= 60

    def test_equal_bounds_compile_alike(self):
        texts = {SHARING_PAIR.replace(old, new, 1)
                 for variant, (old, new) in SHARING_VARIANTS.items()
                 if variant in SHARED}
        compiled = {parse_tba(t.format(ok="", bad="accepting"), 10).compiled
                    for t in texts}
        assert len(texts) == 4 and len(compiled) == 1


class TestNoPruneInVerdict:
    """The verdict only asks whether some advanced reach state meets the
    nonempty zones, so it probes the advanced states lazily and never
    prunes them: a delayed session whose reach sets hold sibling zones at
    one location runs no inclusion test inside the verdict.  Pruning
    modulo inactive clocks keeps that session's reach sets small."""

    REACH_PEAK = 10  # pos + neg states; 26 when pruning compares whole zones

    def test_wide_band_session_tests_no_inclusion(self, monkeypatch):
        spec, comp = wide_band_pair()
        lap = [("a", 15), ("b", 20), ("a", 15), ("b", 25)]
        events, t = [], 0
        for k in range(40):
            sym, gap = lap[k % 4]
            t += gap
            events.append((sym, t + 10 + (k * 7) % 11))  # latency plus jitter

        in_verdict = []
        includes = {True: 0, False: 0}
        covers = {True: 0, False: 0}
        dbm_includes, dbm_covers = DBM.includes, dbm_module._covers
        verdict = Monitor._compute_verdict

        def counted_includes(dbm, other):
            includes[bool(in_verdict)] += 1
            return dbm_includes(dbm, other)

        def counted_covers(big, small):
            covers[bool(in_verdict)] += 1
            return dbm_covers(big, small)

        def tracked_verdict(engine, t):
            in_verdict.append(t)
            try:
                return verdict(engine, t)
            finally:
                in_verdict.pop()

        m = Monitor(spec, comp, DelayBounds(0, 20, 10))
        monkeypatch.setattr(DBM, "includes", counted_includes)
        monkeypatch.setattr(dbm_module, "_covers", counted_covers)
        monkeypatch.setattr(Monitor, "_compute_verdict", tracked_verdict)
        peak = 0
        for sym, tau in events:
            assert m.observe(sym, tau) is Verdict.INCONCLUSIVE
            peak = max(peak, len(m.pos.reach) + len(m.neg.reach))
        assert max(sum(s.location == q for s in m.pos.reach)
                   for q in spec.locations) >= 2
        assert m.verdict_at(events[-1][1] + 30) is Verdict.INCONCLUSIVE
        assert includes[True] == 0 and covers[True] == 0
        assert covers[False] > 0  # the counter is live: _step still prunes
        assert peak <= self.REACH_PEAK


def interval_within(a, b) -> bool:
    """Whether interval ``a`` lies inside interval ``b``: a closed end
    sorts before an open one at the same value."""
    return ((b.lo, b.lo_strict) <= (a.lo, a.lo_strict)
            and (a.hi, not a.hi_strict) <= (b.hi, not b.hi_strict))


def union_within(inner, outer) -> bool:
    """Whether every interval of ``inner`` lies inside one of ``outer``'s
    (whose intervals are disjoint and maximal)."""
    return all(any(interval_within(a, b) for b in outer) for a in inner)


def fresh_report(engine):
    """The engine's report merged from freshly met bounds, reusing no union
    and no report."""
    return engine._report_type(*(
        dbm_module.merge_difference_bounds(pairs)
        for side in (engine.pos, engine.neg)
        for pairs in monitor_module._latencies(side, engine.measures)),
        *engine._jitters)


def gear_fixture_runs() -> list:
    """(engine, observe, events) of the two shipped gear test sessions,
    with the channel flags of :class:`TestGearControllerRuns`."""
    spec, comp = (parse_tba((FIXTURES / f"gear_{role}.txt").read_text(), 1)
                  for role in ("spec", "complement"))
    runs = []
    for trace, din, dout in (("narrow", (10, 50), (60, 100)),
                             ("wide", (0, 90), (100, 200))):
        text = (FIXTURES / f"gear_{trace}_trace.txt").read_text()
        events = [(ev.symbol, ev.timestamp)
                  for ev in read_trace(text.splitlines(), 1)]
        runs.append((Tester(spec, comp, IODelayBounds(
            DelayBounds(*din, 10), DelayBounds(*dout, 10))), "observe_io",
            events))
    return runs


class TestLatencyReportReuse:
    """A channel's latency is fixed for the run, so the latencies that
    explain the trace only shrink; a report whose unions all equal the
    last one's is that report object, and reuse never changes a value."""

    @staticmethod
    def walk(engine, observe: str, events) -> collections.Counter:
        """Feed ``events`` up to a conclusive verdict or an error, checking
        after each that every union lies inside the last report's, that the
        report equals a fresh merge, and that a union or report equal to
        the last one is that object.  Every fifth event also goes to a deep
        copy first, which must leave the engine's report as it is.  Counts
        the reports kept and built, and the kept ones whose bounds moved."""
        seen = collections.Counter()
        last = engine.latency_report()  # the report before any observation
        assert last == fresh_report(engine)
        n = 2 * len(engine.measures)
        for k, (sym, tau) in enumerate(events):
            if k % 5 == 0:
                twin = copy.deepcopy(engine)
                try:
                    getattr(twin, observe)(sym, tau)
                except MonitorError:
                    pass
                assert twin.latency_report() == fresh_report(twin)
                assert engine.latency_report() is last
            bounds = engine._pairs
            try:
                verdict = getattr(engine, observe)(sym, tau)
            except MonitorError:
                break
            report = engine.latency_report()
            assert report == fresh_report(engine)
            for union, before in zip(report[:n], last[:n]):
                assert union_within(union, before)
                assert union != before or union is before
            if report[:n] == last[:n]:
                assert report is last
                seen["kept"] += 1
                seen["kept, bounds moved"] += engine._pairs != bounds
            else:
                seen["built"] += 1
            last = report
            if verdict.conclusive:
                break
        return seen

    @pytest.mark.parametrize("spec,comp", [
        pytest.param(spec, comp, id=name)
        for name, spec, comp in shipped_pairs()])
    def test_shipped_pairs(self, spec, comp):
        seen = collections.Counter()
        for seed in range(3):
            for engine, observe, events in engine_runs(spec, comp, seed):
                seen += self.walk(engine, observe, events)
        assert seen["kept"] > 0

    def test_fixture_sessions(self):
        seen = collections.Counter()
        for engine, observe, events in gear_fixture_runs():
            seen += self.walk(engine, observe, events)
            assert engine.verdict is Verdict.FALSE
        assert seen["kept"] > 0 and seen["built"] > 0
        assert seen["kept, bounds moved"] > 0


def elapsing_advance(side, ci: int, cutoff: int):
    """The verdict probe's advance that elapses every state short of the
    cutoff, full location or not."""
    at_least = bound(-cutoff)
    for s in side.reach:
        if not side.nonempty.zones.get(s.location):
            continue
        if s.zone.m[0][ci] <= at_least:
            yield s
        else:
            yield SymbolicState(s.location, s.zone.elapse(ci, at_least))


def whole_constraint_latencies(side, measures):
    """Each measure's encoded bounds over the reach zones met with every
    finite entry of each nonempty zone, ``x >= 0`` bounds included."""
    t = side.track.time
    cells = [(t + x, t + y) for x, y in measures]
    unions = [[] for _ in measures]
    for s in side.reach:
        for nonempty in side.nonempty.zones.get(s.location, ()):
            z = s.zone.and_constraints(tuple(nonempty.constraints()))
            if z.is_empty():
                continue
            for (x, y), pairs in zip(cells, unions):
                pairs.append((z.m[y][x], z.m[x][y]))
    for pairs in unions:
        pairs.sort(reverse=True)
    return unions


def always_pruning_step(track, symbol: str, ci: int, lo: int, hi: int):
    """An engine step that prunes every successor set, however small."""
    window = (ci, bound(-lo), bound(hi))
    return prune_subsumed(post(track.reach, symbol, track.automaton, window),
                          track.automaton.inactive_clocks)


def cutoff_query_times(engine) -> list[int]:
    """Query times at which the next channel's cutoff equals some reach
    zone's lower bound on that channel's clock, one unit either side, and
    ``10**6`` later, none before the last observation."""
    k = engine._next_slot()
    last = engine.last_obs_time
    lag = last - monitor_module._window(engine.channels[k], last)[0]
    lows = {-bound_value(s.zone.m[0][track.time + 1 + k]) + lag
            for track in engine.tracks for s in track.reach
            if s.zone.m[0][track.time + 1 + k] != INF}
    times = {t + d for t in lows for d in (-1, 0, 1)}
    return sorted(t for t in times | {last + 10**6} if t >= last)


def compare_with_queries(spec: TBA, comp: TBA, seed: int, ref_context,
                         tally) -> collections.Counter:
    """Feed the walks of :func:`engine_runs` to its engines and, inside
    ``ref_context()``, to a second set built there, in lockstep; after
    each inconclusive event also compare ``verdict_at`` at
    :func:`cutoff_query_times`.  Counts the events compared, plus what
    ``tally(engine, ref)`` counts after each; none when the pair is not
    complementary enough to build its engines."""

    def at(e, t):
        try:
            return e.verdict_at(t)
        except MonitorError as err:
            return type(err)

    seen = collections.Counter()
    try:
        runs = engine_runs(spec, comp, seed)
        with ref_context():
            refs = engine_runs(spec, comp, seed)
    except ComplementViolationError:  # no polarity lives at the start
        return seen
    for (engine, observe, events), (ref, _, _) in zip(runs, refs):
        for got in lockstep(engine, ref, observe, events, ref_context):
            if got is not Verdict.INCONCLUSIVE:
                continue
            seen["events"] += 1
            seen += tally(engine, ref)
            for t in cutoff_query_times(engine):
                with ref_context():
                    want = at(ref, t)
                assert at(engine, t) == want, t
    return seen


def random_complement_pairs(rng: random.Random, count: int):
    """``count`` random automata, each with its other locations accepting
    as the complement."""
    for _ in range(count):
        spec = random_tba(rng, n_clocks=rng.choice([1, 2, 3]), max_const=4,
                          guard_ratio=0.4)
        yield spec, dataclasses.replace(
            spec, accepting=spec.locations - spec.accepting)


class TestFullLocationsAndLoneStatesChangeNoAnswer:
    """Three shortcuts skip zone work that cannot change an answer: the
    nonempty constraints leave out ``x >= 0``, the verdict probe and the
    latency unions advance and meet no state at a full location, and a
    step with fewer than two successors does not prune.  Along seeded
    walks in classic, monitor and test mode, each engine agrees after
    every event with one that takes none of them: on the verdict, on the
    report, and on ``verdict_at`` where the next channel's cutoff reaches a
    reach zone's lower bound on that channel's clock, one unit either side
    of it, and ``10**6`` after the last observation."""

    @staticmethod
    @contextlib.contextmanager
    def no_shortcuts():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monitor_module, "_advance", elapsing_advance)
            mp.setattr(monitor_module, "_latencies",
                       whole_constraint_latencies)
            mp.setattr(monitor_module, "_step", always_pruning_step)
            yield

    @staticmethod
    def tally(engine, ref) -> collections.Counter:
        """Whether some reach state lies at a full location, and whether
        the step left one state per track."""
        return collections.Counter({
            "at a full location": any(
                s.location in side.nonempty.full
                for side in (engine.pos, engine.neg) for s in side.reach),
            "one state": all(len(t.reach) == 1 for t in engine.tracks)})

    @classmethod
    def compare(cls, spec: TBA, comp: TBA, seed: int) -> collections.Counter:
        return compare_with_queries(spec, comp, seed, cls.no_shortcuts,
                                    cls.tally)

    @pytest.mark.parametrize("spec,comp", [
        pytest.param(spec, comp, id=name)
        for name, spec, comp in shipped_pairs()])
    def test_shipped_pairs(self, spec, comp):
        seen = self.compare(spec, comp, seed=17)
        assert seen["events"] >= 3

    @pytest.mark.parametrize("seed", range(8))
    def test_random_complement_pairs(self, seed):
        rng = random.Random(f"shortcuts/{seed}")
        seen = collections.Counter()
        for spec, comp in random_complement_pairs(rng, 6):
            seen += self.compare(spec, comp, seed)
        assert seen["at a full location"] > 0 and seen["one state"] > 0
        assert seen["events"] > seen["one state"]


def freed(zone: DBM, i: int) -> bool:
    """Whether clock ``i`` of ``zone`` is free: bounded by nothing but
    ``x_i >= 0``."""
    return all(b == INF for j, b in enumerate(zone.m[i]) if j != i)


class TestDeadClocksChangeNoAnswer:
    """The step drops each reset of a clock inactive at the edge's target
    and frees the clocks that die on an edge whose matrix it copies anyway.
    Along seeded walks in classic, monitor and test mode, each engine
    agrees after every event with one stepping by :func:`exact_post`, which
    takes every reset and frees nothing: on the verdict, on the report,
    and on ``verdict_at`` at each cutoff of
    :class:`TestFullLocationsAndLoneStatesChangeNoAnswer`.  The two reach
    sets hold the same locations in the same order, with zones equal on
    every clock active there."""

    @staticmethod
    def tally(engine, ref) -> collections.Counter:
        """Whether some reach zone differs from the exact one, and whether
        some dead clock is free in it and bounded in the exact one."""
        seen = collections.Counter()
        for track, exact in zip(engine.tracks, ref.tracks):
            assert ([s.location for s in track.reach]
                    == [s.location for s in exact.reach])
            inactive = track.automaton.inactive_clocks
            for s, r in zip(track.reach, exact.reach):
                dead = inactive.get(s.location, 0)
                live = [i for i in range(s.zone.dim) if not dead >> i & 1]
                assert s.zone.restrict(live) == r.zone.restrict(live)
                seen["zones differ"] |= s.zone != r.zone
                seen["clock freed"] |= any(
                    dead >> i & 1 and freed(s.zone, i)
                    and not freed(r.zone, i) for i in range(s.zone.dim))
        return seen

    @classmethod
    def compare(cls, spec: TBA, comp: TBA, seed: int) -> collections.Counter:
        return compare_with_queries(spec, comp, seed, exact_steps, cls.tally)

    # the shipped pairs whose walks below free a clock
    FREEING = {"inputs/ladder_1", "inputs/ladder_2", "inputs/ladder_3",
               "inputs/ladder_4", "inputs/wide_band", "eventually_then_safe"}

    @pytest.mark.parametrize("name,spec,comp", [
        pytest.param(name, spec, comp, id=name)
        for name, spec, comp in shipped_pairs()])
    def test_shipped_pairs(self, name, spec, comp):
        seen = self.compare(spec, comp, seed=19)
        assert seen["events"] >= 3
        assert seen["zones differ"] >= seen["clock freed"]
        assert seen["clock freed"] > 0 or name not in self.FREEING

    @pytest.mark.parametrize("seed", range(10))
    def test_random_complement_pairs(self, seed):
        rng = random.Random(f"dead clocks/{seed}")
        seen = collections.Counter()
        for spec, comp in random_complement_pairs(rng, 10):
            seen += self.compare(spec, comp, seed)
        assert seen["events"] > seen["zones differ"] > 0
        assert seen["zones differ"] >= seen["clock freed"]
