"""Monitor tests: worked examples at scale 10 plus oracle equivalence and
randomized structural invariants at desk scale."""

from __future__ import annotations

import copy
import random

import pytest

import delaymon.monitor as monitor_module
from delaymon.automata import TBA, AtomicConstraint, TBAError, Transition
from delaymon.dbm import INF, MAX_SCALED, Interval
from delaymon.monitor import (
    ComplementViolationError,
    DelayBounds,
    Monitor,
    MonitorError,
    ObservationError,
    OrderingError,
    Verdict,
)

from helpers_automata import (difference_bounds, eventually_then_safe_tba,
                              scale_tba)
from helpers_oracle import OracleBounds, complement_pair, oracle_consistent, \
    oracle_verdict
from helpers_regions import RegionGraph


# DBM indices in make_monitor's zones: the automaton's clock x, then the
# engine's time and the channel clock etime.
X, TIME, ETIME = 1, 2, 3


def make_monitor(lo: int, hi: int, jitter: int) -> Monitor:
    return Monitor(
        eventually_then_safe_tba(accept_good=True),
        eventually_then_safe_tba(accept_good=False),
        DelayBounds(lo, hi, jitter),
    )


def spans(intervals) -> list[tuple]:
    return [(iv.lo, iv.lo_strict, iv.hi, iv.hi_strict) for iv in intervals]


def within(intervals, lo: int, hi: int) -> bool:
    """Every interval lies inside the declared band [lo, hi]; ``hi`` may be
    INF."""
    return all(lo <= iv.lo and (hi == INF or iv.hi <= hi)
               for iv in intervals)


class ReportMemoChecks:
    """The latency report is computed once per observation.  A subclass
    gives ``make()``, ``observe(engine, symbol, tau)`` and a ``TRACE`` whose
    observation ``CONCLUSIVE`` (counted from 1) is the first with a
    conclusive verdict, followed by at least one more."""

    @pytest.fixture
    def computed(self, monkeypatch) -> list:
        """Every polarity whose latency unions are computed, in call
        order."""
        sides = []
        compute = monitor_module._latencies

        def counted(side, measures):
            sides.append(side)
            return compute(side, measures)
        monkeypatch.setattr(monitor_module, "_latencies", counted)
        return sides

    def replayed(self, k: int):
        """A fresh engine fed the first ``k`` observations."""
        engine = self.make()
        for sym, tau in self.TRACE[:k]:
            self.observe(engine, sym, tau)
        return engine

    def test_second_call_returns_the_same_report(self, computed):
        engine = self.make()
        for sym, tau in self.TRACE[:self.CONCLUSIVE]:
            computed.clear()
            report = engine.latency_report()
            assert engine.latency_report() is report
            assert len(computed) == 2  # one per polarity
            self.observe(engine, sym, tau)

    def test_report_after_observe_equals_a_fresh_engines(self):
        engine = self.make()
        engine.latency_report()  # held when the first observation comes
        for k, (sym, tau) in enumerate(self.TRACE, 1):
            self.observe(engine, sym, tau)
            assert engine.latency_report() == self.replayed(k).latency_report()

    def test_nothing_computed_past_a_conclusive_verdict(self, computed):
        engine = self.replayed(self.CONCLUSIVE)
        verdict = engine.verdict
        assert verdict.conclusive
        report = engine.latency_report()
        computed.clear()
        for sym, tau in self.TRACE[self.CONCLUSIVE:]:
            assert self.observe(engine, sym, tau) is verdict
            assert engine.latency_report() is report
        assert computed == []

    def test_deep_copy_reports_equal(self):
        engine = self.replayed(1)
        report = engine.latency_report()
        twin = copy.deepcopy(engine)
        assert twin.latency_report() == report
        # each copy keeps its own report: stepping one leaves the other's
        self.observe(twin, *self.TRACE[1])
        assert engine.latency_report() is report
        assert twin.latency_report() == self.replayed(2).latency_report()


class TestReportMemo(ReportMemoChecks):
    TRACE = [("a", 173), ("a", 180), ("a", 190), ("b", 200), ("a", 300),
             ("b", 400)]
    CONCLUSIVE = 4

    @staticmethod
    def make() -> Monitor:
        return make_monitor(0, 100, 2)

    @staticmethod
    def observe(engine: Monitor, sym: str, tau: int) -> Verdict:
        return engine.observe(sym, tau)


class TestWorkedExample:
    """The running example: "a within 10, no b within 20" at scale 10,
    latency within [0, 10], jitter bound 0.2."""

    def test_initial_reach_set(self):
        m = make_monitor(0, 100, 2)
        (s,) = m.pos.reach
        assert s.location == "q0"
        x, t, e = X, TIME, ETIME
        assert spans([difference_bounds(s.zone, x, 0)]) == [
            (0, False, 0, False)]
        assert spans([difference_bounds(s.zone, e, 0)]) == [
            (0, False, 100, False)]
        assert spans([difference_bounds(s.zone, e, x)]) == [
            (0, False, 100, False)]

    def test_after_first_event(self):
        m = make_monitor(0, 100, 2)
        assert m.observe("a", 173) is Verdict.INCONCLUSIVE
        assert {s.location for s in m.pos.reach} == {"q1", "bad"}
        x, t, e = X, TIME, ETIME
        (s,) = [st for st in m.pos.reach if st.location == "q1"]
        assert spans([difference_bounds(s.zone, x, 0)]) == [
            (71, False, 100, False)]
        assert spans([difference_bounds(s.zone, e, 0)]) == [
            (171, False, 173, False)]
        assert spans([difference_bounds(s.zone, e, x)]) == [
            (71, False, 100, False)]
        (b,) = [st for st in m.pos.reach if st.location == "bad"]
        # x is dead at bad and freed there; time keeps the late branch
        assert spans([difference_bounds(b.zone, x, 0)]) == [
            (0, False, INF, True)]
        assert spans([difference_bounds(b.zone, t, 0)]) == [
            (100, True, 173, False)]
        assert spans([difference_bounds(b.zone, e, x)]) == [
            (-INF, True, 173, False)]
        assert spans([difference_bounds(b.zone, e, t)]) == [
            (0, False, 73, True)]

    def test_after_second_event_late(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 173)
        assert m.observe("b", 275) is Verdict.INCONCLUSIVE
        (s,) = [st for st in m.pos.reach if st.location == "good"]
        x, t, e = X, TIME, ETIME
        # x is dead at good and freed there; time keeps its bounds
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

    def test_violation_variant(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 173)
        assert m.observe("b", 271) is Verdict.FALSE
        # only the violation sink remains reachable on the property side
        assert {s.location for s in m.pos.reach} == {"bad"}

    def test_latency_reports(self):
        m = make_monitor(0, 100, 2)
        fresh = m.latency_report()
        assert spans(fresh.positive) == [(0, False, 100, False)]
        assert spans(fresh.negative) == [(0, False, 100, False)]
        m.observe("a", 173)
        rep = m.latency_report()
        assert spans(rep.positive) == [(71, False, 100, False)]
        assert spans(rep.negative) == [(0, False, 100, False)]
        assert rep.jitter == 2
        m.observe("b", 275)
        rep = m.latency_report()
        assert spans(rep.positive) == [(71, False, 75, True)]
        assert spans(rep.negative) == [(0, False, 100, False)]

    def test_unbounded_latency_conclusive(self):
        m = make_monitor(0, INF, 2)
        m.observe("a", 173)
        assert m.observe("b", 271) is Verdict.FALSE
        assert m.verdict_at(400) is Verdict.FALSE

    def test_narrow_latency_band_stays_open(self):
        m = make_monitor(45, 80, 3)
        m.observe("a", 173)
        assert m.observe("b", 271) is Verdict.INCONCLUSIVE
        rep = m.latency_report()
        assert spans(rep.positive) == [(70, False, 71, True)]

    def test_forever_inconclusive_band(self):
        # with both polarity latency sets proper subsets of the admissible
        # band, no continuation can force a conclusive verdict
        m = make_monitor(45, 80, 3)
        m.observe("a", 173)
        m.observe("b", 271)
        rng = random.Random(7)
        tau = 271
        for _ in range(10):
            tau += rng.randint(0, 120)
            assert m.observe(rng.choice("ab"), tau) is Verdict.INCONCLUSIVE


class TestErrors:
    def test_decreasing_timestamp(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 100)
        with pytest.raises(OrderingError):
            m.observe("a", 50)

    def test_equal_timestamps_allowed(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 100)
        m.observe("a", 100)

    def test_first_observation_before_minimum_latency(self):
        m = make_monitor(50, 100, 0)
        with pytest.raises(ObservationError):
            m.observe("a", 30)

    def test_verdict_query_before_last_observation(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 173)
        with pytest.raises(OrderingError):
            m.verdict_at(100)

    def test_frozen_after_conclusive(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", 173)
        m.observe("b", 271)
        assert m.verdict is Verdict.FALSE
        assert m.observe("a", 300) is Verdict.FALSE
        assert m.verdict_at(500) is Verdict.FALSE

    def test_alphabet_mismatch(self):
        a = eventually_then_safe_tba(accept_good=True)
        other = TBA(alphabet=frozenset({"z"}),
                    locations=frozenset({"q"}), initial=frozenset({"q"}),
                    clocks=(), transitions=(Transition("q", "q", "z"),),
                    accepting=frozenset({"q"}))
        with pytest.raises(MonitorError):
            Monitor(a, other, DelayBounds(0, 100, 2))

    def test_non_complement_pair_detected(self):
        # neither automaton accepts anything: no ground truth fits either
        dead = TBA(alphabet=frozenset({"a"}), locations=frozenset({"q"}),
                   initial=frozenset({"q"}),
                   clocks=(), transitions=(Transition("q", "q", "a"),),
                   accepting=frozenset())
        with pytest.raises(ComplementViolationError):
            Monitor(dead, dead, DelayBounds(0, 100, 2))

    def test_empty_language_spec_is_immediately_false(self):
        dead = TBA(alphabet=frozenset({"a"}), locations=frozenset({"q"}),
                   initial=frozenset({"q"}),
                   clocks=(), transitions=(Transition("q", "q", "a"),),
                   accepting=frozenset())
        full = TBA(alphabet=frozenset({"a"}), locations=frozenset({"q"}),
                   initial=frozenset({"q"}),
                   clocks=(), transitions=(Transition("q", "q", "a"),),
                   accepting=frozenset({"q"}))
        m = Monitor(dead, full, DelayBounds(0, 100, 2))
        assert m.verdict is Verdict.FALSE

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            DelayBounds(10, 5, 0)
        with pytest.raises(ValueError):
            DelayBounds(-1, 5, 0)


def loop_pair(c: int) -> tuple[TBA, TBA]:
    """One clock: ``q`` loops on ``a`` while ``x<=c``, otherwise goes to
    ``bad``; the property accepts ``q``, its complement ``bad``."""
    def tba(accepting: str) -> TBA:
        return TBA(alphabet=frozenset({"a"}),
                   locations=frozenset({"q", "bad"}),
                   initial=frozenset({"q"}), clocks=("x",),
                   transitions=(
                       Transition("q", "q", "a",
                                  guard=(AtomicConstraint("x", "<=", c),)),
                       Transition("q", "bad", "a",
                                  guard=(AtomicConstraint("x", ">", c),)),
                       Transition("bad", "bad", "a")),
                   accepting=frozenset({accepting}))
    return tba("q"), tba("bad")


class TestNoValueAliasesInfinity:
    """Every scaled value the library takes stays below ``MAX_SCALED``, as
    the parsers' values do, so that no bound the engines derive from it
    reaches the encoding of ``INF``.  Before, a guard ``x<=2**61`` and an
    observation at ``2**61 + 7`` gave INCONCLUSIVE where the answer is
    FALSE."""

    @pytest.mark.parametrize("c", [MAX_SCALED, 2 ** 61])
    def test_guard_constant_refused(self, c):
        with pytest.raises(TBAError, match="too large"):
            loop_pair(c)

    def test_largest_guard_constant_taken(self):
        spec, comp = loop_pair(MAX_SCALED - 1)
        assert spec.compiled[0].guard == ((1, 0, 2 * (MAX_SCALED - 1) + 1),)

    @pytest.mark.parametrize("bounds", [
        (MAX_SCALED, INF, 0), (0, MAX_SCALED, 0), (0, 5, MAX_SCALED),
        (0, INF + 1, 0)])
    def test_delay_bound_refused(self, bounds):
        with pytest.raises(ValueError, match="below 2\\*\\*50"):
            DelayBounds(*bounds)

    def test_largest_delay_bounds_taken(self):
        top = MAX_SCALED - 1
        DelayBounds(top, top, top)
        DelayBounds(top, INF, top)

    @pytest.mark.parametrize("tau", [MAX_SCALED, 2 ** 61 + 7])
    def test_stamp_refused(self, tau):
        m = make_monitor(0, 100, 2)
        with pytest.raises(MonitorError, match="too large") as e:
            m.observe("a", tau)
        assert type(e.value) is MonitorError and e.value.times == (tau,)
        with pytest.raises(MonitorError, match="too large"):
            m.verdict_at(tau)
        assert m.observation_count == 0 and m.verdict is Verdict.INCONCLUSIVE

    def test_stamp_refused_past_a_conclusive_verdict(self):
        # the loop pair's property needs x<=10 forever: FALSE at once
        m = Monitor(*loop_pair(10), DelayBounds(0, 0, 0))
        assert m.verdict is Verdict.FALSE
        with pytest.raises(MonitorError, match="too large"):
            m.observe("a", MAX_SCALED)
        with pytest.raises(MonitorError, match="too large"):
            m.verdict_at(MAX_SCALED)
        assert m.observe("a", MAX_SCALED - 1) is Verdict.FALSE
        assert m.verdict_at(MAX_SCALED - 1) is Verdict.FALSE

    def test_largest_stamp_taken(self):
        m = make_monitor(0, 100, 2)
        m.observe("a", MAX_SCALED - 1)
        assert m.verdict_at(MAX_SCALED - 1) is Verdict.FALSE


DENOM = 4  # quarter-unit scaling for oracle comparisons


def random_setup(rng: random.Random):
    unit_spec, unit_comp = complement_pair(
        rng, n_clocks=rng.choice([1, 2]), max_const=3)
    spec, comp = scale_tba(unit_spec, DENOM), scale_tba(unit_comp, DENOM)
    lo = rng.randint(0, 2) * DENOM
    hi = lo + rng.randint(0, 2) * DENOM
    eps = rng.randint(0, 2) * DENOM
    events = []
    tau = max(hi, DENOM)  # keep the first observation plainly valid
    for _ in range(rng.randint(1, 4)):
        events.append((rng.choice("ab"), tau))
        tau += rng.randint(0, 3) * DENOM
    return unit_spec, unit_comp, spec, comp, DelayBounds(lo, hi, eps), events


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_verdicts_match(self, seed):
        rng = random.Random(50_000 + seed)
        unit_spec, unit_comp, spec, comp, bounds, events = random_setup(rng)
        g_spec, g_comp = RegionGraph(unit_spec), RegionGraph(unit_comp)
        ob = OracleBounds(bounds.latency_low, bounds.latency_high,
                          bounds.jitter)
        m = Monitor(spec, comp, bounds)
        seen = []
        for sym, tau in events:
            got = m.observe(sym, tau)
            seen.append((sym, tau))
            want = oracle_verdict(spec, comp, g_spec, g_comp, ob, seen, tau,
                                  DENOM)
            assert got.value == want, (seen, tau)
            if got.conclusive:
                break
        else:
            t_late = events[-1][1] + rng.randint(0, 4) * DENOM + 2
            got = m.verdict_at(t_late)
            want = oracle_verdict(spec, comp, g_spec, g_comp, ob, seen,
                                  t_late, DENOM)
            assert got.value == want, (seen, t_late)

    @pytest.mark.parametrize("seed", range(15))
    def test_latency_sets_match_pointwise(self, seed):
        rng = random.Random(60_000 + seed)
        unit_spec, unit_comp, spec, comp, bounds, events = random_setup(rng)
        g_spec, g_comp = RegionGraph(unit_spec), RegionGraph(unit_comp)
        ob = OracleBounds(bounds.latency_low, bounds.latency_high,
                          bounds.jitter)
        m = Monitor(spec, comp, bounds)
        seen = []
        for sym, tau in events:
            if m.observe(sym, tau).conclusive:
                break
            seen.append((sym, tau))
            rep = m.latency_report()
            for ivs in (rep.positive, rep.negative):
                assert within(ivs, bounds.latency_low, bounds.latency_high)
            t = tau
            for delta in range(bounds.latency_low, bounds.latency_high + 1):
                want_pos = oracle_consistent(
                    spec, g_spec, ob, seen, t, DENOM, pinned_latency=delta)
                got_pos = any(iv.contains(delta) for iv in rep.positive)
                assert got_pos == want_pos, (seen, delta, "positive")
                want_neg = oracle_consistent(
                    comp, g_comp, ob, seen, t, DENOM, pinned_latency=delta)
                got_neg = any(iv.contains(delta) for iv in rep.negative)
                assert got_neg == want_neg, (seen, delta, "negative")


class TestInvariantProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_latency_sets_shrink_and_cover(self, seed):
        rng = random.Random(70_000 + seed)
        _, _, spec, comp, bounds, events = random_setup(rng)
        if bounds.latency_high == bounds.latency_low == 0:
            return
        m = Monitor(spec, comp, bounds)
        grid = range(bounds.latency_low, bounds.latency_high + 1)
        prev_pos = {d: True for d in grid}
        prev_neg = {d: True for d in grid}
        for sym, tau in events:
            v = m.observe(sym, tau)
            rep = m.latency_report()
            pos = {d: any(iv.contains(d) for iv in rep.positive)
                   for d in grid}
            neg = {d: any(iv.contains(d) for iv in rep.negative)
                   for d in grid}
            for d in grid:
                # monotone shrinkage
                assert not (pos[d] and not prev_pos[d]), (d, "pos grew")
                assert not (neg[d] and not prev_neg[d]), (d, "neg grew")
                # non-vacuity: admissible latencies stay covered
                assert pos[d] or neg[d], (d, "uncovered")
            prev_pos, prev_neg = pos, neg
            if v.conclusive:
                break

    @pytest.mark.parametrize("seed", range(25))
    def test_verdict_stability(self, seed):
        rng = random.Random(80_000 + seed)
        _, _, spec, comp, bounds, events = random_setup(rng)
        m = Monitor(spec, comp, bounds)
        concluded: Verdict | None = None
        for sym, tau in events:
            v = m.observe(sym, tau)
            if concluded is not None:
                assert v is concluded
            elif v.conclusive:
                concluded = v
                assert m.verdict_at(tau + 40) is v

    @pytest.mark.parametrize("seed", range(20))
    def test_delay_subset_preserves_conclusive_verdicts(self, seed):
        rng = random.Random(90_000 + seed)
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
            if vw.conclusive:
                assert vn is vw

    @pytest.mark.parametrize("seed", range(20))
    def test_classical_degeneration(self, seed):
        """Zero delay bounds reproduce delay-free monitoring exactly."""
        rng = random.Random(95_000 + seed)
        unit_spec, unit_comp, spec, comp, _, events = random_setup(rng)
        g_spec, g_comp = RegionGraph(unit_spec), RegionGraph(unit_comp)
        zero = OracleBounds(0, 0, 0)
        m = Monitor(spec, comp, DelayBounds(0, 0, 0))
        seen = []
        for sym, tau in events:
            got = m.observe(sym, tau)
            seen.append((sym, tau))
            want = oracle_verdict(spec, comp, g_spec, g_comp, zero, seen,
                                  tau, DENOM)
            assert got.value == want
            if got.conclusive:
                break
