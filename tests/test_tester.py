"""Tests for active testing over two delayed channels.

Deterministic scenarios are derived by hand from a request/response
property; randomized runs are checked against the exact difference-system
oracle extended with the second channel.
"""

from __future__ import annotations

import copy
import itertools
import random
from pathlib import Path

import pytest

import delaymon.automata as automata_module
import delaymon.monitor as monitor_module
from delaymon.automata import io_alternation_product, parse_tba
from delaymon.dbm import INF, MAX_SCALED, Interval
from delaymon.monitor import (
    ComplementViolationError,
    DelayBounds,
    Monitor,
    MonitorError,
    OrderingError,
    Verdict,
)
from delaymon.tester import (
    ROUND_TRIP,
    AlternationError,
    GapError,
    IODelayBounds,
    Tester,
)

from helpers_automata import (difference_bounds, request_response_tba,
                              scale_tba)
from helpers_oracle import (
    IOOracleBounds,
    io_complement_pair,
    oracle_io_consistent,
    oracle_io_verdict,
)
from helpers_regions import RegionGraph
from test_monitor import ReportMemoChecks, within


def gear_pair(lo: int = 15, hi: int = 25):
    return (request_response_tba(True, lo, hi),
            request_response_tba(False, lo, hi))


BOUNDS = IODelayBounds(DelayBounds(2, 4, 0), DelayBounds(5, 7, 0))


class TestReportMemo(ReportMemoChecks):
    TRACE = [("req", 10), ("resp", 33), ("req", 40), ("resp", 60),
             ("req", 70), ("resp", 80)]
    CONCLUSIVE = 4

    @staticmethod
    def make() -> Tester:
        return Tester(*gear_pair(), BOUNDS)

    @staticmethod
    def observe(engine: Tester, sym: str, tau: int) -> Verdict:
        return engine.observe_io(sym, tau)


class TestWorkedSession:
    """Request/response within [15, 25]; input latency in [2, 4], output
    latency in [5, 7], no jitter.  All numbers derived by hand."""

    def test_fresh_report_is_the_declared_rectangle(self):
        t = Tester(*gear_pair(), BOUNDS)
        rep = t.latency_report()
        for ivs in (rep.positive_input, rep.negative_input):
            assert [(iv.lo, iv.hi) for iv in ivs] == [(2, 4)]
        for ivs in (rep.positive_output, rep.negative_output):
            assert [(iv.lo, iv.hi) for iv in ivs] == [(5, 7)]
        for ivs in (rep.positive_combined, rep.negative_combined):
            assert [(iv.lo, iv.hi) for iv in ivs] == [(7, 11)]
        assert t.verdict is Verdict.INCONCLUSIVE

    def test_fast_response_is_a_violation(self):
        # response clock reads tau2 - 10 - (combined latency) <= 31-10-7 < 15
        t = Tester(*gear_pair(), BOUNDS)
        assert t.observe_io("req", 10) is Verdict.INCONCLUSIVE
        assert t.observe_io("resp", 31) is Verdict.FALSE

    def test_ambiguous_response_splits_the_latency_rectangle(self):
        # x = 33 - 10 - sum; in-window needs sum <= 8, violation sum > 8
        t = Tester(*gear_pair(), BOUNDS)
        t.observe_io("req", 10)
        assert t.observe_io("resp", 33) is Verdict.INCONCLUSIVE
        rep = t.latency_report()
        assert [(iv.lo, iv.lo_strict, iv.hi, iv.hi_strict)
                for iv in rep.positive_combined] == [(7, False, 8, False)]
        # a later request can still be answered badly, so every latency
        # stays consistent with the complement
        assert [(iv.lo, iv.lo_strict, iv.hi, iv.hi_strict)
                for iv in rep.negative_combined] == [(7, False, 11, False)]
        # projections: sum <= 8 with out >= 5 caps the input channel at 3
        assert [(iv.lo, iv.hi) for iv in rep.positive_input] == [(2, 3)]
        assert [(iv.lo, iv.hi) for iv in rep.positive_output] == [(5, 6)]
        assert [(iv.lo, iv.hi) for iv in rep.negative_input] == [(2, 4)]
        assert [(iv.lo, iv.hi) for iv in rep.negative_output] == [(5, 7)]

    def test_missing_response_times_out(self):
        # latest in-window delivery: arrival 14 + window 25 + latency 7 = 46
        t = Tester(*gear_pair(), BOUNDS)
        t.observe_io("req", 10)
        assert t.verdict_at(46) is Verdict.INCONCLUSIVE
        assert t.verdict_at(47) is Verdict.FALSE
        # queries leave the stored state untouched
        assert t.verdict is Verdict.INCONCLUSIVE
        assert t.observe_io("resp", 33) is Verdict.INCONCLUSIVE


class TestErrors:
    def test_must_start_with_an_input(self):
        t = Tester(*gear_pair(), BOUNDS)
        with pytest.raises(AlternationError):
            t.observe_io("resp", 20)

    def test_two_inputs_in_a_row(self):
        t = Tester(*gear_pair(), BOUNDS)
        t.observe_io("req", 10)
        with pytest.raises(AlternationError):
            t.observe_io("req", 20)

    def test_output_gap_below_combined_minimum(self):
        t = Tester(*gear_pair(), BOUNDS)
        t.observe_io("req", 10)
        with pytest.raises(GapError):
            t.observe_io("resp", 16)  # gap 6 < 2 + 5

    def test_decreasing_timestamps(self):
        t = Tester(*gear_pair(), BOUNDS)
        t.observe_io("req", 10)
        with pytest.raises(OrderingError):
            t.observe_io("resp", 9)
        with pytest.raises(OrderingError):
            t.verdict_at(9)

    def test_unknown_symbol(self):
        t = Tester(*gear_pair(), BOUNDS)
        with pytest.raises(MonitorError):
            t.observe_io("ping", 10)

    def test_partition_required(self):
        spec, comp = gear_pair()
        bare = scale_tba(spec, 1)
        import dataclasses
        bare = dataclasses.replace(bare, inputs=frozenset(),
                                   outputs=frozenset())
        with pytest.raises(MonitorError):
            Tester(bare, bare, BOUNDS)

    def test_partition_must_agree(self):
        spec, comp = gear_pair()
        import dataclasses
        flipped = dataclasses.replace(
            comp, inputs=comp.outputs, outputs=comp.inputs)
        with pytest.raises(MonitorError):
            Tester(spec, flipped, BOUNDS)

    def test_non_complement_pair_detected(self):
        spec, _ = gear_pair()
        t = Tester(spec, spec, BOUNDS)
        t.observe_io("req", 10)
        with pytest.raises(ComplementViolationError):
            t.observe_io("resp", 31)

    def test_frozen_after_conclusive(self):
        t = Tester(*gear_pair(), BOUNDS)
        t.observe_io("req", 10)
        assert t.observe_io("resp", 31) is Verdict.FALSE
        with pytest.raises(OrderingError):  # still checked, never stepped
            t.observe_io("req", 5)
        assert t.verdict_at(1000) is Verdict.FALSE

    @pytest.mark.parametrize("tau", [MAX_SCALED, 2 ** 61 + 7])
    def test_stamp_at_or_above_max_scaled(self, tau):
        t = Tester(*gear_pair(), BOUNDS)
        with pytest.raises(MonitorError, match="too large") as e:
            t.observe_io("req", tau)
        assert type(e.value) is MonitorError and t.observation_count == 0
        t.observe_io("req", 10)
        with pytest.raises(MonitorError, match="too large"):
            t.observe_io("resp", tau)
        with pytest.raises(MonitorError, match="too large"):
            t.verdict_at(tau)
        assert t.observation_count == 1


class TestRoundTripFromChannelRanges:
    """The initial zone is built from the two channel ranges only; they
    bound the round trip (output clock ``n + 3`` minus input clock
    ``n + 2``) to the summed range."""

    @staticmethod
    def draw(rng: random.Random, kind: str) -> DelayBounds:
        lo = 0 if kind == "zero" else rng.randint(0, 30)
        hi = {"zero": 0, "point": lo, "band": lo + rng.randint(1, 30),
              "unbounded": INF}[kind]
        return DelayBounds(lo, hi, rng.randint(0, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_initial_round_trip_is_the_summed_range(self, seed):
        rng = random.Random(190_000 + seed)
        kinds = ("zero", "point", "band", "unbounded")
        for k_in, k_out in itertools.product(kinds, kinds):
            b_in, b_out = self.draw(rng, k_in), self.draw(rng, k_out)
            t = Tester(*gear_pair(), IODelayBounds(b_in, b_out))
            lo = b_in.latency_low + b_out.latency_low
            hi = (INF if INF in (b_in.latency_high, b_out.latency_high)
                  else b_in.latency_high + b_out.latency_high)
            x, y = ROUND_TRIP
            for side in (t.pos, t.neg):
                time = side.track.time
                for s in side.reach:
                    assert difference_bounds(s.zone, time + x, time + y) == \
                        Interval(lo, False, hi, hi == INF), (b_in, b_out)


DENOM = 4  # quarter-unit scaling for oracle comparisons


def random_io_setup(rng: random.Random):
    """Random complement pair plus an observation sequence generated from an
    actual ground truth, so every prefix is a valid delayed observation."""
    unit_spec, unit_comp = io_complement_pair(
        rng, n_clocks=rng.choice([1, 2]), max_const=3)
    spec, comp = scale_tba(unit_spec, DENOM), scale_tba(unit_comp, DENOM)
    in_lo = rng.randint(0, 2) * DENOM
    in_hi = in_lo + rng.randint(0, 2) * DENOM
    in_eps = rng.randint(0, 1) * DENOM
    out_lo = rng.randint(0, 2) * DENOM
    out_hi = out_lo + rng.randint(0, 2) * DENOM
    out_eps = rng.randint(0, 1) * DENOM
    d_in = rng.randint(in_lo, in_hi)
    d_out = rng.randint(out_lo, out_hi)
    events: list[tuple[str, int]] = []
    obs_time = 0
    for k in range(rng.randint(1, 4)):
        if k % 2 == 0:
            send = obs_time + rng.randint(0, 8)
            events.append(("a", send))
            obs_time = send
            ground = send + d_in + rng.randint(0, in_eps)
        else:
            emit = ground + rng.randint(0, 8)
            obs_time = emit + d_out + rng.randint(0, out_eps)
            events.append(("b", obs_time))
            ground = emit
    bounds = IODelayBounds(DelayBounds(in_lo, in_hi, in_eps),
                           DelayBounds(out_lo, out_hi, out_eps))
    ob = IOOracleBounds(in_lo, in_hi, in_eps, out_lo, out_hi, out_eps)
    return unit_spec, unit_comp, spec, comp, bounds, ob, events, (d_in, d_out)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_verdicts_match(self, seed):
        rng = random.Random(150_000 + seed)
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
            want = oracle_io_verdict(prod_spec, prod_comp, g_spec, g_comp,
                                     ob, seen, tau, DENOM)
            assert got.value == want, (seen, tau)
            if got.conclusive:
                break
        else:
            t_late = events[-1][1] + rng.randint(0, 4) * DENOM + 2
            got = t.verdict_at(t_late)
            want = oracle_io_verdict(prod_spec, prod_comp, g_spec, g_comp,
                                     ob, seen, t_late, DENOM)
            assert got.value == want, (seen, t_late)

    @pytest.mark.parametrize("seed", range(12))
    def test_latency_sets_match_pointwise(self, seed):
        rng = random.Random(160_000 + seed)
        unit_spec, unit_comp, spec, comp, bounds, ob, events, _ = \
            random_io_setup(rng)
        prod_spec = io_alternation_product(spec)
        prod_comp = io_alternation_product(comp)
        g_spec = RegionGraph(io_alternation_product(unit_spec))
        g_comp = RegionGraph(io_alternation_product(unit_comp))
        t = Tester(spec, comp, bounds)
        seen = []
        for sym, tau in events:
            v = t.observe_io(sym, tau)
            seen.append((sym, tau))
            if v.conclusive:
                break
            rep = t.latency_report()
            for ivs, lo, hi in (
                (rep.positive_input + rep.negative_input,
                 ob.in_lo, ob.in_hi),
                (rep.positive_output + rep.negative_output,
                 ob.out_lo, ob.out_hi),
                (rep.positive_combined + rep.negative_combined,
                 ob.in_lo + ob.out_lo, ob.in_hi + ob.out_hi),
            ):
                assert within(ivs, lo, hi), (ivs, lo, hi, seen)
            for prod, graph, unions in (
                (prod_spec, g_spec, (rep.positive_input, rep.positive_output,
                                     rep.positive_combined)),
                (prod_comp, g_comp, (rep.negative_input, rep.negative_output,
                                     rep.negative_combined)),
            ):
                in_u, out_u, comb_u = unions
                for d in range(ob.in_lo, ob.in_hi + 1):
                    want = oracle_io_consistent(prod, graph, ob, seen, tau,
                                                DENOM, pin_input=d)
                    got = any(iv.contains(d) for iv in in_u)
                    assert got == want, ("input", d, seen)
                for d in range(ob.out_lo, ob.out_hi + 1):
                    want = oracle_io_consistent(prod, graph, ob, seen, tau,
                                                DENOM, pin_output=d)
                    got = any(iv.contains(d) for iv in out_u)
                    assert got == want, ("output", d, seen)
                for d in range(ob.in_lo + ob.out_lo,
                               ob.in_hi + ob.out_hi + 1):
                    want = oracle_io_consistent(prod, graph, ob, seen, tau,
                                                DENOM, pin_combined=d)
                    got = any(iv.contains(d) for iv in comb_u)
                    assert got == want, ("combined", d, seen)


class TestInvariantProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_latency_sets_shrink_and_cover(self, seed):
        rng = random.Random(170_000 + seed)
        _, _, spec, comp, bounds, ob, events, actual = random_io_setup(rng)
        t = Tester(spec, comp, bounds)
        grids = {
            "input": range(ob.in_lo, ob.in_hi + 1),
            "output": range(ob.out_lo, ob.out_hi + 1),
            "combined": range(ob.in_lo + ob.out_lo, ob.in_hi + ob.out_hi + 1),
        }

        def snapshot():
            rep = t.latency_report()
            u = {
                ("pos", "input"): rep.positive_input,
                ("pos", "output"): rep.positive_output,
                ("pos", "combined"): rep.positive_combined,
                ("neg", "input"): rep.negative_input,
                ("neg", "output"): rep.negative_output,
                ("neg", "combined"): rep.negative_combined,
            }
            return {k: {d: any(iv.contains(d) for iv in ivs)
                        for d in grids[k[1]]}
                    for k, ivs in u.items()}

        prev = snapshot()
        for sym, tau in events:
            v = t.observe_io(sym, tau)
            cur = snapshot()
            for (pol, chan), pts in cur.items():
                for d, inside in pts.items():
                    assert not (inside and not prev[(pol, chan)][d]), (
                        pol, chan, d, "grew")
            # only the realized latencies are guaranteed to stay consistent:
            # other pairs may be ruled out by both polarities at once when
            # the observed gaps leave no room for them
            d_in, d_out = actual
            for chan, d in (("input", d_in), ("output", d_out),
                            ("combined", d_in + d_out)):
                assert cur[("pos", chan)][d] or cur[("neg", chan)][d], (
                    chan, d, "uncovered")
            prev = cur
            if v.conclusive:
                break

    @pytest.mark.parametrize("seed", range(20))
    def test_combined_inside_minkowski_sum(self, seed):
        rng = random.Random(180_000 + seed)
        _, _, spec, comp, bounds, ob, events, _ = random_io_setup(rng)
        t = Tester(spec, comp, bounds)
        for sym, tau in events:
            v = t.observe_io(sym, tau)
            rep = t.latency_report()
            for in_u, out_u, comb_u in (
                (rep.positive_input, rep.positive_output,
                 rep.positive_combined),
                (rep.negative_input, rep.negative_output,
                 rep.negative_combined),
            ):
                for c in range(ob.in_lo + ob.out_lo,
                               ob.in_hi + ob.out_hi + 1):
                    if not any(iv.contains(c) for iv in comb_u):
                        continue
                    assert any(
                        any(iv.contains(a) for iv in in_u)
                        and any(iv.contains(c - a) for iv in out_u)
                        for a in range(ob.in_lo, ob.in_hi + 1)), (c, "sum")
            if v.conclusive:
                break

    @pytest.mark.parametrize("seed", range(20))
    def test_verdict_stability(self, seed):
        rng = random.Random(190_000 + seed)
        _, _, spec, comp, bounds, _, events, _ = random_io_setup(rng)
        t = Tester(spec, comp, bounds)
        concluded = None
        for sym, tau in events:
            v = t.observe_io(sym, tau)
            if concluded is not None:
                assert v is concluded
            elif v.conclusive:
                concluded = v
                assert t.verdict_at(tau + 40) is v

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_delay_degenerates_to_monitoring(self, seed):
        """With both channels delay-free the tester must agree with the
        plain monitor run on the alternation products."""
        rng = random.Random(200_000 + seed)
        unit_spec, unit_comp, spec, comp, _, _, events, _ = random_io_setup(rng)
        zero = IODelayBounds(DelayBounds(0, 0, 0), DelayBounds(0, 0, 0))
        t = Tester(spec, comp, zero)
        m = Monitor(io_alternation_product(spec), io_alternation_product(comp),
                    DelayBounds(0, 0, 0))
        for sym, tau in events:
            vt = t.observe_io(sym, tau)
            vm = m.observe(sym, tau)
            assert vt is vm, (sym, tau)
            if vt.conclusive:
                break

    def test_unbounded_output_latency(self):
        spec, comp = gear_pair()
        b = IODelayBounds(DelayBounds(2, 4, 0), DelayBounds(5, INF, 0))
        t = Tester(spec, comp, b)
        t.observe_io("req", 10)
        # without an upper bound the response can always still be in flight
        assert t.verdict_at(10_000) is Verdict.INCONCLUSIVE
        rep = t.latency_report()
        assert rep.positive_combined[-1].hi == INF


FIXTURES = Path(__file__).parent / "fixtures"


class TestOneAnalysisPerAutomaton:
    """Every engine built on one parsed automaton reads the nonemptiness map
    and the I/O product that the first engine on it computed.  The map is
    the analysis of the automaton's reachable part."""

    @staticmethod
    def parse() -> tuple:
        return tuple(parse_tba((FIXTURES / f"gear_{k}.txt").read_text(), 1)
                     for k in ("spec", "complement"))

    @staticmethod
    def build(spec, comp) -> list:
        """A classic, a monitor and a test engine."""
        return [Monitor(spec, comp, DelayBounds(0, 0, 0)),
                Monitor(spec, comp, DelayBounds(0, 100, 10)),
                Tester(spec, comp, IODelayBounds(
                    DelayBounds(10, 50, 10), DelayBounds(60, 100, 10)))]

    def test_each_automaton_is_analysed_once(self, monkeypatch):
        analysed, products = [], []
        analyse = monitor_module.nonempty_states
        product = automata_module.io_alternation_product

        def counted_analyse(automaton):
            analysed.append(automaton)
            return analyse(automaton)

        def counted_product(automaton):
            products.append(automaton)
            return product(automaton)
        monkeypatch.setattr(monitor_module, "nonempty_states",
                            counted_analyse)
        monkeypatch.setattr(automata_module, "io_alternation_product",
                            counted_product)
        spec, comp = self.parse()
        engines = self.build(spec, comp)
        distinct = [a.reachable for a in (spec, comp, spec.io_product,
                                          comp.io_product)]
        assert sorted(map(id, analysed)) == sorted(map(id, distinct))
        # the products' other phase is never analysed
        assert [len(a.locations) for a in distinct[2:]] == [4, 4]
        assert [id(a) for a in products] == [id(spec), id(comp)]

        again = self.build(spec, comp)
        copies = copy.deepcopy(engines)
        assert len(analysed) == 4 and len(products) == 2
        for engine, first in [*zip(again, engines), *zip(copies, engines)]:
            assert engine.pos.nonempty is first.pos.nonempty
            assert engine.neg.nonempty is first.neg.nonempty

    @pytest.mark.parametrize("mode", range(3),
                             ids=["classic", "monitor", "test"])
    def test_warm_engines_answer_as_fresh_ones(self, mode):
        """After every event of the recorded narrow-channel gear session,
        which each mode refutes, an engine on an automaton that earlier
        engines analysed, a deep copy of one, and an engine on a fresh
        parse give the same verdict and latency report."""
        spec, comp = self.parse()
        self.build(spec, comp)
        template = self.build(spec, comp)[mode]
        engines = [self.build(spec, comp)[mode], copy.deepcopy(template),
                   self.build(*self.parse())[mode]]
        events = [(sym, int(stamp[1:])) for stamp, sym in (
            line.split() for line in
            (FIXTURES / "gear_narrow_trace.txt").read_text().splitlines()
            if line and not line.startswith("#"))]
        verdicts = set()
        for sym, tau in events:
            answers = []
            for e in engines:
                observe = e.observe_io if isinstance(e, Tester) else e.observe
                answers.append((observe(sym, tau), e.latency_report()))
            assert answers[1:] == answers[:-1], (sym, tau)
            verdicts.add(answers[0][0])
        assert Verdict.FALSE in verdicts
        # stepping the copy left the template's reach set as it was
        assert (template.latency_report()
                == self.build(spec, comp)[mode].latency_report())
