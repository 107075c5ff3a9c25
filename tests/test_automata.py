"""Automaton model, text format, and symbolic-successor tests."""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref
from pathlib import Path

import pytest

from delaymon.automata import (
    INPUT_PHASE,
    OUTPUT_PHASE,
    TBA,
    AtomicConstraint,
    Edge,
    SymbolicState,
    TBAError,
    TBAParseError,
    Transition,
    io_alternation_product,
    parse_tba,
    post,
    prune_subsumed,
)
from delaymon.dbm import DBM, INF, MAX_SCALED, bound
from delaymon.liveness import nonempty_states

from helpers_automata import (
    ConcreteState,
    difference_bounds,
    eventually_then_safe_tba,
    explicit_run,
    max_constant,
    random_timestamps,
    random_tba,
    serialize_tba,
    succ,
    with_io,
    with_islands,
    zero_zone,
)

ROOT = Path(__file__).parent.parent
SHIPPED = sorted([*(ROOT / "tests" / "fixtures").glob("*_spec.txt"),
                  *(ROOT / "tests" / "fixtures").glob("*_complement.txt"),
                  *(ROOT / "perfbench" / "inputs").glob("*_spec.txt"),
                  *(ROOT / "perfbench" / "inputs").glob("*_complement.txt")])

# A line with a syntax error, the column of the word at fault, the message.
ERROR_COLUMNS = [
    ("location q q", 12, "unknown location flag 'q'"),
    ("edge foo -> foo on a foo x<5", 22, "unexpected edge clause 'foo'"),
    ("edge when -> when on a when x<=1.55", 24,
     "guard constant: '1.55' needs more precision than scale 10"),
    ("edge reset -> reset on a reset", 26, "reset needs a clock"),
    ("edge reset -> reset on a reset # x", 26, "reset needs a clock"),
    ("edge foo -> foo on a when x<5 when x<5", 31,
     "duplicate edge clause 'when'"),
    ("edge foo -> foo on a reset x reset x", 30,
     "duplicate edge clause 'reset'"),
    ("edge whenever -> whenever on a whenever x<5", 32,
     "unexpected edge clause 'whenever'"),
    ("edge foo  ->  foo on a when x<5 when x<5", 33,
     "duplicate edge clause 'when'"),
]

# A line that uses a name no declaration lists, or a relation that is none
# of <, <=, =, >=, >, with the column of the word at fault and the message.
NAME_COLUMNS = [
    ("edge x -> foo on a", 6, "unknown source location 'x'"),
    ("edge foo -> x on a", 13, "unknown target location 'x'"),
    ("edge foo -> foo on x", 20, "symbol 'x' not in alphabet"),
    ("edge foo -> foo on a when a<5", 27, "guard on unknown clock 'a'"),
    ("edge foo -> foo on a reset x foo", 30, "reset of unknown clock 'foo'"),
    ("edge foo -> foo on a when x=<5", 28, "unknown relation '=<'"),
    ("edge foo -> foo on a when x<5 && x<<3", 35, "unknown relation '<<'"),
    ("edge foo -> foo on a when x < 5 &&x=>5", 36, "unknown relation '=>'"),
    # whitespace, tabs included, and a touching arrow or ``&&``
    ("edge foo->x on a", 11, "unknown target location 'x'"),
    ("edge foo -> foo on a when x<5&&a<3", 32, "guard on unknown clock 'a'"),
    ("edge\tfoo -> foo on a when  x  <  5 &&\ta < 3", 39,
     "guard on unknown clock 'a'"),
    ("edge foo -> foo on a when x<5 &&x=<3", 34, "unknown relation '=<'"),
    ("edge foo -> foo\ton a reset\tx  foo", 31,
     "reset of unknown clock 'foo'"),
]

EXAMPLE_TEXT = """\
# an `a` within 10, no `b` within 20
alphabet a b
clocks x
location q0 initial
location q1
location good accepting
location bad
edge q0 -> q1 on a when x<=10
edge q0 -> bad on a when x>10
edge q0 -> bad on b
edge q1 -> good on a when x>20
edge q1 -> good on b when x>20
edge q1 -> q1 on a when x<=20
edge q1 -> bad on b when x<=20
edge good -> good on a
edge good -> good on b
edge bad -> bad on a
edge bad -> bad on b
"""


class TestParsing:
    def test_roundtrip(self):
        a1 = parse_tba(EXAMPLE_TEXT, scale=10)
        a2 = parse_tba(serialize_tba(a1, scale=10), scale=10)
        assert set(a2.transitions) == set(a1.transitions)
        assert (a2.alphabet, a2.locations, a2.initial, a2.clocks,
                a2.accepting) == (a1.alphabet, a1.locations, a1.initial,
                                  a1.clocks, a1.accepting)

    def test_matches_programmatic_builder(self):
        parsed = parse_tba(EXAMPLE_TEXT, scale=10)
        built = eventually_then_safe_tba(accept_good=True)
        assert parsed.locations == built.locations
        assert parsed.clocks == built.clocks
        assert set(parsed.transitions) == set(built.transitions)
        assert parsed.accepting == {"good"}

    def test_guard_scaling(self):
        a = parse_tba(EXAMPLE_TEXT, scale=10)
        (t,) = [t for t in a.transitions if t.src == "q0" and t.dst == "q1"]
        assert t.guard == (AtomicConstraint("x", "<=", 100),)
        # compiled once, with x at DBM index 1; replace() rebuilds the
        # same edge table
        assert Edge("q0", "q1", ((1, 0, bound(100)),), ()) in a.compiled
        b = dataclasses.replace(a, accepting=frozenset({"q0", "bad"}))
        assert b.compiled == a.compiled
        assert all(b.steps(q, sym) == a.steps(q, sym)
                   for q in a.locations for sym in a.alphabet)

    def test_fractional_constant_scales(self):
        a = parse_tba(
            "alphabet a\nclocks x\nlocation q initial accepting\n"
            "edge q -> q on a when x<=1.5\n", scale=10)
        (t,) = a.transitions
        assert t.guard[0].constant == 15

    def test_unscalable_constant_rejected(self):
        with pytest.raises(TBAParseError) as e:
            parse_tba("alphabet a\nclocks x\nlocation q initial\n"
                      "edge q -> q on a when x<=1.55\n", scale=10)
        assert e.value.line == 4

    def test_empty_locations_rejected(self):
        with pytest.raises(TBAError, match="no locations"):
            parse_tba("alphabet a\n")

    def test_unknown_declaration_reports_position(self):
        with pytest.raises(TBAParseError) as e:
            parse_tba("alphabet a\nstate q0\n")
        assert e.value.line == 2 and e.value.column == 1

    @pytest.mark.parametrize("line, column, message", ERROR_COLUMNS,
                             ids=[f"{line}-{col}" for line, col, _
                                  in ERROR_COLUMNS])
    def test_error_column_is_the_word_it_names(self, line, column, message):
        # The word the message names also occurs earlier on the line.
        with pytest.raises(TBAParseError) as e:
            parse_tba(f"alphabet a\nclocks x\nlocation foo initial\n{line}\n")
        assert str(e.value) == f"line 4, column {column}: {message}"

    @pytest.mark.parametrize("line, column, message", NAME_COLUMNS,
                             ids=[f"{line}-{col}" for line, col, _
                                  in NAME_COLUMNS])
    def test_name_error_column_is_the_word_it_names(self, line, column,
                                                     message):
        with pytest.raises(TBAParseError) as e:
            parse_tba(f"alphabet a\nclocks x\nlocation foo initial\n{line}\n")
        assert str(e.value) == f"line 4, column {column}: {message}"
        assert (e.value.line, e.value.column) == (4, column)

    def test_names_may_be_declared_after_their_use(self):
        a = parse_tba("edge q -> r on a when x<5 reset x\nalphabet a\n"
                      "clocks x\nlocation q initial\nlocation r\n")
        assert a.compiled == (Edge("q", "r", ((1, 0, bound(50, True)),),
                                   (1,)),)

    def test_unknown_names_listed_in_file_order(self):
        text = ("alphabet a\nclocks x\nlocation q0 initial\n"
                "edge q0 -> q0 on a reset y when y<1\n"
                "edge q0 -> nowhere on z\n")
        with pytest.raises(TBAParseError) as e:
            parse_tba(text)
        assert str(e.value) == (
            "line 4, column 26: reset of unknown clock 'y'; "
            "line 4, column 33: guard on unknown clock 'y'; "
            "line 5, column 12: unknown target location 'nowhere'; "
            "line 5, column 23: symbol 'z' not in alphabet")
        assert (e.value.line, e.value.column) == (4, 26)

    def test_each_use_of_a_repeated_unknown_name_is_located(self):
        # the second line's clauses repeat the first's, read once
        edge = "edge q0 -> q0 on a when y<1 && y>3 reset y y\n"
        with pytest.raises(TBAParseError) as e:
            parse_tba("alphabet a\nclocks x\nlocation q0 initial\n"
                      + edge + edge)
        assert str(e.value) == "; ".join(
            f"line {n}, column {c}: {m} unknown clock 'y'"
            for n in (4, 5) for c, m in ((25, "guard on"), (32, "guard on"),
                                         (42, "reset of"), (44, "reset of")))
        assert (e.value.line, e.value.column) == (4, 25)

    @pytest.mark.parametrize("scale", [0, 3, 20, -10])
    def test_scale_must_be_a_power_of_ten(self, scale):
        # checked up front, not only by a guard constant
        with pytest.raises(ValueError, match="not a power of ten"):
            parse_tba("alphabet a\nlocation q initial\nedge q -> q on a\n",
                      scale)

    def test_semantic_errors_all_listed(self):
        text = ("alphabet a\nclocks x\nlocation q0 initial\n"
                "edge q0 -> nowhere on a\n"
                "edge q0 -> q0 on z\n"
                "edge q0 -> q0 on a reset y\n")
        with pytest.raises(TBAError) as e:
            parse_tba(text)
        msg = str(e.value)
        assert "nowhere" in msg and "'z'" in msg and "'y'" in msg

    def test_io_partition_must_cover(self):
        with pytest.raises(TBAError, match="cover"):
            parse_tba("alphabet a b\ninputs a\nlocation q initial\n")

    def test_comments_and_blank_lines_ignored(self):
        a = parse_tba("# header\n\nalphabet a\nlocation q initial # trailing\n")
        assert a.locations == {"q"}

    @pytest.mark.parametrize("arrow", [" -> ", "->"], ids=["spaced", "glued"])
    @pytest.mark.parametrize("clauses", [
        "when x<=3 reset x y", "reset x y when x<=3"],
        ids=["when-first", "reset-first"])
    def test_reset_parses(self, arrow, clauses):
        a = parse_tba("alphabet a\nclocks x y\nlocation q initial\n"
                      f"edge q{arrow}q on a {clauses}\n")
        assert a.transitions[0].resets == {"x", "y"}
        assert a.compiled == (Edge("q", "q", ((1, 0, bound(30)),), (1, 2)),)

    @pytest.mark.parametrize("path", SHIPPED,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_shipped_file_roundtrip_reset_first(self, path):
        a1 = parse_tba(path.read_text(), scale=100)
        text = serialize_tba(a1, scale=100, clauses=("reset", "when"))
        a2 = parse_tba(text.replace("\n", "  # trailing comment\n"),
                       scale=100)
        assert set(a2.transitions) == set(a1.transitions)


# The zones of a monitor over eventually_then_safe_tba: its clock x, then
# the engine's time and etime.
X, TIME, DIM = 1, 2, 4


class TestPost:
    def test_branching_on_threshold(self):
        a = eventually_then_safe_tba(accept_good=True)
        z0 = zero_zone(DIM)
        out = post([SymbolicState("q0", z0)], "a", a, (X, INF, INF))
        assert {s.location for s in out} == {"q1", "bad"}

    def test_self_loop_keeps_location(self):
        a = eventually_then_safe_tba(accept_good=True)
        z = DBM.universal(DIM)
        out = post([SymbolicState("good", z)], "a", a, (X, INF, INF))
        assert [s.location for s in out] == ["good"]

    def test_unknown_symbol_rejected(self):
        a = eventually_then_safe_tba(accept_good=True)
        with pytest.raises(TBAError, match="alphabet"):
            post([SymbolicState("q0", zero_zone(DIM))], "zz", a,
                 (X, INF, INF))

    def test_empty_guard_drops_candidate(self):
        a = eventually_then_safe_tba(accept_good=True)
        # pin x above 20: the x<=10 edge candidate must be dropped
        z = DBM.universal(DIM).and_constraints([(0, X, bound(-300))])
        out = post([SymbolicState("q0", z)], "a", a, (X, INF, INF))
        assert {s.location for s in out} == {"bad"}


class TestSucc:
    def test_delay_free_single_event(self):
        a = eventually_then_safe_tba(accept_good=True)
        s0 = [SymbolicState(q, zero_zone(DIM)) for q in a.initial]
        out = succ(s0, "a", 173, a)
        assert {s.location for s in out} == {"bad"}
        (s,) = out
        iv = difference_bounds(s.zone, X, 0)
        assert (iv.lo, iv.hi) == (173, 173)
        tv = difference_bounds(s.zone, TIME, 0)
        assert (tv.lo, tv.hi) == (173, 173)

    def test_time_regression_gives_empty(self):
        a = eventually_then_safe_tba(accept_good=True)
        s0 = [SymbolicState(q, zero_zone(DIM)) for q in a.initial]
        s1 = succ(s0, "a", 50, a)
        assert succ(s1, "a", 30, a) == []

    def test_zones_pin_time_exactly(self):
        a = eventually_then_safe_tba(accept_good=True)
        s0 = [SymbolicState(q, zero_zone(DIM)) for q in a.initial]
        for tau in (30, 80, 150):
            s0 = succ(s0, "a", tau, a)
            for s in s0:
                iv = difference_bounds(s.zone, TIME, 0)
                assert (iv.lo, iv.hi, iv.lo_strict, iv.hi_strict) == (
                    tau, tau, False, False)

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_explicit_simulation(self, seed):
        """Delay-free symbolic reach equals brute-force enumeration on the
        clocks active at each location.  A clock inactive there is free,
        or keeps the point value of a step that made no copy."""
        rng = random.Random(seed)
        a = random_tba(rng)
        times = random_timestamps(rng, 5)
        word = [(rng.choice(["a", "b"]), t) for t in times]
        sym = [SymbolicState(q, zero_zone(len(a.clocks) + 2))
               for q in a.initial]
        for lbl, tau in word:
            sym = succ(sym, lbl, tau, a)
        inactive = a.inactive_clocks

        def live(location, values):
            dead = inactive.get(location, 0)
            return ConcreteState(location, tuple(
                None if dead >> i & 1 else v
                for i, v in enumerate(values, start=1)))

        expected = {live(c.location, c.clocks) for c in explicit_run(a, word)}
        got: set[ConcreteState] = set()
        for s in sym:
            # each live clock is a single point here: times are fully
            # determined
            vals = []
            for i in range(1, len(a.clocks) + 1):
                iv = difference_bounds(s.zone, i, 0)
                if inactive.get(s.location, 0) >> i & 1:
                    assert iv.lo == iv.hi or (iv.lo, iv.hi) == (0, INF)
                else:
                    assert iv.lo == iv.hi
                vals.append(iv.lo)
            got.add(live(s.location, vals))
        assert got == expected


WIDE_BAND_SPEC = Path(__file__).parent.parent / (
    "perfbench/inputs/wide_band_spec.txt")

CHAIN_TEXT = """\
# x is read only on the third edge of the chain p0 -> p1 -> p2 -> p3;
# q0 enters the chain with a reset of x, and y is never read
alphabet a
clocks x y
location q0 initial
location p0
location p1
location p2
location p3 accepting
edge q0 -> p1 on a reset x
edge p0 -> p1 on a reset y
edge p1 -> p2 on a
edge p2 -> p3 on a when x>=1
edge p3 -> p3 on a reset x y
"""


def reference_inactive(automaton: TBA) -> dict[str, set[str]]:
    """The active-clock fixpoint by plain iteration over sets of names."""
    active = {q: set() for q in automaton.locations}
    changed = True
    while changed:
        changed = False
        for t in automaton.transitions:
            grown = active[t.src] | {g.clock for g in t.guard} | (
                active[t.dst] - t.resets)
            if grown != active[t.src]:
                active[t.src], changed = grown, True
    return {q: set(automaton.clocks) - a for q, a in active.items()
            if set(automaton.clocks) - a}


def names_of(automaton: TBA, inactive: dict[str, int]) -> dict[str, set[str]]:
    return {q: {c for i, c in enumerate(automaton.clocks, start=1)
                if mask >> i & 1} for q, mask in inactive.items()}


class TestInactiveClocks:
    def test_wide_band(self):
        a = parse_tba(WIDE_BAND_SPEC.read_text(), 10)
        assert names_of(a, a.inactive_clocks) == {
            "q0": {"x"}, "q1": {"y"}, "bad": {"x", "y"}}

    def test_clock_read_two_edges_later(self):
        a = parse_tba(CHAIN_TEXT)
        assert names_of(a, a.inactive_clocks) == {
            "q0": {"x", "y"}, "p0": {"y"}, "p1": {"y"}, "p2": {"y"},
            "p3": {"x", "y"}}

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_plain_iteration(self, seed):
        rng = random.Random(seed)
        a = random_tba(rng, n_clocks=3, n_locs=5, guard_ratio=0.2)
        assert names_of(a, a.inactive_clocks) == reference_inactive(a)

    def test_prune_compares_active_clocks_only(self):
        a = parse_tba(WIDE_BAND_SPEC.read_text(), 10)
        x, y, dim = 1, 2, 4  # then time
        wide = DBM.universal(dim).and_constraints(
            [(x, 0, bound(4)), (y, 0, bound(3))])
        late = DBM.universal(dim).and_constraints(
            [(0, x, bound(-5)), (y, 0, bound(2))])
        inactive = a.inactive_clocks
        for loc, kept in (("q0", [wide]), ("q1", [wide, late])):
            # q0 never reads x, on which alone the zones are incomparable;
            # q1 reads x
            for zones in ([wide, late], [late, wide]):
                states = [SymbolicState(loc, z) for z in zones]
                assert prune_subsumed(states, {}) == states
                assert {s.zone for s in prune_subsumed(states, inactive)
                        } == set(kept)


class TestIOAlternationProduct:
    def test_requires_partition(self):
        a = eventually_then_safe_tba(accept_good=True)
        with pytest.raises(TBAError, match="partition"):
            io_alternation_product(a)

    def test_structure(self):
        base = parse_tba(
            "alphabet i o\ninputs i\noutputs o\nclocks x\n"
            "location q initial accepting\n"
            "edge q -> q on i\nedge q -> q on o\n")
        prod = io_alternation_product(base)
        assert len(prod.locations) == 2 * len(base.locations)
        assert len(prod.accepting) == 2 * len(base.accepting)
        # initial phase expects an input
        (q0,) = prod.initial
        assert prod.steps(q0, "i") and not prod.steps(q0, "o")

    def test_consecutive_inputs_blocked(self):
        base = parse_tba(
            "alphabet i o\ninputs i\noutputs o\n"
            "location q initial accepting\n"
            "edge q -> q on i\nedge q -> q on o\n")
        prod = io_alternation_product(base)
        s = [SymbolicState(q, zero_zone(2)) for q in prod.initial]  # time
        s = succ(s, "i", 10, prod)
        assert s
        assert succ(s, "i", 20, prod) == []
        assert succ(s, "o", 20, prod)

    def test_alternating_word_follows_original(self):
        base = parse_tba(
            "alphabet i o\ninputs i\noutputs o\nclocks x\n"
            "location p initial\nlocation q accepting\n"
            "edge p -> q on i when x<=5 reset x\n"
            "edge q -> p on o when x<=5\n")
        prod = io_alternation_product(base)
        s = [SymbolicState(q, zero_zone(3)) for q in prod.initial]  # x, time
        for lbl, tau in [("i", 3), ("o", 5), ("i", 8)]:
            s = succ(s, lbl, tau, prod)
            assert s, f"stuck at {(lbl, tau)}"
        base_states = explicit_run(base, [("i", 3), ("o", 5), ("i", 8)])
        assert {st.location for st in base_states} == {
            loc[:-2] for loc in {st.location for st in s}}


class TestModelValidation:
    def test_reset_of_unknown_clock_rejected(self):
        with pytest.raises(TBAError, match="unknown clock"):
            TBA(
                alphabet=frozenset("a"),
                locations=frozenset({"q"}),
                initial=frozenset({"q"}),
                clocks=("x",),
                transitions=(Transition("q", "q", "a",
                                        resets=frozenset({"y"})),),
                accepting=frozenset({"q"}),
            )

    def test_negative_guard_constant_rejected(self):
        with pytest.raises(TBAError, match="non-negative"):
            AtomicConstraint("x", "<=", -1)

    @pytest.mark.parametrize("constant", [MAX_SCALED, 2 ** 61, 2 ** 62])
    def test_guard_constant_that_could_alias_inf_rejected(self, constant):
        # the parser refuses these already; the library now does too
        with pytest.raises(TBAError) as e:
            AtomicConstraint("x", "<=", constant)
        assert str(e.value) == (f"guard constant {constant} is too large: "
                                "scaled values must stay below 2**50")
        assert AtomicConstraint("x", "<=", MAX_SCALED - 1).constant == (
            MAX_SCALED - 1)

    def test_max_constant(self):
        a = eventually_then_safe_tba(accept_good=True)
        assert max_constant(a, "x") == 200
        assert max_constant(a, "nosuch") == 0


def reference_product(automaton: TBA) -> TBA:
    """The I/O product built as before: a fresh :class:`Transition` per
    edge, through the public constructor, which validates and compiles
    every edge again."""
    locs: set[str] = set()
    for q in automaton.locations:
        locs.add(q + INPUT_PHASE)
        locs.add(q + OUTPUT_PHASE)
    trans = []
    for t in automaton.transitions:
        if t.label in automaton.inputs:
            trans.append(Transition(t.src + INPUT_PHASE, t.dst + OUTPUT_PHASE,
                                    t.label, t.resets, t.guard))
        else:
            trans.append(Transition(t.src + OUTPUT_PHASE, t.dst + INPUT_PHASE,
                                    t.label, t.resets, t.guard))
    accepting = {q + p for q in automaton.accepting
                 for p in (INPUT_PHASE, OUTPUT_PHASE)}
    return TBA(alphabet=automaton.alphabet, locations=frozenset(locs),
               initial=frozenset(q + INPUT_PHASE for q in automaton.initial),
               clocks=automaton.clocks, transitions=tuple(trans),
               accepting=frozenset(accepting), inputs=automaton.inputs,
               outputs=automaton.outputs)


def assert_same_automaton(got: TBA, want: TBA) -> None:
    """Equal field by field, edge by edge and in every derived table; the
    reprs also pin each set's iteration order, which the analyses follow."""
    assert got == want and repr(got) == repr(want)
    assert got.compiled == want.compiled
    for q in want.locations:
        for a in want.alphabet:
            assert got.steps(q, a) == want.steps(q, a), (q, a)
    assert got.inactive_clocks == want.inactive_clocks
    g, w = nonempty_states(got), nonempty_states(want)
    assert list(g.zones) == list(w.zones)
    for q, zones in w.zones.items():
        assert [z.m for z in g.zones[q]] == [z.m for z in zones], q


def shipped_io_automata() -> list[TBA]:
    out = [parse_tba(path.read_text(), 10) for path in SHIPPED]
    return [a for a in out if a.has_io_partition]


class TestProductFromCompiledEdges:
    """The I/O product renames its base's compiled edges; it must equal the
    product built through ``TBA(...)``."""

    def test_shipped_automata(self):
        bases = shipped_io_automata()
        assert len(bases) >= 10
        for base in bases:
            assert_same_automaton(io_alternation_product(base),
                                  reference_product(base))

    @pytest.mark.parametrize("chunk", range(8))
    def test_random(self, chunk):
        for seed in range(50 * chunk, 50 * chunk + 50):
            rng = random.Random(21_000 + seed)
            base = with_io(random_tba(
                rng, n_clocks=rng.choice([1, 2, 3]), n_locs=rng.choice([2, 3]),
                max_const=3, guard_ratio=0.5))
            assert_same_automaton(io_alternation_product(base),
                                  reference_product(base))

    def test_shares_the_base_guard_and_resets(self):
        base = parse_tba(LADDER_2.read_text(), 10)
        product = io_alternation_product(base)
        assert all(p.guard is b.guard and p.resets is b.resets
                   for p, b in zip(product.compiled, base.compiled))
        assert len(product.compiled) == len(base.compiled) > 80


LADDER_2 = ROOT / "perfbench" / "inputs" / "ladder_2_spec.txt"


def reference_reachable(automaton: TBA) -> set[str]:
    """The locations that the edges reach from the initial ones, grown by
    whole rounds of set iteration."""
    seen = set(automaton.initial)
    while True:
        grown = seen | {t.dst for t in automaton.transitions
                        if t.src in seen}
        if grown == seen:
            return seen
        seen = grown


class TestReachablePart:
    """``TBA.reachable`` keeps the locations that a run can enter, guards
    ignored, the edges from them, in order, and the accepting ones among
    them; it reuses the compiled edges."""

    @staticmethod
    def assert_reachable_part(a: TBA) -> TBA:
        part, kept = a.reachable, reference_reachable(a)
        if kept == a.locations:
            assert part is a
            return part
        want = [k for k, t in enumerate(a.transitions) if t.src in kept]
        assert part == dataclasses.replace(
            a, locations=frozenset(kept), accepting=a.accepting & kept,
            transitions=tuple(a.transitions[k] for k in want))
        assert all(e is a.compiled[k] for e, k in zip(part.compiled, want))
        assert len(part.compiled) == len(want)
        assert part.reachable is part and not part.memo
        return part

    def test_shipped_automata_and_io_products(self):
        sizes = {}
        for path in SHIPPED:
            a = parse_tba(path.read_text(), 10)
            sizes[path.stem] = [len(self.assert_reachable_part(a).locations)]
            if a.has_io_partition:
                sizes[path.stem].append(len(
                    self.assert_reachable_part(a.io_product).locations))
        assert sizes["ladder_2_spec"] == [8, 9]
        assert sizes["ladder_4_complement"] == [11, 12]
        assert sizes["gear_spec"] == [3, 4]
        assert sizes["deadline_spec"] == [4]

    def test_freed_without_the_garbage_collector(self):
        """An automaton that caches its reachable part, itself or a smaller
        one, holds no reference cycle: it goes with its last reference."""
        base = parse_tba(LADDER_2.read_text(), 10)
        gear = parse_tba((LADDER_2.parent / "gear_spec.txt").read_text(), 1)
        assert gear.reachable is gear and base.reachable is not base
        refs = [weakref.ref(a) for a in (base, base.reachable, gear)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del base, gear
            assert [r() for r in refs] == [None] * 3
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_with_islands(self, chunk):
        smaller = 0
        for seed in range(50 * chunk, 50 * chunk + 50):
            rng = random.Random(24_000 + seed)
            a = random_tba(rng, n_clocks=rng.choice([1, 2]),
                           n_locs=rng.choice([2, 3, 4]), max_const=3)
            for b in (a, with_islands(a, rng), io_alternation_product(
                    with_io(with_islands(a, rng)))):
                smaller += self.assert_reachable_part(b) is not b
        assert smaller >= 100

# An automaton over ``a`` with one location ``q`` and one clock ``x``, and
# edges given per test.
ONE_LOCATION = dict(alphabet=frozenset({"a"}), locations=frozenset({"q"}),
                    initial=frozenset({"q"}), clocks=("x",),
                    accepting=frozenset({"q"}))


class TestDirectConstructorMessages:
    """``TBA(...)`` without the parser validates with the one name check
    and lists every problem in the same text as before, joined by
    ``"; "``."""

    @pytest.mark.parametrize("transition, message", [
        (Transition("p", "q", "a"),
         "edge p->q on a: unknown source location 'p'"),
        (Transition("q", "p", "a"),
         "edge q->p on a: unknown target location 'p'"),
        (Transition("q", "q", "b"),
         "edge q->q on b: symbol 'b' not in alphabet"),
        (Transition("q", "q", "a", guard=(AtomicConstraint("y", "<", 1),)),
         "edge q->q on a: guard on unknown clock 'y'"),
        (Transition("q", "q", "a", resets=frozenset({"y"})),
         "edge q->q on a: reset of unknown clock 'y'"),
    ], ids=["src", "dst", "label", "guard", "reset"])
    def test_each_role(self, transition, message):
        with pytest.raises(TBAError) as e:
            TBA(transitions=(Transition("q", "q", "a"), transition),
                **ONE_LOCATION)
        assert type(e.value) is TBAError and str(e.value) == message

    def test_several_at_once(self):
        g = AtomicConstraint
        fields = dict(ONE_LOCATION, alphabet=frozenset({"a", "c"}),
                      accepting=frozenset({"q", "gone"}),
                      inputs=frozenset({"a"}))
        with pytest.raises(TBAError) as e:
            TBA(transitions=(
                Transition("p", "r", "b", frozenset({"x", "y"}),
                           (g("z", "<", 1), g("x", "<", 1), g("z", ">", 2))),
                Transition("q", "q", "a"),
                Transition("q", "s", "a", guard=(g("w", "=", 3),))),
                **fields)
        assert type(e.value) is TBAError
        assert str(e.value) == "; ".join([
            "accepting location 'gone' undeclared",
            "edge p->r on b: unknown source location 'p'",
            "edge p->r on b: unknown target location 'r'",
            "edge p->r on b: symbol 'b' not in alphabet",
            "edge p->r on b: reset of unknown clock 'y'",
            "edge p->r on b: guard on unknown clock 'z'",
            "edge p->r on b: guard on unknown clock 'z'",
            "edge q->s on a: unknown target location 's'",
            "edge q->s on a: guard on unknown clock 'w'",
            "inputs/outputs do not cover the alphabet"])

    @pytest.mark.parametrize("inputs, outputs, message", [
        ("a z", "b", "input 'z' not in alphabet"),
        ("a", "b z", "output 'z' not in alphabet"),
        ("a y", "b x w",
         "input 'y' not in alphabet; output 'w' not in alphabet; "
         "output 'x' not in alphabet"),
        ("z", "b",
         "input 'z' not in alphabet; "
         "inputs/outputs do not cover the alphabet"),
    ], ids=["input", "output", "both", "and-a-gap"])
    def test_partition_symbol_outside_the_alphabet(self, inputs, outputs,
                                                   message):
        """Each stray symbol is named; the gap message is kept for a
        symbol of the alphabet that neither list holds."""
        text = (f"alphabet a b\ninputs {inputs}\noutputs {outputs}\n"
                "clocks x\nlocation q initial accepting\nedge q -> q on a\n")
        with pytest.raises(TBAError) as e:
            parse_tba(text, 1)
        assert type(e.value) is TBAError and str(e.value) == message
        with pytest.raises(TBAError) as e:
            TBA(transitions=(Transition("q", "q", "a"),),
                **dict(ONE_LOCATION, alphabet=frozenset({"a", "b"}),
                       inputs=frozenset(inputs.split()),
                       outputs=frozenset(outputs.split())))
        assert type(e.value) is TBAError and str(e.value) == message

    @pytest.mark.parametrize("path", SHIPPED,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_parse_equals_the_direct_constructor(self, path):
        parsed = parse_tba(path.read_text(), 10)
        built = TBA(**{f.name: getattr(parsed, f.name)
                       for f in dataclasses.fields(TBA) if f.init})
        assert_same_automaton(parsed, built)


class TestSetUpRunsEachStepOnce:
    """The parser validates and compiles once; the I/O product does
    neither."""

    @pytest.fixture
    def calls(self, monkeypatch) -> dict[str, int]:
        counts = {"validate": 0, "_compile": 0}
        for name in counts:
            method = getattr(TBA, name)

            def counted(self, method=method, name=name):
                counts[name] += 1
                return method(self)
            monkeypatch.setattr(TBA, name, counted)
        return counts

    def test_parse_checks_and_compiles_once(self, calls):
        parse_tba(LADDER_2.read_text(), 10)
        assert calls == {"validate": 1, "_compile": 1}

    def test_product_neither_checks_nor_compiles(self, calls):
        base = parse_tba(LADDER_2.read_text(), 10)
        calls.update(validate=0, _compile=0)
        product = base.io_product
        assert product.compiled and product.inactive_clocks
        assert nonempty_states(product).zones
        assert calls == {"validate": 0, "_compile": 0}

    def test_reachable_part_neither_checks_nor_compiles(self, calls):
        product = parse_tba(LADDER_2.read_text(), 10).io_product
        calls.update(validate=0, _compile=0)
        part = product.reachable
        assert part is not product and part.compiled
        assert calls == {"validate": 0, "_compile": 0}

    def test_direct_constructor_checks_and_compiles(self, calls):
        base = parse_tba(LADDER_2.read_text(), 10)
        calls.update(validate=0, _compile=0)
        rebuilt = dataclasses.replace(base, accepting=frozenset())
        assert calls == {"validate": 1, "_compile": 1}
        assert rebuilt.compiled == base.compiled
