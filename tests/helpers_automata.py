"""Shared automaton builders and explicit-state oracles for the test suite."""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, replace

from delaymon.automata import (
    TBA,
    AtomicConstraint,
    SymbolicState,
    Transition,
    post,
    prune_subsumed,
)
from delaymon.dbm import (
    DBM,
    INF,
    LE_ZERO,
    bound,
    bound_is_strict,
    bound_value,
    format_scaled,
    merge_difference_bounds,
)
from delaymon.liveness import NonEmptyMap

_RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def holds(g: AtomicConstraint, value: int) -> bool:
    """Whether a concrete clock value satisfies one guard conjunct."""
    return _RELATIONS[g.relation](value, g.constant)


def zero_zone(dim: int) -> DBM:
    """The single valuation with every clock equal to 0."""
    return DBM(dim, [[LE_ZERO] * dim for _ in range(dim)])


def difference_bounds(zone: DBM, x: int, y: int):
    """The tightest interval holding ``v(x) - v(y)`` over the valuations
    ``v`` of the nonempty ``zone``."""
    (interval,) = merge_difference_bounds([(zone.m[y][x], zone.m[x][y])])
    return interval


def zone_contains(zone: DBM, valuation: tuple[int, ...]) -> bool:
    """Membership of a scaled-integer valuation (index 0 must be 0)."""
    if zone.is_empty():
        return False
    for i, row in enumerate(zone.m):
        for j, b in enumerate(row):
            if b == INF:
                continue
            d = valuation[i] - valuation[j]
            if d > bound_value(b) or (d == bound_value(b)
                                      and bound_is_strict(b)):
                return False
    return True


# -- textbook zone operations ------------------------------------------------
#
# The engine fuses these steps on one matrix copy (DBM.elapse,
# DBM.and_constraints with resets, DBM.pre).  Here each step writes its
# defining matrix on a copy and closes it fully with Floyd-Warshall
# (``DBM(dim, m)``), so they serve as the reference.  An empty zone stays
# as it is: the matrix of an empty DBM need not be infeasible.


def textbook_meet(zone: DBM, cons) -> DBM:
    if zone.is_empty():
        return zone
    m = zone.copy_matrix()
    for i, j, b in cons:
        m[i][j] = min(m[i][j], b)
    return DBM(zone.dim, m)


def textbook_up(zone: DBM) -> DBM:
    """Drop the upper bound of every clock."""
    if zone.is_empty():
        return zone
    m = zone.copy_matrix()
    for row in m[1:]:
        row[0] = INF
    return DBM(zone.dim, m)


def textbook_reset(zone: DBM, clocks) -> DBM:
    """Set each clock in ``clocks`` to 0."""
    if zone.is_empty():
        return zone
    m = zone.copy_matrix()
    for x in clocks:
        m[x] = m[0][:]
        for row in m:
            row[x] = row[0]
        m[0][x] = m[x][0] = LE_ZERO
    return DBM(zone.dim, m)


def textbook_free(zone: DBM, clocks) -> DBM:
    """Drop every constraint on the clocks in ``clocks`` but ``>= 0``."""
    if zone.is_empty():
        return zone
    m = zone.copy_matrix()
    for x in clocks:
        m[x] = [INF] * zone.dim
        for row in m:
            row[x] = row[0]
        m[0][x] = m[x][x] = LE_ZERO
    return DBM(zone.dim, m)


def textbook_down(zone: DBM) -> DBM:
    """Relax every lower bound to ``>= 0``: the past of a zone over
    non-negative clocks."""
    if zone.is_empty():
        return zone
    m = zone.copy_matrix()
    m[0] = [max(b, LE_ZERO) for b in m[0]]
    return DBM(zone.dim, m)


def textbook_pre(zone: DBM, guard, resets) -> DBM:
    """States that can delay and take an edge with ``guard`` and
    ``resets`` into ``zone``."""
    pinned = textbook_meet(zone, [(x, 0, LE_ZERO) for x in resets]
                           + [(0, x, LE_ZERO) for x in resets])
    return textbook_down(textbook_meet(textbook_free(pinned, resets), guard))


def nonempty_contains(nonempty: NonEmptyMap, location: str,
                      valuation: tuple[int, ...]) -> bool:
    """Membership of a valuation of the automaton clocks (no leading
    reference 0) in the nonempty zones at ``location``."""
    v = (0, *valuation)
    return any(zone_contains(z, v) for z in nonempty.zones.get(location, ()))


def max_constant(automaton: TBA, clock: str) -> int:
    """Largest guard constant on ``clock`` (0 if no guard reads it)."""
    return max((g.constant for t in automaton.transitions for g in t.guard
                if g.clock == clock), default=0)


def serialize_tba(automaton: TBA, scale: int = 10,
                  clauses: tuple[str, str] = ("when", "reset")) -> str:
    """Inverse of :func:`delaymon.automata.parse_tba` (up to declaration
    order), writing each edge's ``when`` and ``reset`` clauses in the order
    ``clauses`` names them."""
    lines = ["alphabet " + " ".join(sorted(automaton.alphabet))]
    if automaton.inputs:
        lines.append("inputs " + " ".join(sorted(automaton.inputs)))
    if automaton.outputs:
        lines.append("outputs " + " ".join(sorted(automaton.outputs)))
    if automaton.clocks:
        lines.append("clocks " + " ".join(automaton.clocks))
    for q in sorted(automaton.locations):
        flags = ""
        if q in automaton.initial:
            flags += " initial"
        if q in automaton.accepting:
            flags += " accepting"
        lines.append(f"location {q}{flags}")
    for t in sorted(automaton.transitions,
                    key=lambda t: (t.src, t.label, t.dst)):
        parts = {"when": "", "reset": ""}
        if t.guard:
            parts["when"] = " when " + " && ".join(
                f"{g.clock}{g.relation}{format_scaled(g.constant, scale)}"
                for g in t.guard)
        if t.resets:
            parts["reset"] = " reset " + " ".join(sorted(t.resets))
        lines.append(f"edge {t.src} -> {t.dst} on {t.label}"
                     + "".join(parts[c] for c in clauses))
    return "\n".join(lines) + "\n"


def eventually_then_safe_tba(accept_good: bool, scale: int = 10) -> TBA:
    """Automaton for "an `a` within 10, and no `b` within 20" (constants
    pre-scaled by ``scale``).

    With ``accept_good`` the accepting location is the one reached by words
    satisfying the property; otherwise the violation sink accepts, giving the
    complement automaton over the same structure.
    """
    s = scale
    g = AtomicConstraint
    trans = [
        Transition("q0", "q1", "a", guard=(g("x", "<=", 10 * s),)),
        Transition("q0", "bad", "a", guard=(g("x", ">", 10 * s),)),
        Transition("q0", "bad", "b"),
        Transition("q1", "good", "a", guard=(g("x", ">", 20 * s),)),
        Transition("q1", "good", "b", guard=(g("x", ">", 20 * s),)),
        Transition("q1", "q1", "a", guard=(g("x", "<=", 20 * s),)),
        Transition("q1", "bad", "b", guard=(g("x", "<=", 20 * s),)),
        Transition("good", "good", "a"),
        Transition("good", "good", "b"),
        Transition("bad", "bad", "a"),
        Transition("bad", "bad", "b"),
    ]
    return TBA(
        alphabet=frozenset({"a", "b"}),
        locations=frozenset({"q0", "q1", "good", "bad"}),
        initial=frozenset({"q0"}),
        clocks=("x",),
        transitions=tuple(trans),
        accepting=frozenset({"good" if accept_good else "bad"}),
    )


def request_response_tba(accept_good: bool, lo: int, hi: int,
                         req: str = "req", resp: str = "resp") -> TBA:
    """Automaton for "every request is answered within [lo, hi]" with
    requests and responses strictly alternating; complement via the
    violation sink as in :func:`eventually_then_safe_tba`.

    Constants are taken as already scaled.
    """
    g = AtomicConstraint
    trans = [
        Transition("q0", "q1", req, resets=frozenset({"x"})),
        Transition("q0", "bad", resp),
        Transition("q1", "q0", resp,
                   guard=(g("x", ">=", lo), g("x", "<=", hi))),
        Transition("q1", "bad", resp, guard=(g("x", "<", lo),)),
        Transition("q1", "bad", resp, guard=(g("x", ">", hi),)),
        Transition("q1", "bad", req),
        Transition("bad", "bad", req),
        Transition("bad", "bad", resp),
    ]
    return TBA(
        alphabet=frozenset({req, resp}),
        locations=frozenset({"q0", "q1", "bad"}),
        initial=frozenset({"q0"}),
        clocks=("x",),
        transitions=tuple(trans),
        accepting=frozenset({"q0"}) if accept_good else frozenset({"bad"}),
        inputs=frozenset({req}),
        outputs=frozenset({resp}),
    )


def random_tba(rng: random.Random, n_clocks: int = 2, n_locs: int = 3,
               max_const: int = 5, accepting_ratio: float = 0.5,
               guard_ratio: float = 0.6) -> TBA:
    """Small random automaton with total nondeterministic structure; each
    edge guards each clock with probability ``guard_ratio``."""
    locs = [f"q{i}" for i in range(n_locs)]
    clocks = tuple(f"c{i}" for i in range(n_clocks))
    alphabet = ("a", "b")
    trans: list[Transition] = []
    for src in locs:
        for sym in alphabet:
            for _ in range(rng.randint(1, 2)):
                guard = []
                for c in clocks:
                    if rng.random() < guard_ratio:
                        rel = rng.choice(["<", "<=", ">", ">="])
                        guard.append(AtomicConstraint(
                            c, rel, rng.randint(0, max_const)))
                resets = frozenset(
                    c for c in clocks if rng.random() < 0.4)
                trans.append(Transition(src, rng.choice(locs), sym,
                                        resets, tuple(guard)))
    accepting = frozenset(q for q in locs if rng.random() < accepting_ratio)
    return TBA(
        alphabet=frozenset(alphabet),
        locations=frozenset(locs),
        initial=frozenset({locs[0]}),
        clocks=clocks,
        transitions=tuple(trans),
        accepting=accepting or frozenset({locs[-1]}),
    )


def with_io(automaton: TBA) -> TBA:
    """The automaton over ``a``/``b`` with ``a`` as input, ``b`` as output."""
    return replace(automaton, inputs=frozenset({"a"}),
                   outputs=frozenset({"b"}))


def with_unreached_location(automaton: TBA) -> TBA:
    """The automaton plus one location that no edge enters or leaves."""
    return replace(automaton,
                   locations=automaton.locations | {"unreached"})


def with_islands(automaton: TBA, rng: random.Random) -> TBA:
    """The automaton plus one to three locations ``i0``, ``i1``, ... that
    no run can enter: no edge of the automaton goes to one, and each has
    one or two edges per symbol, into an island or into the automaton,
    with random guards and resets, placed among the automaton's edges.
    Each island accepts with probability 1/2."""
    islands = [f"i{k}" for k in range(rng.randint(1, 3))]
    targets = sorted(automaton.locations) + islands
    trans = list(automaton.transitions)
    for src in islands:
        for sym in sorted(automaton.alphabet):
            for _ in range(rng.randint(1, 2)):
                guard = tuple(
                    AtomicConstraint(c, rng.choice(["<", "<=", ">", ">="]),
                                     rng.randint(0, 3))
                    for c in automaton.clocks if rng.random() < 0.4)
                resets = frozenset(
                    c for c in automaton.clocks if rng.random() < 0.4)
                trans.insert(rng.randint(0, len(trans)), Transition(
                    src, rng.choice(targets), sym, resets, guard))
    return replace(
        automaton, locations=automaton.locations | set(islands),
        transitions=tuple(trans), accepting=automaton.accepting | {
            q for q in islands if rng.random() < 0.5})


def rename_clock(automaton: TBA, old: str, new: str) -> TBA:
    """The automaton with clock ``old`` called ``new`` everywhere."""
    def name(c: str) -> str:
        return new if c == old else c
    return replace(
        automaton,
        clocks=tuple(map(name, automaton.clocks)),
        transitions=tuple(
            t._replace(resets=frozenset(map(name, t.resets)),
                       guard=tuple(AtomicConstraint(name(g.clock),
                                                    g.relation, g.constant)
                                   for g in t.guard))
            for t in automaton.transitions))


def scale_tba(automaton: TBA, factor: int) -> TBA:
    """Multiply every guard constant by ``factor``."""
    return TBA(
        alphabet=automaton.alphabet,
        locations=automaton.locations,
        initial=automaton.initial,
        clocks=automaton.clocks,
        transitions=tuple(
            Transition(t.src, t.dst, t.label, t.resets,
                       tuple(AtomicConstraint(g.clock, g.relation,
                                              g.constant * factor)
                             for g in t.guard))
            for t in automaton.transitions),
        accepting=automaton.accepting,
        inputs=automaton.inputs,
        outputs=automaton.outputs,
    )


@dataclass(frozen=True)
class ConcreteState:
    location: str
    clocks: tuple[int, ...]  # one scaled value per automaton clock


def explicit_run(automaton: TBA, events: list[tuple[str, int]]
                 ) -> set[ConcreteState]:
    """Delay-free explicit-state simulation of a timestamped word.

    Returns every concrete state reachable after the whole word; clock
    values are exact because event times are fixed.
    """
    states = {ConcreteState(q, (0,) * len(automaton.clocks))
              for q in automaton.initial}
    prev = 0
    for sym, tau in events:
        elapsed = tau - prev
        if elapsed < 0:
            raise ValueError("events must be time-ordered")
        nxt: set[ConcreteState] = set()
        for s in states:
            vals = tuple(v + elapsed for v in s.clocks)
            for t in automaton.transitions:
                if (t.src, t.label) != (s.location, sym):
                    continue
                named = dict(zip(automaton.clocks, vals))
                if all(holds(g, named[g.clock]) for g in t.guard):
                    after = tuple(
                        0 if c in t.resets else named[c]
                        for c in automaton.clocks)
                    nxt.add(ConcreteState(t.dst, after))
        states = nxt
        prev = tau
    return states


def succ(states: list[SymbolicState], a: str, tau: int, automaton: TBA
         ) -> list[SymbolicState]:
    """Delay-free symbolic successor set: ``post`` with the auxiliary
    ``time`` clock, the one after the automaton's, pinned to ``tau``."""
    ti = len(automaton.clocks) + 1
    pinned = [(ti, 0, bound(tau)), (0, ti, bound(-tau))]
    return prune_subsumed(post(states, a, automaton, pinned), {})


def random_timestamps(rng: random.Random, n: int, max_step: int = 4
                      ) -> list[int]:
    out = []
    t = 0
    for _ in range(n):
        t += rng.randint(0, max_step)
        out.append(t)
    return out


def enumerate_words(alphabet: list[str], times: list[int]
                    ) -> itertools.product:
    return itertools.product(alphabet, repeat=len(times))
