"""Timed Büchi automata: data model, text format, symbolic successors.

Guards are conjunctions of atomic constraints ``x ~ n`` against single
clocks (no clock differences).  All constants are stored as scaled
integers; the parser owns the decimal-to-integer scaling.

The automaton numbers its own clocks: ``clocks[k]`` is DBM index ``k + 1``
in every zone built for it, and the engines and the nonemptiness analysis
append their auxiliary clocks after index ``n``.  Each transition is
compiled once, when the automaton is built, into an :class:`Edge` whose
guard and resets are already in that numbering.

The text parser reads each edge line once, noting where each name it read
stands, and computes a column only for a message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Sequence

from .dbm import (DBM, ScaleError, _scale_digits, bound, parse_scaled,
                  reduce_union)

RELATIONS = ("<", "<=", "=", ">=", ">")


class TBAError(Exception):
    """Problem with an automaton definition."""


class TBAParseError(TBAError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class AtomicConstraint:
    """One conjunct ``clock ~ constant`` of a transition guard."""

    clock: str
    relation: str
    constant: int  # scaled, non-negative

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise TBAError(f"unknown relation {self.relation!r}")
        if self.constant < 0:
            raise TBAError("guard constants must be non-negative")


@dataclass(frozen=True, slots=True)
class Transition:
    src: str
    dst: str
    label: str
    resets: frozenset[str] = frozenset()
    guard: tuple[AtomicConstraint, ...] = ()


class Edge(NamedTuple):
    """A transition compiled against the automaton's clock numbering."""

    src: str
    dst: str
    guard: tuple[tuple[int, int, int], ...]  # encoded DBM constraints
    resets: tuple[int, ...]  # DBM indices


@dataclass(frozen=True)
class TBA:
    """A timed Büchi automaton (Q, Q0, Σ, C, Δ, F).

    ``inputs``/``outputs`` optionally partition the alphabet for testing.
    ``compiled`` holds one :class:`Edge` per transition, in transition order.
    An edge's guard holds the tightest bound on each difference it
    constrains, in ``(i, j)`` order, so two guards that state the same
    bounds (``x=5`` and ``x>=5 && x<=5``) compile to the same edge.
    ``memo`` keeps what the engines derive from this automaton object alone
    (its nonempty-language states, see :mod:`delaymon.monitor`): the first
    engine built on it computes each entry, and every later one reads it.
    An entry is never mutated, and ``memo`` is not part of the value.
    """

    alphabet: frozenset[str]
    locations: frozenset[str]
    initial: frozenset[str]
    clocks: tuple[str, ...]
    transitions: tuple[Transition, ...]
    accepting: frozenset[str]
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    compiled: tuple[Edge, ...] = field(init=False, compare=False, repr=False)
    _edges: dict[tuple[str, str], list[Edge]] = field(
        init=False, compare=False, repr=False)
    memo: dict[str, Any] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        errors = self.validate()
        if errors:
            raise TBAError("; ".join(errors))
        index = {c: i for i, c in enumerate(self.clocks, start=1)}
        compiled: list[Edge] = []
        by_key: dict[tuple[str, str], list[Edge]] = {}
        for t in self.transitions:
            guard = []
            for g in t.guard:
                i, c = index[g.clock], g.constant
                if g.relation in ("<", "<=", "="):
                    guard.append((i, 0, bound(c, strict=g.relation == "<")))
                if g.relation in (">", ">=", "="):
                    guard.append((0, i, bound(-c, strict=g.relation == ">")))
            if len(guard) > 1:
                # in (i, j) order, the tightest bound of each pair only
                guard.sort()
                guard = [g for k, g in enumerate(guard)
                         if not k or g[:2] != guard[k - 1][:2]]
            e = Edge(t.src, t.dst, tuple(guard),
                     tuple(sorted(index[c] for c in t.resets)))
            compiled.append(e)
            by_key.setdefault((t.src, t.label), []).append(e)
        object.__setattr__(self, "compiled", tuple(compiled))
        object.__setattr__(self, "_edges", by_key)

    def validate(self) -> list[str]:
        errs: list[str] = []
        if not self.locations:
            errs.append("automaton has no locations")
        if not self.initial:
            errs.append("automaton has no initial location")
        errs.extend(
            f"initial location {q!r} undeclared"
            for q in sorted(self.initial - self.locations)
        )
        errs.extend(
            f"accepting location {q!r} undeclared"
            for q in sorted(self.accepting - self.locations)
        )
        locations, alphabet, clockset = (self.locations, self.alphabet,
                                         set(self.clocks))
        for t in self.transitions:
            # a well-formed edge costs membership tests only
            if (t.src in locations and t.dst in locations
                    and t.label in alphabet and t.resets <= clockset):
                for g in t.guard:
                    if g.clock not in clockset:
                        break
                else:
                    continue
            bad: list[str] = []
            if t.src not in locations:
                bad.append(f"unknown source location {t.src!r}")
            if t.dst not in locations:
                bad.append(f"unknown target location {t.dst!r}")
            if t.label not in alphabet:
                bad.append(f"symbol {t.label!r} not in alphabet")
            for c in t.resets - clockset:
                bad.append(f"reset of unknown clock {c!r}")
            for g in t.guard:
                if g.clock not in clockset:
                    bad.append(f"guard on unknown clock {g.clock!r}")
            where = f"edge {t.src}->{t.dst} on {t.label}"
            errs.extend(f"{where}: {b}" for b in bad)
        if self.inputs or self.outputs:
            if self.inputs & self.outputs:
                errs.append("inputs and outputs overlap")
            if self.inputs | self.outputs != self.alphabet:
                errs.append("inputs/outputs do not cover the alphabet")
        return errs

    def __deepcopy__(self, memo: dict) -> TBA:
        # immutable: a copied engine shares its automaton and the memo
        return self

    @property
    def has_io_partition(self) -> bool:
        return bool(self.inputs or self.outputs)

    def edges(self, src: str, label: str) -> Sequence[Edge]:
        return self._edges.get((src, label), ())

    @cached_property
    def io_product(self) -> TBA:
        """:func:`io_alternation_product` of this automaton, built on first
        use, so every tester on this automaton object shares it and its
        analysis.  Do not mutate."""
        return io_alternation_product(self)

    @cached_property
    def inactive_clocks(self) -> dict[str, int]:
        """Per location, the clocks that every path resets before it reads
        them, as a bitmask with bit ``i`` for the clock at DBM index ``i``
        (the automaton's own numbering, ``1..n``).  Locations with no
        inactive clock are left out.  Computed on first use; do not mutate.

        This is the complement of the least fixpoint ``active(q) =
        ⋃_{q→q'} guard_clocks(e) ∪ (active(q') − resets(e))`` (Daws &
        Yovine, "Reducing the number of clock variables of timed automata",
        RTSS 1996), solved by a worklist over predecessor edges."""
        every = sum(1 << i for i in range(1, len(self.clocks) + 1))
        active = dict.fromkeys(self.locations, 0)
        preds: dict[str, list[tuple[str, int]]] = {q: [] for q in active}
        for e in self.compiled:
            for i, j, _ in e.guard:
                active[e.src] |= 1 << (i or j)
            kept = every
            for i in e.resets:
                kept &= ~(1 << i)
            preds[e.dst].append((e.src, kept))
        work = [q for q, a in active.items() if a]
        while work:
            q = work.pop()
            a = active[q]
            for p, kept in preds[q]:
                grown = active[p] | (a & kept)
                if grown != active[p]:
                    active[p] = grown
                    work.append(p)
        return {q: every & ~a for q, a in active.items() if a != every}


class SymbolicState(NamedTuple):
    location: str
    zone: DBM


# -- symbolic successor operators -------------------------------------------


def post(states: Iterable[SymbolicState], a: str, automaton: TBA,
         window: Sequence[tuple[int, int, int]]) -> list[SymbolicState]:
    """Successors of a reach set on one ``a`` event: time elapses (``up``),
    the constraints ``window`` that hold at the event instant are met, then
    each ``a``-edge's guard and reset apply.  A state whose location has no
    ``a``-edge costs no zone work; one that has copies its matrix once for
    the elapse and the window, and once more per edge whose guard tightens
    the zone or that resets a clock.  Empty successors are dropped; the
    rest are returned unpruned, in state and edge order."""
    if a not in automaton.alphabet:
        raise TBAError(f"symbol {a!r} not in alphabet")
    out: list[SymbolicState] = []
    for s in states:
        edges = automaton.edges(s.location, a)
        if not edges:
            continue
        z = s.zone.elapse(window)
        if z.is_empty():
            continue
        for e in edges:
            g = z.and_constraints(e.guard, e.resets)
            if not g.is_empty():
                out.append(SymbolicState(e.dst, g))
    return out


def prune_subsumed(states: Iterable[SymbolicState], inactive: dict[str, int]
                   ) -> list[SymbolicState]:
    """Drop empty states and states whose zone, with the location's inactive
    clocks (``inactive``, as from :attr:`TBA.inactive_clocks`) left out, is
    included in a sibling's at the same location.  The kept states' zones
    are returned as given.  An empty map prunes on whole zones.

    This changes none of the engines' answers (Daws & Yovine, RTSS 1996):

    - an inactive clock is reset on every path before it is read, so two
      states that agree on the other clocks have successors that agree too;
    - only automaton clocks are ever left out, and ``up`` and the engines'
      channel and cutoff constraints touch none of them;
    - the nonempty-language set at a location is a cylinder in its
      inactive clocks, so the verdict and the latencies read the same
      projection."""
    by_loc: dict[str, list[DBM]] = {}
    for s in states:
        by_loc.setdefault(s.location, []).append(s.zone)
    return [SymbolicState(loc, z) for loc, zones in by_loc.items()
            for z in reduce_union(zones, inactive.get(loc, 0))]


# -- IO alternation product --------------------------------------------------

INPUT_PHASE = "?i"
OUTPUT_PHASE = "?o"


def io_alternation_product(automaton: TBA) -> TBA:
    """Restrict the language to strictly IO-alternating words.

    The result's locations are ``q{phase}`` pairs; words must start with an
    input and alternate input/output thereafter.
    """
    if not automaton.has_io_partition:
        raise TBAError("io_alternation_product requires an input/output partition")
    locs: set[str] = set()
    trans: list[Transition] = []
    for q in automaton.locations:
        locs.add(q + INPUT_PHASE)
        locs.add(q + OUTPUT_PHASE)
    for t in automaton.transitions:
        if t.label in automaton.inputs:
            trans.append(Transition(t.src + INPUT_PHASE, t.dst + OUTPUT_PHASE,
                                    t.label, t.resets, t.guard))
        else:
            trans.append(Transition(t.src + OUTPUT_PHASE, t.dst + INPUT_PHASE,
                                    t.label, t.resets, t.guard))
    accepting = {q + p for q in automaton.accepting
                 for p in (INPUT_PHASE, OUTPUT_PHASE)}
    return TBA(
        alphabet=automaton.alphabet,
        locations=frozenset(locs),
        initial=frozenset(q + INPUT_PHASE for q in automaton.initial),
        clocks=automaton.clocks,
        transitions=tuple(trans),
        accepting=frozenset(accepting),
        inputs=automaton.inputs,
        outputs=automaton.outputs,
    )


# -- text format -------------------------------------------------------------

# a guard atom: its clock, its relation (the first run of ``<``, ``>`` and
# ``=``) and its constant, each with the spaces around it left out
_ATOM = re.compile(r" *(.*?) *([<>=]+) *(.*?) *")

# declarations that list names, each into the TBA field of its name
_LISTS = ("alphabet", "inputs", "outputs", "clocks")
_FLAGS = ("initial", "accepting")

# By the role of a name in an edge: the declaration list that must hold
# it, and the message if none does.
_ROLES = {
    "src": ("locations", "unknown source location {!r}"),
    "dst": ("locations", "unknown target location {!r}"),
    "label": ("alphabet", "symbol {!r} not in alphabet"),
    "guard": ("clocks", "guard on unknown clock {!r}"),
    "reset": ("clocks", "reset of unknown clock {!r}"),
}


def _column(line: str, k: int, start: int = 0) -> int:
    """The 1-based column of word ``k`` of ``line`` from offset ``start``."""
    starts = [w.start() for w in re.finditer(r"\S+", line[start:])]
    return start + starts[k] + 1


def _edge_column(line: str, k: int, offset: int = 0) -> int:
    """The column of an edge line's character ``offset`` characters into
    its words after the arrow from word ``k`` on, joined by single spaces;
    word -1 is the source, the last word before the arrow."""
    head, _, rest = line.partition("->")
    if k < 0:
        return _column(head, -1)
    text = " ".join(rest.split()[k:])
    return (_column(line, k + text.count(" ", 0, offset), len(head) + 2)
            + offset - text.rfind(" ", 0, offset) - 1)


def parse_tba(text: str, scale: int = 10) -> TBA:
    """Parse the line-oriented automaton format ("Automaton format" in
    README.md); ``scale`` must be a power of ten (a ValueError otherwise).
    Each edge line is read once, and a column is computed only for a
    message.  Raises :class:`TBAParseError` on the first syntax error,
    then on the names that edges use and no declaration lists: at the
    first one's line and column, with every other one's in the message.
    Raises :class:`TBAError` listing all other semantic errors."""
    _scale_digits(scale)
    lists: dict[str, list[str]] = {
        k: [] for k in (*_LISTS, "locations", *_FLAGS)}
    transitions: list[Transition] = []
    uses: list[tuple[int, str, list[tuple[int, int, str, str]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        kw = words[0]
        if kw in _LISTS:
            lists[kw] += words[1:]
        elif kw == "location" and len(words) > 1:
            lists["locations"].append(words[1])
            for k, flag in enumerate(words[2:], start=2):
                if flag not in _FLAGS:
                    raise TBAParseError(f"unknown location flag {flag!r}",
                                        lineno, _column(line, k))
                lists[flag].append(words[1])
        elif kw == "location":
            raise TBAParseError("location needs a name", lineno)
        elif kw == "edge":
            t, places = _parse_edge(line, scale, lineno)
            transitions.append(t)
            uses.append((lineno, line, places))
        else:
            raise TBAParseError(f"unknown declaration {kw!r}", lineno,
                                _column(line, 0))
    declared = {role: set(lists[need]) for role, (need, _) in _ROLES.items()}
    unknown = sorted(
        (lineno, _edge_column(line, k, offset), _ROLES[role][1].format(name))
        for lineno, line, places in uses
        for k, offset, name, role in places if name not in declared[role])
    if unknown:
        (lineno, column, message), *rest = unknown
        raise TBAParseError("; ".join([message, *(
            f"line {n}, column {c}: {m}" for n, c, m in rest)]),
            lineno, column)
    return TBA(clocks=tuple(dict.fromkeys(lists.pop("clocks"))),
               transitions=tuple(transitions),
               **{k: frozenset(v) for k, v in lists.items()})


def _parse_edge(line: str, scale: int, lineno: int
                ) -> tuple[Transition, list[tuple[int, int, str, str]]]:
    """An ``edge SRC -> DST on SYMBOL`` head, then at most one ``when``
    and one ``reset`` clause, in either order.  Returns the transition and
    each name it uses: where it is, as the word after the arrow (-1 for
    the source) and the offset that :func:`_edge_column` takes, then the
    name and its role in :data:`_ROLES`."""
    head, arrow, rest = line.partition("->")
    if not arrow:
        raise TBAParseError("edge needs 'src -> dst'", lineno)
    words = rest.split()
    if len(words) < 3 or words[1] != "on":
        raise TBAParseError("edge needs 'on <symbol>'", lineno)
    src = head.split()[1:]
    if len(src) != 1:
        raise TBAParseError("malformed edge", lineno)
    clauses: dict[str, tuple[int, list[str]]] = {}
    args = None
    for k, w in enumerate(words[3:], start=3):
        if w in ("when", "reset"):
            if w in clauses:
                raise TBAParseError(f"duplicate edge clause {w!r}", lineno,
                                    _edge_column(line, k))
            clauses[w] = (k, args := [])
        elif args is None:
            raise TBAParseError(f"unexpected edge clause {w!r}", lineno,
                                _edge_column(line, k))
        else:
            args.append(w)
    places = [(-1, 0, src[0], "src"), (0, 0, words[0], "dst"),
              (2, 0, words[2], "label")]
    guard: list[AtomicConstraint] = []
    if "when" in clauses:
        k, args = clauses["when"]
        start = 0
        for part in " ".join(args).split("&&"):
            m = _ATOM.fullmatch(part)
            if not (m and m[1] and m[3]):
                raise TBAParseError(f"malformed guard atom {part.strip()!r}",
                                    lineno, _edge_column(line, k))
            clock, relation, num = m.groups()
            if relation not in RELATIONS:
                raise TBAParseError(
                    f"unknown relation {relation!r}", lineno,
                    _edge_column(line, k + 1, start + m.start(2)))
            try:
                constant = parse_scaled(num, scale, "guard constant")
            except ScaleError as e:
                raise TBAParseError(str(e), lineno,
                                    _edge_column(line, k)) from None
            guard.append(AtomicConstraint(clock, relation, constant))
            places.append((k + 1, start + m.start(1), clock, "guard"))
            start += len(part) + 2
    resets: list[str] = []
    if "reset" in clauses:
        k, resets = clauses["reset"]
        if not resets:
            raise TBAParseError("reset needs a clock", lineno,
                                _edge_column(line, k))
        for i, c in enumerate(resets, start=k + 1):
            places.append((i, 0, c, "reset"))
    return (Transition(src[0], words[0], words[2], frozenset(resets),
                       tuple(guard)), places)
