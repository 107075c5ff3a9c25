"""Timed Büchi automata: data model, text format, symbolic successors.

Guards are conjunctions of atomic constraints ``x ~ n`` against single
clocks (no clock differences).  All constants are scaled integers below
``MAX_SCALED``; the parser owns the decimal-to-integer scaling.

The automaton numbers its own clocks: ``clocks[k]`` is DBM index ``k + 1``
in every zone built for it, and the engines and the nonemptiness analysis
append their auxiliary clocks after index ``n``.  Each transition is
compiled once into an :class:`Edge` in that numbering, and :func:`post`
takes each edge as a :class:`Step`, trimmed once per automaton by its
inactive clocks.  :meth:`TBA.validate` is the one check of the names that
edges use: the parser reads each edge line once and computes a column only
for a name it reports.  The I/O product renames its base's compiled edges,
sharing their guard and resets tuples, so it checks and compiles no edge
again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Sequence

from .dbm import (DBM, MAX_SCALED, ScaleError, _scale_digits, bound,
                  parse_scaled, reduce_union)

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
    constant: int  # scaled, in [0, MAX_SCALED): no bound aliases INF

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise TBAError(f"unknown relation {self.relation!r}")
        if self.constant < 0:
            raise TBAError("guard constants must be non-negative")
        if self.constant >= MAX_SCALED:
            raise TBAError(f"guard constant {self.constant} is too large: "
                           f"scaled values must stay below 2**50")


class Transition(NamedTuple):
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


class Step(NamedTuple):
    """An edge as :func:`post` takes it: its guard, the resets of the
    clocks active at its target, and the clocks that die on it, active at
    its source and inactive at its target (DBM indices, ascending)."""

    dst: str
    guard: tuple[tuple[int, int, int], ...]
    resets: tuple[int, ...]
    dead: tuple[int, ...]


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
    memo: dict[str, Any] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        errs, _ = self.validate()
        if errs:
            raise TBAError("; ".join(errs))
        self._compile()

    def _compile(self) -> None:
        index = {c: i for i, c in enumerate(self.clocks, start=1)}
        compiled: list[Edge] = []
        for src, dst, _, resets, atoms in self.transitions:
            guard = []
            for g in atoms:
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
            compiled.append(Edge(src, dst, tuple(guard), tuple(
                sorted([index[c] for c in resets])) if resets else ()))
        self.__dict__["compiled"] = tuple(compiled)

    def validate(self) -> tuple[list[str], list[tuple[int, str, str]]]:
        """Every problem, as a message; and each name that an edge uses and
        no declaration lists, as ``(edge index, role in _ROLES, name)``."""
        errs: list[str] = []
        if not self.locations:
            errs.append("automaton has no locations")
        if not self.initial:
            errs.append("automaton has no initial location")
        errs.extend(f"initial location {q!r} undeclared"
                    for q in sorted(self.initial - self.locations))
        errs.extend(f"accepting location {q!r} undeclared"
                    for q in sorted(self.accepting - self.locations))
        locations, alphabet, clockset = (self.locations, self.alphabet,
                                         set(self.clocks))
        names: list[tuple[int, str, str]] = []
        for k, (src, dst, sym, resets, guard) in enumerate(self.transitions):
            # a well-formed edge costs membership tests only
            if (src in locations and dst in locations and sym in alphabet
                    and resets <= clockset):
                for g in guard:
                    if g.clock not in clockset:
                        break
                else:
                    continue
            bad = [(role, name) for role, name in (
                ("src", src), ("dst", dst), ("label", sym),
                *(("reset", c) for c in resets - clockset),
                *(("guard", g.clock) for g in guard))
                if name not in getattr(self, _ROLES[role][0])]
            errs += [f"edge {src}->{dst} on {sym}: {_ROLES[r][1].format(n)}"
                     for r, n in bad]
            names += [(k, r, n) for r, n in bad]
        if self.inputs or self.outputs:
            errs += [f"{r} {a!r} not in alphabet" for r, syms in (
                ("input", self.inputs), ("output", self.outputs))
                for a in sorted(syms - alphabet)]
            if self.inputs & self.outputs:
                errs.append("inputs and outputs overlap")
            if not alphabet <= self.inputs | self.outputs:
                errs.append("inputs/outputs do not cover the alphabet")
        return errs, names

    def __deepcopy__(self, memo: dict) -> TBA:
        # immutable: a copied engine shares its automaton and the memo
        return self

    @property
    def has_io_partition(self) -> bool:
        return bool(self.inputs or self.outputs)

    def steps(self, src: str, label: str) -> Sequence[Step]:
        """The steps of the ``label``-edges from ``src``, in edge order."""
        return self._steps.get((src, label), ())

    @cached_property
    def _edges(self) -> dict[tuple[str, str], list[Edge]]:
        by_key: dict[tuple[str, str], list[Edge]] = {}
        for t, e in zip(self.transitions, self.compiled):
            by_key.setdefault((t.src, t.label), []).append(e)
        return by_key

    @cached_property
    def _steps(self) -> dict[tuple[str, str], tuple[Step, ...]]:
        # from the one active-clock fixpoint: an edge into a location with
        # inactive clocks drops their resets and lists those that die
        inactive = self.inactive_clocks
        clocks = range(1, len(self.clocks) + 1)
        dying: dict[tuple[str, str], tuple[int, ...]] = {}
        table = {}
        for key, edges in self._edges.items():
            steps = []
            for src, dst, guard, resets in edges:
                dead = ()
                gone = inactive.get(dst)
                if gone:
                    if resets:
                        resets = tuple(i for i in resets if not gone >> i & 1)
                    dead = dying.get((src, dst))
                    if dead is None:
                        mask = gone & ~inactive.get(src, 0)
                        dead = dying[src, dst] = tuple(
                            i for i in clocks if mask >> i & 1)
                steps.append(Step(dst, guard, resets, dead))
            table[key] = tuple(steps)
        return table

    @cached_property
    def io_product(self) -> TBA:
        """:func:`io_alternation_product` of this automaton, built on first
        use, so every tester on this automaton object shares it and its
        analysis.  Do not mutate."""
        return io_alternation_product(self)

    @property
    def reachable(self) -> TBA:
        """The part that runs enter from the initial locations through the
        edges, guards ignored: those locations, the edges from them and the
        accepting ones among them; ``self`` if that is all.  Do not mutate."""
        return self._reachable or self

    @cached_property
    def _reachable(self) -> TBA | None:
        # None for self, which cached on itself would be a cycle for the GC
        succ: dict[str, set[str]] = {}
        for e in self.compiled:
            succ.setdefault(e.src, set()).add(e.dst)
        seen, work = set(self.initial), list(self.initial)
        while work:
            new = succ.get(work.pop(), set()) - seen
            seen |= new
            work += new
        if len(seen) == len(self.locations):
            return None
        kept = [k for k, e in enumerate(self.compiled) if e.src in seen]
        return _assemble(**{f: getattr(self, f) for f in (
            "alphabet", "initial", "clocks", "inputs", "outputs")},
            locations=frozenset(seen), accepting=self.accepting & seen,
            transitions=tuple(self.transitions[k] for k in kept),
            compiled=tuple(self.compiled[k] for k in kept))

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
         window: tuple[int, int, int]) -> list[SymbolicState]:
    """Successors of a reach set on one ``a`` event, exact modulo the
    clocks inactive at each successor's location: time elapses (``up``),
    the ``window`` ``(x, low, high)`` that holds at the event instant, the
    encoded bounds ``0 - x_x <= low`` and ``x_x - 0 <= high`` on the one
    clock ``x``, is met (:meth:`DBM.elapse`), then each ``a``-edge's
    :class:`Step` applies, its guard and its live resets.  A state whose
    location has no ``a``-edge costs no zone work; one that has copies its
    matrix once for the elapse and the window, and once more per edge
    whose guard tightens the zone or that resets a clock active at its
    target.  On that copy the clocks that die on the edge are freed; an
    edge that makes no copy, such as an unguarded loop at a sink where
    every clock is inactive, yields the elapsed zone itself, dead clocks
    and all.  Empty successors are dropped; the rest are returned
    unpruned, in state and edge order."""
    if a not in automaton.alphabet:
        raise TBAError(f"symbol {a!r} not in alphabet")
    x, low, high = window
    out: list[SymbolicState] = []
    for s in states:
        steps = automaton.steps(s.location, a)
        if not steps:
            continue
        z = s.zone.elapse(x, low, high)
        if z.is_empty():
            continue
        for dst, guard, resets, dead in steps:
            g = z.and_constraints(guard, resets, dead)
            if not g.is_empty():
                out.append(SymbolicState(dst, g))
    return out


def prune_subsumed(states: Iterable[SymbolicState], inactive: dict[str, int]
                   ) -> list[SymbolicState]:
    """Drop the states whose zone, with the location's inactive clocks
    (``inactive``, as from :attr:`TBA.inactive_clocks`) left out, is
    included in a sibling's at the same location; every zone is nonempty,
    as :func:`post` leaves it.  The kept states' zones are returned as
    given.  An empty map prunes on whole zones.  This changes none of the
    engines' answers: :mod:`delaymon.monitor` says why (Daws & Yovine,
    RTSS 1996)."""
    by_loc: dict[str, list[DBM]] = {}
    for s in states:
        by_loc.setdefault(s.location, []).append(s.zone)
    return [SymbolicState(loc, z) for loc, zones in by_loc.items()
            for z in reduce_union(zones, inactive.get(loc, 0))]


# -- IO alternation product --------------------------------------------------

INPUT_PHASE = "?i"
OUTPUT_PHASE = "?o"


def _assemble(**fields: Any) -> TBA:
    """The automaton of these fields, neither validated nor compiled: the
    parser does both, and the product and the reachable part reuse edges."""
    automaton = object.__new__(TBA)
    automaton.__dict__.update(fields, memo={})
    return automaton


def io_alternation_product(automaton: TBA) -> TBA:
    """Restrict the language to strictly IO-alternating words.

    The result's locations are ``q{phase}`` pairs; words must start with an
    input and alternate input/output thereafter.
    """
    if not automaton.has_io_partition:
        raise TBAError("io_alternation_product requires an input/output partition")
    trans: list[Transition] = []
    edges: list[Edge] = []
    for t, e in zip(automaton.transitions, automaton.compiled):
        src, dst = ((t.src + INPUT_PHASE, t.dst + OUTPUT_PHASE)
                    if t.label in automaton.inputs
                    else (t.src + OUTPUT_PHASE, t.dst + INPUT_PHASE))
        trans.append(Transition(src, dst, t.label, t.resets, t.guard))
        edges.append(Edge(src, dst, e.guard, e.resets))
    ph = (INPUT_PHASE, OUTPUT_PHASE)
    return _assemble(
        alphabet=automaton.alphabet, clocks=automaton.clocks,
        inputs=automaton.inputs, outputs=automaton.outputs,
        locations=frozenset({q + p for q in automaton.locations for p in ph}),
        initial=frozenset(q + INPUT_PHASE for q in automaton.initial),
        accepting=frozenset({q + p for q in automaton.accepting for p in ph}),
        transitions=tuple(trans), compiled=tuple(edges))


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
    Raises :class:`TBAParseError` on the first syntax error, then on the
    names that edges use and no declaration lists: at the first one's line
    and column, with every other one's in the message.  Raises
    :class:`TBAError` listing all other semantic errors."""
    _scale_digits(scale)
    lists: dict[str, list[str]] = {
        k: [] for k in (*_LISTS, "locations", *_FLAGS)}
    # per edge: its line number, its line, its transition and its places
    uses: list[tuple[int, str, Transition, list[Any]]] = []
    seen: dict[Any, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        kw = words[0]
        if kw == "edge":
            uses.append((lineno, line,
                         *_parse_edge(line, scale, lineno, seen)))
        elif kw in _LISTS:
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
        else:
            raise TBAParseError(f"unknown declaration {kw!r}", lineno,
                                _column(line, 0))
    automaton = _assemble(clocks=tuple(dict.fromkeys(lists.pop("clocks"))),
                          transitions=tuple(u[2] for u in uses),
                          **{k: frozenset(v) for k, v in lists.items()})
    errs, names = automaton.validate()
    if names:
        (lineno, column, message), *rest = sorted(
            (lineno, _edge_column(line, k, offset),
             _ROLES[role][1].format(name))
            for i, (lineno, line, t, places) in enumerate(uses)
            for k, offset, name, role in [
                (-1, 0, t.src, "src"), (0, 0, t.dst, "dst"),
                (2, 0, t.label, "label"), *places]
            if (i, role, name) in names)
        raise TBAParseError("; ".join([message, *(
            f"line {n}, column {c}: {m}" for n, c, m in rest)]),
            lineno, column)
    if errs:
        raise TBAError("; ".join(errs))
    automaton._compile()
    return automaton


def _parse_edge(line: str, scale: int, lineno: int, seen: dict[Any, Any]
                ) -> tuple[Transition, list[tuple[int, int, str, str]]]:
    """An ``edge SRC -> DST on SYMBOL`` head, then at most one ``when``
    and one ``reset`` clause, in either order.  Returns the transition and
    each name its clauses use: where it is, as the word after the arrow and
    the offset that :func:`_edge_column` takes, then the name and its role
    in :data:`_ROLES`.  ``seen`` keeps each run of clause words and each
    guard constant that this parse has read, so each is read once."""
    head, arrow, rest = line.partition("->")
    if not arrow:
        raise TBAParseError("edge needs 'src -> dst'", lineno)
    words = rest.split()
    if len(words) < 3 or words[1] != "on":
        raise TBAParseError("edge needs 'on <symbol>'", lineno)
    src = head.split()
    if len(src) != 2:
        raise TBAParseError("malformed edge", lineno)
    tail = tuple(words[3:])
    found = seen.get(tail)
    if found:
        return Transition(src[1], words[0], words[2], *found[0]), found[1]
    # each clause runs from its keyword to the next one
    starts = [k for k in range(3, len(words)) if words[k] in ("when", "reset")]
    if len(words) > 3 and starts[:1] != [3]:
        raise TBAParseError(f"unexpected edge clause {words[3]!r}", lineno,
                            _edge_column(line, 3))
    clauses: dict[str, tuple[int, list[str]]] = {}
    for k, end in zip(starts, [*starts[1:], len(words)]):
        if words[k] in clauses:
            raise TBAParseError(f"duplicate edge clause {words[k]!r}",
                                lineno, _edge_column(line, k))
        clauses[words[k]] = (k, words[k + 1:end])
    places: list[tuple[int, int, str, str]] = []
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
            if num not in seen:
                try:
                    seen[num] = parse_scaled(num, scale, "guard constant")
                except ScaleError as e:
                    raise TBAParseError(str(e), lineno,
                                        _edge_column(line, k)) from None
            guard.append(AtomicConstraint(clock, relation, seen[num]))
            places.append((k + 1, start + m.start(1), clock, "guard"))
            start += len(part) + 2
    resets: list[str] = []
    if "reset" in clauses:
        k, resets = clauses["reset"]
        if not resets:
            raise TBAParseError("reset needs a clock", lineno,
                                _edge_column(line, k))
        places += [(i, 0, c, "reset") for i, c in enumerate(resets, k + 1)]
    seen[tail] = (frozenset(resets), tuple(guard)), places
    return Transition(src[1], words[0], words[2], *seen[tail][0]), places
