"""Language-nonemptiness analysis: from which states does a time-divergent
accepting run exist?

The computation is the nested Büchi fixpoint over federations (per-location
zone lists): each round takes the backward reach of the accepting "core"
states with at least one time unit elapsing (tracked with an auxiliary
clock), and the next core is its accepting part at zero elapsed time.  The
rounds shrink the core to the states that admit infinitely many productive
revisits, and the last round's backward reach, with the auxiliary clock
projected away, is every state that can reach that core.  Backward
preimages are exact — no extrapolation — which is what the monitor's
verdicts rely on.

A location whose zone list takes the universal zone (every clock,
the divergence clock included, at least 0) is *full*, and the backward
reach computes no more preimages into it.  That skips only work: every
zone of the analysis lies in the non-negative orthant (the targets bound
each clock below by 0 or more, resets pin to 0, and ``down`` relaxes a
lower bound only to ``>= 0``), so each skipped preimage is included in the
universal zone, and the loop would have built it and dropped it.  The
result, its key order, every zone and the count of insertions towards
:data:`MAX_INSERTIONS` are the same as without the skip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .automata import TBA, Edge, SymbolicState
from .dbm import DBM, LE_ZERO, bound, included_in_union, reduce_union

# The analysis budget: zones inserted by one backward reach, and rounds of
# the recurrence fixpoint.
MAX_INSERTIONS = 200_000
MAX_ROUNDS = 1_000


class LivenessError(RuntimeError):
    """The analysis exceeded its iteration budget or did not stabilize."""


@dataclass(frozen=True)
class NonEmptyMap:
    """Per-location federation of zones over the automaton clocks.

    ``constraints`` holds each zone's finite off-diagonal entries as
    ``(i, j, bound)`` tuples.  Every zone built for the automaton numbers
    its clocks ``1..n`` as these zones do and appends auxiliary clocks
    after them, so the tuples apply unchanged to a reach zone: tightening
    it by them meets it with the nonempty zone, and on a canonical reach
    zone this is the same as meeting its projection onto the automaton
    clocks (a canonical DBM's projection is its sub-matrix)."""

    zones: dict[str, tuple[DBM, ...]]
    constraints: dict[str, tuple[tuple[tuple[int, int, int], ...], ...]] = (
        field(init=False, repr=False, compare=False))

    def __deepcopy__(self, memo: dict) -> NonEmptyMap:
        # never mutated: a copied engine shares its automaton's map
        return self

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", {
            q: tuple(tuple(z.constraints()) for z in zs)
            for q, zs in self.zones.items()})


def _backward_reach(automaton: TBA, targets: dict[str, list[DBM]]
                    ) -> dict[str, list[DBM]]:
    by_dst: dict[str, list[Edge]] = {}
    for e in automaton.compiled:
        by_dst.setdefault(e.dst, []).append(e)
    universal = DBM.universal(len(automaton.clocks) + 2)
    full: set[str] = set()  # locations whose zones hold every valuation
    result: dict[str, list[DBM]] = {}
    queue: deque[tuple[str, DBM]] = deque(
        (q, z) for q, zs in targets.items() for z in zs)
    inserted = 0
    while queue:
        loc, zone = queue.popleft()
        for e in by_dst.get(loc, ()):
            if e.src in full:
                continue
            p = zone.pre(e.guard, e.resets)
            if p.is_empty():
                continue
            have = result.setdefault(e.src, [])
            if included_in_union(p, have):
                continue
            have[:] = [z for z in have if not p.includes(z)]
            have.append(p)
            if p == universal:
                full.add(e.src)
            queue.append((e.src, p))
            inserted += 1
            if inserted > MAX_INSERTIONS:
                raise LivenessError(
                    "backward reachability exceeded the iteration budget; "
                    "the automaton's constants may be too large for exact "
                    "analysis")
    return result


def nonempty_states(automaton: TBA) -> NonEmptyMap:
    """Compute the states admitting an accepting run.

    As the infinite-word semantics demands, the witness run must let time
    grow beyond every bound: a divergence clock ``z`` must reach 1 per lap
    (Tripakis, Yovine & Bouajjani, FMSD 2005).  The rounds are the nested
    Büchi fixpoint (Emerson & Lei, LICS 1986).  The step is monotone and
    starts from the universal zones, so the core only shrinks, and the core
    lying within its refresh marks the fixpoint.  That round's backward
    reach with ``z`` projected away (``z`` can be chosen large at the
    source) is exactly the states with a path of one or more edges into the
    core.  It holds every core state, which has a productive lap back into
    the core, and every state that reaches the core by delay alone: such a
    state shares the lap of the core state it delays into, so it is itself
    in the core.
    """
    n_c = len(automaton.clocks)
    zi = n_c + 1  # the divergence clock, after the automaton's
    one = 1  # the divergence clock counts raw scaled units

    # greatest fixpoint: accepting states allowing one more productive lap
    core: dict[str, list[DBM]] = {
        q: [DBM.universal(1 + n_c)] for q in automaton.accepting}
    for _ in range(MAX_ROUNDS):
        targets = {
            q: [
                z.embed(1).and_constraints([(0, zi, bound(-one))])
                for z in zs
            ]
            for q, zs in core.items()
        }
        targets = {q: [z for z in zs if not z.is_empty()]
                   for q, zs in targets.items()}
        back = _backward_reach(automaton, targets)
        refreshed: dict[str, list[DBM]] = {}
        for q in automaton.accepting:
            zs = []
            for z in back.get(q, []):
                pinned = z.and_constraints(
                    [(zi, 0, LE_ZERO), (0, zi, LE_ZERO)])
                if pinned.is_empty():
                    continue
                zs.append(pinned.restrict(range(1, 1 + n_c)))
            zs = reduce_union(zs)
            if zs:
                refreshed[q] = zs
        if all(included_in_union(z, refreshed.get(q, ()))
               for q, zs in core.items() for z in zs):
            break
        core = refreshed
    else:
        raise LivenessError("recurrence fixpoint did not stabilize")

    # every state with a path into the core, divergence clock projected away
    return NonEmptyMap(zones={
        q: tuple(reduce_union(z.restrict(range(1, 1 + n_c)) for z in zs))
        for q, zs in back.items()})


def intersects_nonempty(states: Iterable[SymbolicState],
                        nonempty: NonEmptyMap) -> bool:
    """True iff some reach-set state overlaps the nonempty-language states.

    Stops at the first hit: ``states`` is consumed no further than the first
    state that overlaps, so a lazy input does no work past it."""
    live = nonempty.constraints
    for s in states:
        for cons in live.get(s.location, ()):
            if not s.zone.and_constraints(cons).is_empty():
                return True
    return False
