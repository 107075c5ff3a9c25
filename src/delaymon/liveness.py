"""Language-nonemptiness analysis: from which states does a time-divergent
accepting run exist?

The computation is the nested Büchi fixpoint over federations (per-location
zone lists): each round takes the backward reach of the accepting "core"
states with at least a lap length ``K`` of time elapsing (tracked with an
auxiliary divergence clock ``z``), and the next core is its accepting part
at zero elapsed time.  The rounds shrink the core to the states that admit
infinitely many productive revisits, and the last round's backward reach,
with ``z`` projected away, is every state that can reach that core.
Backward preimages are exact — no extrapolation — which is what the
monitor's verdicts rely on.  The engines analyse only the part that runs
can enter, :attr:`~delaymon.automata.TBA.reachable`: it is closed under
edges, so its locations have the same nonempty states as in the whole.

All zones lie in one clock space, the automaton's clocks ``1..n`` and then
``z``, which the map projects away once, at the end.  A core zone leaves
``z`` free but ``>= 0`` (a cylinder in ``z``, so it compares as its
projection does): the refresh pins ``z`` to 0 and clears its row, which
keeps the zone canonical, as in :meth:`DBM.pre`.

A location whose zone list takes the universal zone (every clock,
the divergence clock included, at least 0) is *full*, and the backward
reach computes no more preimages into it.  That skips only work: every
zone of the analysis lies in the non-negative orthant (the targets bound
each clock below by 0 or more, resets pin to 0, and ``down`` relaxes a
lower bound only to ``>= 0``), so each skipped preimage is included in the
universal zone, and the loop would have built it and dropped it.  The
result, its key order, every zone and the count of insertions towards
:data:`MAX_INSERTIONS` are the same as without the skip.

One budget, :data:`MAX_INSERTIONS` zones inserted by all backward reaches
of one analysis, bounds it.  A round whose reach inserts nothing leaves an
empty core, on which the next round ends, so an analysis that inserts
``k`` zones runs at most ``k + 2`` rounds.  ``K`` starts at one scaled
unit and doubles each round up to the largest guard constant plus 1, so
rounds grow with the logarithm of the constants: a loop guarded by
``x<=c`` takes about ``log2 c`` rounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .automata import TBA, Edge, SymbolicState
from .dbm import (DBM, INF, LE_ZERO, bound, bound_value, included_in_union,
                  reduce_union)

MAX_INSERTIONS = 200_000


class LivenessError(RuntimeError):
    """The analysis inserted more than :data:`MAX_INSERTIONS` zones: the
    automaton's guard constants, in scaled units, may be too large for its
    exact analysis."""


@dataclass(frozen=True)
class NonEmptyMap:
    """Per-location federation of zones over the automaton clocks.

    ``constraints`` holds each zone's finite off-diagonal entries as
    ``(i, j, bound)`` tuples, less every ``(0, i, LE_ZERO)``, which says
    ``x_i >= 0``.  Every zone built for the automaton numbers its clocks
    ``1..n`` as these zones do, keeps them at least 0 and appends auxiliary
    clocks after them, so the tuples apply unchanged to a reach zone:
    tightening it by them meets it with the nonempty zone (a left-out
    entry never tightens it), and on a canonical reach zone this is the
    same as meeting its projection onto the automaton clocks (a canonical
    DBM's projection is its sub-matrix).

    ``full`` holds the *full* locations, whose zones include the universal
    zone: their entry holds ``()``, and a meet with it is the reach zone
    itself, with no copy."""

    zones: dict[str, tuple[DBM, ...]]
    constraints: dict[str, tuple[tuple[tuple[int, int, int], ...], ...]] = (
        field(init=False, repr=False, compare=False))
    full: frozenset[str] = field(init=False, repr=False, compare=False)

    def __deepcopy__(self, memo: dict) -> NonEmptyMap:
        # never mutated: a copied engine shares its automaton's map
        return self

    def __post_init__(self) -> None:
        constraints = {  # less each x_i >= 0, as (0, i, LE_ZERO)
            q: tuple(tuple((i, j, b) for i, j, b in z.constraints()
                           if i or b != LE_ZERO) for z in zs)
            for q, zs in self.zones.items()}
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "full", frozenset(
            q for q, cs in constraints.items() if () in cs))


def _backward_reach(by_dst: dict[str, list[Edge]], universal: DBM,
                    targets: dict[str, list[DBM]], inserted: int
                    ) -> tuple[dict[str, list[DBM]], int]:
    """The backward reach of ``targets`` through the edges ``by_dst`` (by
    target location), and ``inserted`` plus the zones it inserted."""
    full: set[str] = set()  # locations whose zones hold every valuation
    result: dict[str, list[DBM]] = {}
    queue: deque[tuple[str, DBM]] = deque(
        (q, z) for q, zs in targets.items() for z in zs)
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
            if p.m == universal.m:
                full.add(e.src)
            queue.append((e.src, p))
            inserted += 1
            if inserted > MAX_INSERTIONS:
                raise LivenessError(
                    "nonemptiness analysis exceeded the iteration budget "
                    f"of {MAX_INSERTIONS} zones; the automaton's constants "
                    "may be too large for exact analysis")
    return result, inserted


def nonempty_states(automaton: TBA) -> NonEmptyMap:
    """Compute the states admitting an accepting run.

    As the infinite-word semantics demands, the witness run must let time
    grow beyond every bound: a divergence clock ``z`` must reach ``K`` per
    lap (Tripakis, Yovine & Bouajjani, FMSD 2005).  The rounds are the
    nested Büchi fixpoint (Emerson & Lei, LICS 1986).  For every ``K >= 1``
    the step is monotone with the same greatest fixpoint, the states with
    a time-divergent accepting run (laps of at least ``K`` diverge, and a
    divergent run has accepting visits ``K`` apart).  So a round may take
    any such ``K``: starting from the universal zones, every core lies
    above the fixpoint, and a core lying within its refresh is a
    post-fixpoint, so it is the fixpoint.  That round's backward
    reach with ``z`` projected away (``z`` can be chosen large at the
    source) is exactly the states with a path of one or more edges into the
    core.  It holds every core state, which has a productive lap back into
    the core, and every state that reaches the core by delay alone: such a
    state shares the lap of the core state it delays into, so it is itself
    in the core.
    """
    zi = len(automaton.clocks) + 1  # the divergence clock, after the rest
    by_dst: dict[str, list[Edge]] = {}
    for e in automaton.compiled:
        by_dst.setdefault(e.dst, []).append(e)
    universal = DBM.universal(zi + 1)
    cap = 1 + max((abs(bound_value(b)) for e in automaton.compiled
                   for _, _, b in e.guard), default=0)
    k = 1  # the lap length, in raw scaled units: doubles up to ``cap``
    pin = [(zi, 0, LE_ZERO), (0, zi, LE_ZERO)]  # z = 0

    # greatest fixpoint: accepting states allowing one more productive lap
    accepting = sorted(automaton.accepting)  # no order from the hash seed
    core: dict[str, list[DBM]] = {q: [universal] for q in accepting}
    inserted = 0
    while True:
        lap = [(0, zi, bound(-k))]  # z >= k
        back, inserted = _backward_reach(by_dst, universal, {
            q: [z.and_constraints(lap) for z in zs]
            for q, zs in core.items()}, inserted)
        refreshed: dict[str, list[DBM]] = {}
        for q in accepting:
            zs = []
            for z in back.get(q, ()):
                pinned = z.and_constraints(pin)
                if not pinned.is_empty():
                    # free z again: its row goes, its column is column 0
                    zs.append(DBM._canonical(
                        zi + 1, pinned.m[:zi] + [[INF] * zi + [LE_ZERO]]))
            zs = reduce_union(zs)
            if zs:
                refreshed[q] = zs
        if all(included_in_union(z, refreshed.get(q, ()))
               for q, zs in core.items() for z in zs):
            break
        core = refreshed
        k = min(2 * k, cap)

    # every state with a path into the core, divergence clock projected away
    return NonEmptyMap(zones={
        q: tuple(reduce_union(z.restrict(range(1, zi)) for z in zs))
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
