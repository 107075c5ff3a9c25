"""Explicit region-graph oracle for language nonemptiness.

Ground truth for the symbolic fixpoint: build the classic region graph of
the automaton extended with a divergence clock, mark edges that certify a
productive accepting visit (>= 1 time unit since the last one), and decide
membership by reachability to a strongly connected component containing
such an edge.  The graph is explored lazily, one queried root at a time,
and each extension is analysed on its own new nodes.  Works for small
integer constants only — that's the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from delaymon.automata import TBA

from helpers_automata import max_constant

# region encoding: per clock either None (above ceiling) or (int, rank);
# rank 0 = fractional part zero, ranks 1..m order the positive fractions
Region = tuple


@dataclass(frozen=True)
class OracleEdge:
    src: str
    dst: str
    guard: tuple[tuple[int, str, int], ...]  # (clock index, relation, const)
    resets: frozenset[int]
    good: bool


def _canonical(parts: list) -> Region:
    """Compress positive ranks to be contiguous starting at 1."""
    used = sorted({p[1] for p in parts if p is not None and p[1] > 0})
    remap = {r: i + 1 for i, r in enumerate(used)}
    out = []
    for p in parts:
        if p is None or p[1] == 0:
            out.append(p)
        else:
            out.append((p[0], remap[p[1]]))
    return tuple(out)


def region_of(values: list[int], ceilings: list[int], denom: int) -> Region:
    """Region of a concrete valuation given in 1/denom units."""
    parts = []
    fracs = []
    for v, c in zip(values, ceilings):
        k, f = divmod(v, denom)
        if k > c or (k == c and f > 0):
            parts.append(None)
            fracs.append(None)
        else:
            parts.append((k, f))
            fracs.append(f)
    ranks = sorted({f for f in fracs if f})
    out = []
    for p in parts:
        if p is None:
            out.append(None)
        elif p[1] == 0:
            out.append((p[0], 0))
        else:
            out.append((p[0], ranks.index(p[1]) + 1))
    return _canonical(out)


def delay_step(region: Region, ceilings: list[int]) -> Region | None:
    """Immediate time successor, or None from the all-unbounded region."""
    bounded = [i for i, p in enumerate(region) if p is not None]
    if not bounded:
        return None
    parts = list(region)
    zeros = [i for i in bounded if parts[i][1] == 0]
    if zeros:
        # zero-fraction clocks acquire the smallest positive fraction
        for i in bounded:
            if parts[i][1] > 0:
                parts[i] = (parts[i][0], parts[i][1] + 1)
        for i in zeros:
            parts[i] = (parts[i][0], 1)
        return _canonical(parts)
    top = max(parts[i][1] for i in bounded)
    for i in bounded:
        k, r = parts[i]
        if r == top:
            parts[i] = None if k + 1 > ceilings[i] else (k + 1, 0)
    return _canonical(parts)


def region_satisfies(region: Region, guard, ceilings) -> bool:
    for i, rel, c in guard:
        p = region[i]
        if p is None:
            ok = rel in (">", ">=")
        else:
            k, r = p
            if r == 0:
                lo = hi = k
                point = True
            else:
                lo, hi = k, k + 1
                point = False
            if rel == "<":
                ok = (lo < c) if point else (lo + 1 <= c)
            elif rel == "<=":
                ok = (lo <= c) if point else (lo + 1 <= c)
            elif rel == "=":
                ok = point and lo == c
            elif rel == ">=":
                ok = lo >= c
            else:  # >
                ok = (lo > c) if point else (lo >= c)
        if not ok:
            return False
    return True


def region_reset(region: Region, resets: Iterable[int]) -> Region:
    parts = list(region)
    for i in resets:
        parts[i] = (0, 0)
    return _canonical(parts)


def oracle_edges(automaton: TBA, z_index: int) -> list[OracleEdge]:
    """Edges of the automaton plus 'good' variants into accepting locations
    that demand one elapsed unit on the divergence clock and reset it."""
    cidx = {c: i for i, c in enumerate(automaton.clocks)}
    out: list[OracleEdge] = []
    for t in automaton.transitions:
        guard = tuple((cidx[g.clock], g.relation, g.constant)
                      for g in t.guard)
        resets = frozenset(cidx[c] for c in t.resets)
        out.append(OracleEdge(t.src, t.dst, guard, resets, good=False))
        if t.dst in automaton.accepting:
            out.append(OracleEdge(
                t.src, t.dst, guard + ((z_index, ">=", 1),),
                resets | {z_index}, good=True))
    return out


class RegionGraph:
    def __init__(self, automaton: TBA):
        self.automaton = automaton
        self.ceilings = [
            max(max_constant(automaton, c), 1) for c in automaton.clocks
        ] + [1]  # divergence clock
        self.z = len(automaton.clocks)
        self.edges = oracle_edges(automaton, self.z)
        self._by_src: dict[str, list[OracleEdge]] = {}
        for e in self.edges:
            self._by_src.setdefault(e.src, []).append(e)
        self._succ_cache: dict[tuple[str, Region], list] = {}
        self._reach_base: set[tuple[str, Region]] = set()
        self._good_nodes: set[tuple[str, Region]] = set()

    def successors(self, node: tuple[str, Region]):
        if node in self._succ_cache:
            return self._succ_cache[node]
        loc, region = node
        out = []
        d = delay_step(region, self.ceilings)
        if d is not None and d != region:
            out.append(((loc, d), False))
        for e in self._by_src.get(loc, ()):
            if region_satisfies(region, e.guard, self.ceilings):
                out.append(((e.dst, region_reset(region, e.resets)), e.good))
        self._succ_cache[node] = out
        return out

    def _explore(self, roots: list[tuple[str, Region]]) -> set:
        """Nodes reachable from ``roots`` that are not yet in the base.

        The base is forward-closed, so the search stops at its border."""
        base = self._reach_base
        seen = {r for r in roots if r not in base}
        stack = list(seen)
        while stack:
            n = stack.pop()
            for m, _ in self.successors(n):
                if m not in seen and m not in base:
                    seen.add(m)
                    stack.append(m)
        return seen

    def _compute_good(self, nodes: set) -> set:
        """Nodes of ``nodes`` lying on or reaching a cycle through a good
        edge.

        ``nodes`` is a fresh extension of the base: disjoint from
        ``_reach_base`` and closed forward up to it, so that every successor
        of a node in ``nodes`` lies in ``nodes`` or in ``_reach_base``.  The
        base is itself forward-closed, so no path leads from it back into
        ``nodes`` and no SCC spans both sets.  Tarjan therefore runs on
        ``nodes`` alone, and an edge into the base contributes only through
        ``_good_nodes``, which is already exact there."""
        index: dict = {}
        low: dict = {}
        on: set = set()
        order: list = []
        comp: dict = {}
        counter = itertools.count()

        def inner(n):
            return (m for m, _ in self.successors(n) if m in nodes)

        # iterative Tarjan
        for root in nodes:
            if root in index:
                continue
            work = [(root, inner(root))]
            index[root] = low[root] = next(counter)
            order.append(root)
            on.add(root)
            while work:
                n, it = work[-1]
                advanced = False
                for m in it:
                    if m not in index:
                        index[m] = low[m] = next(counter)
                        order.append(m)
                        on.add(m)
                        work.append((m, inner(m)))
                        advanced = True
                        break
                    if m in on:
                        low[n] = min(low[n], index[m])
                if advanced:
                    continue
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[n])
                if low[n] == index[n]:
                    cid = len(comp)
                    while True:
                        m = order.pop()
                        on.discard(m)
                        comp[m] = cid
                        if m == n:
                            break
        # seeds: nodes of an SCC with an internal good edge, and nodes with
        # an edge into a good node of the base
        winners = set()
        preds: dict = {}
        for n in nodes:
            for m, is_good in self.successors(n):
                if m in nodes:
                    preds.setdefault(m, []).append(n)
                    if is_good and comp[n] == comp[m]:
                        winners.add(n)
                elif m in self._good_nodes:
                    winners.add(n)
        # an SCC wins as a whole once one of its nodes does; the backward
        # closure over the reverse edges covers that too
        stack = list(winners)
        while stack:
            m = stack.pop()
            for n in preds.get(m, ()):
                if n not in winners:
                    winners.add(n)
                    stack.append(n)
        return winners

    def has_accepting_run(self, location: str, values: list[int],
                          denom: int) -> bool:
        """values: automaton-clock valuation in 1/denom units.

        ``_reach_base`` holds every node explored so far and stays closed
        under successors; ``_good_nodes`` is its exact winning subset.  A
        new root extends both incrementally: only the nodes it newly
        reaches are explored and analysed (see ``_compute_good``)."""
        region = region_of(values + [0], self.ceilings, denom)
        node = (location, region)
        if node not in self._reach_base:
            fresh = self._explore([node])
            self._good_nodes |= self._compute_good(fresh)
            self._reach_base |= fresh
        return node in self._good_nodes
