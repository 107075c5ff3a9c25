"""Independent ground-truth oracle for delayed-observation verdicts.

Decides, by exhaustive case analysis, whether some latency/jitter assignment
within the declared bounds admits a consistent ground truth whose
continuation language is nonempty.  Per discrete transition path the
constraints on the latency and the per-event arrival offsets form a pure
difference system, solved exactly; final-state nonemptiness is delegated to
the region-graph oracle, with region membership expressed as further
difference constraints.  No zones, no DBMs — deliberately a different
formalization than the engine under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass

from delaymon.automata import TBA, AtomicConstraint, Transition
from delaymon.dbm import INF

from helpers_regions import RegionGraph, region_of


class DiffSystem:
    """Feasibility of conjunctions x_i - x_j <= c / < c, exact integers."""

    def __init__(self, n: int):
        self.n = n
        self.con: dict[tuple[int, int], tuple[int, bool]] = {}

    def copy(self) -> "DiffSystem":
        d = DiffSystem(self.n)
        d.con = dict(self.con)
        return d

    def add(self, i: int, j: int, c: int, strict: bool = False) -> None:
        old = self.con.get((i, j))
        if old is None or c < old[0] or (c == old[0] and strict
                                         and not old[1]):
            self.con[(i, j)] = (c, strict)

    def feasible(self) -> bool:
        n = self.n
        big = None
        dist = [[big] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = (0, False)
        for (i, j), w in self.con.items():
            if dist[i][j] is None or w[0] < dist[i][j][0] or (
                    w[0] == dist[i][j][0] and w[1]):
                dist[i][j] = w
        for k in range(n):
            for i in range(n):
                if dist[i][k] is None:
                    continue
                for j in range(n):
                    if dist[k][j] is None:
                        continue
                    c = dist[i][k][0] + dist[k][j][0]
                    s = dist[i][k][1] or dist[k][j][1]
                    cur = dist[i][j]
                    if cur is None or c < cur[0] or (c == cur[0] and s
                                                    and not cur[1]):
                        dist[i][j] = (c, s)
        for i in range(n):
            c, s = dist[i][i]
            if c < 0 or (c == 0 and s):
                return False
        return True


@dataclass(frozen=True)
class OracleBounds:
    lat_lo: int
    lat_hi: int  # INF allowed
    jitter: int


def _region_constraint_atoms(region, ceilings, denom):
    """Constraints a valuation must satisfy to lie in the region, expressed
    over per-clock symbols: ('single', c, rel, const) and
    ('pair', c1, c2, rel, const), consts scaled by denom."""
    atoms = []
    n = len(region)
    for c, part in enumerate(region):
        if part is None:
            atoms.append(("single", c, ">", ceilings[c] * denom))
        else:
            k, r = part
            if r == 0:
                atoms.append(("single", c, "=", k * denom))
            else:
                atoms.append(("single", c, ">", k * denom))
                atoms.append(("single", c, "<", (k + 1) * denom))
    for c1 in range(n):
        for c2 in range(c1 + 1, n):
            p1, p2 = region[c1], region[c2]
            if p1 is None or p2 is None:
                continue
            (k1, r1), (k2, r2) = p1, p2
            if r1 == 0 or r2 == 0:
                continue  # exact values already pinned the fraction order
            diff = (k1 - k2) * denom
            if r1 == r2:
                atoms.append(("pair", c1, c2, "=", diff))
            elif r1 < r2:
                atoms.append(("pair", c1, c2, "<", diff))
            else:
                atoms.append(("pair", c1, c2, ">", diff))
    return atoms


def winning_regions(graph: RegionGraph, location: str, denom: int):
    """Distinct clock regions (divergence clock excluded) from which an
    accepting time-divergent run exists at the given location."""
    cache = getattr(graph, "_winning_cache", None)
    if cache is None:
        cache = {}
        graph._winning_cache = cache
    key = (location, denom)
    if key in cache:
        return cache[key]
    n = len(graph.automaton.clocks)
    ceils = graph.ceilings[:n]
    seen = {}
    axes = [range(0, (c + 1) * denom + 1) for c in ceils]
    for vals in itertools.product(*axes):
        reg = region_of(list(vals), ceils, denom)
        if reg in seen:
            continue
        seen[reg] = graph.has_accepting_run(location, list(vals), denom)
    cache[key] = [r for r, ok in seen.items() if ok]
    return cache[key]


def _paths(automaton: TBA, word: list[str]):
    """All discrete transition sequences over the labels of the word."""
    starts = sorted(automaton.initial)
    stack = [(q, []) for q in starts]
    for sym in word:
        nxt = []
        for q, path in stack:
            for t in automaton.transitions:
                if (t.src, t.label) == (q, sym):
                    nxt.append((t.dst, path + [t]))
        stack = nxt
    return stack


def oracle_consistent(
    automaton: TBA,
    graph: RegionGraph,
    bounds: OracleBounds,
    obs: list[tuple[str, int]],
    t: int,
    denom: int = 4,
    pinned_latency: int | None = None,
) -> bool:
    """Is there a consistent ground truth (under some latency in bounds)
    whose continuation language at query time t is nonempty?

    Variables of the difference system: node 0 is the constant zero, node 1
    the latency, node 2+i the latency-plus-jitter of observation i.
    """
    n = len(obs)
    taus = [tau for _, tau in obs]
    word = [sym for sym, _ in obs]
    clocks = automaton.clocks

    def base_system() -> DiffSystem:
        d = DiffSystem(2 + n)
        d.add(0, 1, -bounds.lat_lo)      # latency >= lo
        if bounds.lat_hi != INF:
            d.add(1, 0, bounds.lat_hi)   # latency <= hi
        for i in range(n):
            y = 2 + i
            d.add(1, y, 0)               # jitter >= 0
            d.add(y, 1, bounds.jitter)   # jitter <= eps
        if n:
            d.add(2, 0, taus[0])         # first emission at time >= 0
            for i in range(n - 1):
                # emission order matches observation order
                d.add(2 + i + 1, 2 + i, taus[i + 1] - taus[i])
        if pinned_latency is not None:
            d.add(1, 0, pinned_latency)
            d.add(0, 1, -pinned_latency)
        return d

    def add_rel(d, p, q, rel, c):
        """expr = c0 + x_p - x_q, constrain (expr rel c) given c' = c - c0
        folded in by the caller: here plain x_p - x_q rel c."""
        if rel in ("<", "<="):
            d.add(p, q, c, strict=rel == "<")
        elif rel in (">", ">="):
            d.add(q, p, -c, strict=rel == ">")
        else:
            d.add(p, q, c)
            d.add(q, p, -c)

    regions_by_loc: dict[str, list] = {}

    for final_loc, path in _paths(automaton, word):
        d0 = base_system()
        last_reset = {c: 0 for c in clocks}
        for k, t_k in enumerate(path, start=1):
            for g in t_k.guard:
                r = last_reset[g.clock]
                tau_k = taus[k - 1]
                tau_r = taus[r - 1] if r else 0
                yk, yr = 2 + (k - 1), (2 + (r - 1)) if r else 0
                add_rel(d0, yr, yk, g.relation, g.constant - tau_k + tau_r)
            for c in t_k.resets:
                last_reset[c] = k
        if not d0.feasible():
            continue
        if final_loc not in regions_by_loc:
            regions_by_loc[final_loc] = winning_regions(
                graph, final_loc, denom)
        tau_n = taus[-1] if n else 0
        yn = 2 + (n - 1) if n else 0
        # advance = max(0, t - eps - latency - tau_n); two cases on its sign,
        # written as bounds on latency - y_n (recall tau_n = obs_n - y_n)
        for advanced in (False, True):
            d1 = d0.copy()
            k0 = t - bounds.jitter - tau_n
            if advanced:
                add_rel(d1, 1, yn, "<=", k0)
            else:
                add_rel(d1, 1, yn, ">=", k0)
            if not d1.feasible():
                continue
            for region in regions_by_loc[final_loc]:
                d2 = d1.copy()
                ceils = graph.ceilings[:len(clocks)]
                for atom in _region_constraint_atoms(
                        region, ceils, denom):
                    if atom[0] == "single":
                        _, c, rel, const = atom
                        r = last_reset[clocks[c]]
                        tau_r = taus[r - 1] if r else 0
                        yr = 2 + (r - 1) if r else 0
                        if advanced:
                            # value = (t - eps - tau_r) + y_r - latency
                            add_rel(d2, yr, 1, rel,
                                    const - (t - bounds.jitter - tau_r))
                        else:
                            # value = (tau_n - tau_r) + y_r - y_n
                            add_rel(d2, yr, yn, rel,
                                    const - (tau_n - tau_r))
                    else:
                        _, c1, c2, rel, const = atom
                        r1 = last_reset[clocks[c1]]
                        r2 = last_reset[clocks[c2]]
                        t1 = taus[r1 - 1] if r1 else 0
                        t2 = taus[r2 - 1] if r2 else 0
                        y1 = 2 + (r1 - 1) if r1 else 0
                        y2 = 2 + (r2 - 1) if r2 else 0
                        # v1 - v2 = (t2 - t1) + y_1 - y_2 in both cases
                        add_rel(d2, y1, y2, rel, const - (t2 - t1))
                if d2.feasible():
                    return True
    return False


def oracle_verdict(spec, complement, spec_graph, comp_graph, bounds, obs, t,
                   denom: int = 4) -> str:
    pos = oracle_consistent(spec, spec_graph, bounds, obs, t, denom)
    neg = oracle_consistent(complement, comp_graph, bounds, obs, t, denom)
    if not pos and not neg:
        raise AssertionError("oracle: both polarities impossible")
    if not pos:
        return "FALSE"
    if not neg:
        return "TRUE"
    return "INCONCLUSIVE"


def complement_pair(rng: random.Random, n_clocks: int = 1,
                    max_const: int = 3) -> tuple[TBA, TBA]:
    """Random deterministic-and-complete automaton pair accepting
    complementary languages: a two-layer DAG funnelling every word into one
    of two absorbing sinks; which sink accepts distinguishes the pair.
    Constants are unit-scale (scale afterwards as needed)."""
    clocks = tuple(f"c{i}" for i in range(n_clocks))
    alphabet = ("a", "b")
    mids = ["m0", "m1"]
    trans: list[Transition] = []

    def split_edges(src: str, dsts: list[str]):
        for sym in alphabet:
            clk = rng.choice(clocks)
            const = rng.randint(0, max_const)
            strictness = rng.choice([("<=", ">"), ("<", ">=")])
            lo_dst, hi_dst = rng.choice(dsts), rng.choice(dsts)
            for rel, dst in ((strictness[0], lo_dst), (strictness[1], hi_dst)):
                resets = frozenset(
                    c for c in clocks if rng.random() < 0.4)
                trans.append(Transition(
                    src, dst, sym, resets,
                    (AtomicConstraint(clk, rel, const),)))

    split_edges("s0", mids + ["okSink", "errSink"])
    for m in mids:
        split_edges(m, ["okSink", "errSink"])
    for sink in ("okSink", "errSink"):
        for sym in alphabet:
            trans.append(Transition(sink, sink, sym))

    def build(accepting: str) -> TBA:
        return TBA(
            alphabet=frozenset(alphabet),
            locations=frozenset({"s0", *mids, "okSink", "errSink"}),
            initial=frozenset({"s0"}),
            clocks=clocks,
            transitions=tuple(trans),
            accepting=frozenset({accepting}),
        )

    return build("okSink"), build("errSink")


# -- two-channel testing oracle ----------------------------------------------


@dataclass(frozen=True)
class IOOracleBounds:
    in_lo: int
    in_hi: int   # INF allowed
    in_jitter: int
    out_lo: int
    out_hi: int  # INF allowed
    out_jitter: int


def oracle_io_consistent(
    automaton: TBA,
    graph: RegionGraph,
    bounds: IOOracleBounds,
    obs: list[tuple[str, int]],
    t: int,
    denom: int = 4,
    pin_input: int | None = None,
    pin_output: int | None = None,
    pin_combined: int | None = None,
) -> bool:
    """Is some pair of channel latencies within bounds consistent with the
    alternating observation, with a nonempty continuation language at t?

    ``automaton`` must be an alternation product; ``graph`` its unit-scale
    region graph.  A ground truth matches the observation except that at
    most one trailing output may have been emitted but not yet delivered.
    Variables: node 0 is zero, node 1 the input latency, node 2 the negated
    output latency, node 3+k the ground-truth time of event k.
    """
    n = len(obs)
    word = [sym for sym, _ in obs]
    taus = [tau for _, tau in obs]
    clocks = automaton.clocks
    last_is_input = n > 0 and word[-1] in automaton.inputs

    def svar(k: int) -> int:
        return 3 + k

    def base_system(n_g: int) -> DiffSystem:
        d = DiffSystem(3 + n_g)
        d.add(0, 1, -bounds.in_lo)
        if bounds.in_hi != INF:
            d.add(1, 0, bounds.in_hi)
        d.add(2, 0, -bounds.out_lo)          # -lat_O <= -lo
        if bounds.out_hi != INF:
            d.add(0, 2, bounds.out_hi)       # lat_O <= hi
        if pin_input is not None:
            d.add(1, 0, pin_input)
            d.add(0, 1, -pin_input)
        if pin_output is not None:
            d.add(0, 2, pin_output)
            d.add(2, 0, -pin_output)
        if pin_combined is not None:
            d.add(1, 2, pin_combined)        # lat_I + lat_O = pin
            d.add(2, 1, -pin_combined)
        if n_g:
            d.add(0, svar(0), 0)             # ground times start at >= 0
        for k in range(n_g - 1):
            d.add(svar(k), svar(k + 1), 0)   # and are non-decreasing
        for k, (sym, tau) in enumerate(obs):
            if sym in automaton.inputs:
                # arrival - lat_I in [send, send + jitter]
                d.add(svar(k), 1, tau + bounds.in_jitter)
                d.add(1, svar(k), -tau)
            else:
                # emission + lat_O in [arrival - jitter, arrival]
                d.add(svar(k), 2, tau)
                d.add(2, svar(k), -(tau - bounds.out_jitter))
        return d

    def add_rel(d, p, q, rel, c):
        if rel in ("<", "<="):
            d.add(p, q, c, strict=rel == "<")
        elif rel in (">", ">="):
            d.add(q, p, -c, strict=rel == ">")
        else:
            d.add(p, q, c)
            d.add(q, p, -c)

    candidates: list[list[str]] = [word]
    if last_is_input:
        # one response may already be emitted but not yet delivered
        candidates += [word + [o] for o in sorted(automaton.outputs)]

    for g_word in candidates:
        n_g = len(g_word)
        extra = n_g > n
        for final_loc, path in _paths(automaton, g_word):
            d0 = base_system(n_g)
            last_reset: dict[str, int | None] = {c: None for c in clocks}
            for k, tr in enumerate(path):
                for g in tr.guard:
                    r = last_reset[g.clock]
                    rnode = 0 if r is None else svar(r)
                    add_rel(d0, svar(k), rnode, g.relation, g.constant)
                for c in tr.resets:
                    last_reset[c] = k
            if extra:
                # undelivered: emission + lat_O + jitter may reach t
                d0.add(2, svar(n_g - 1), -(t - bounds.out_jitter))
            if not d0.feasible():
                continue
            regions = winning_regions(graph, final_loc, denom)
            # clock values are read at max(t, last ground time); two cases
            for at_query_time in (True, False):
                d1 = d0.copy()
                if n_g and at_query_time:
                    d1.add(svar(n_g - 1), 0, t)
                elif n_g:
                    d1.add(0, svar(n_g - 1), -t)
                    if extra:
                        # the emission must not outrun the last stimulus
                        d1.add(svar(n_g - 1), 1,
                               taus[-1] + bounds.in_jitter)
                elif not at_query_time:
                    continue
                if not d1.feasible():
                    continue
                last = svar(n_g - 1) if n_g else 0
                ceils = graph.ceilings[:len(clocks)]
                for region in regions:
                    d2 = d1.copy()
                    for atom in _region_constraint_atoms(
                            region, ceils, denom):
                        if atom[0] == "single":
                            _, c, rel, const = atom
                            r = last_reset[clocks[c]]
                            rnode = 0 if r is None else svar(r)
                            if at_query_time:
                                # value = t - reset time
                                add_rel(d2, 0, rnode, rel, const - t)
                            else:
                                # value = last ground time - reset time
                                add_rel(d2, last, rnode, rel, const)
                        else:
                            _, c1, c2, rel, const = atom
                            r1 = last_reset[clocks[c1]]
                            r2 = last_reset[clocks[c2]]
                            n1 = 0 if r1 is None else svar(r1)
                            n2 = 0 if r2 is None else svar(r2)
                            # v1 - v2 = reset time 2 - reset time 1
                            add_rel(d2, n2, n1, rel, const)
                    if d2.feasible():
                        return True
    return False


def oracle_io_verdict(spec_prod, comp_prod, spec_graph, comp_graph, bounds,
                      obs, t, denom: int = 4) -> str:
    pos = oracle_io_consistent(spec_prod, spec_graph, bounds, obs, t, denom)
    neg = oracle_io_consistent(comp_prod, comp_graph, bounds, obs, t, denom)
    if not pos and not neg:
        raise AssertionError("io oracle: both polarities impossible")
    if not pos:
        return "FALSE"
    if not neg:
        return "TRUE"
    return "INCONCLUSIVE"


def io_complement_pair(rng: random.Random, n_clocks: int = 1,
                       max_const: int = 3) -> tuple[TBA, TBA]:
    """Like :func:`complement_pair` with symbol 'a' as input, 'b' as
    output."""
    spec, comp = complement_pair(rng, n_clocks, max_const)
    part = dict(inputs=frozenset({"a"}), outputs=frozenset({"b"}))
    return (dataclasses.replace(spec, **part),
            dataclasses.replace(comp, **part))
