"""Online monitoring of a delayed event stream against a property/complement
automaton pair, and the zone-based engine core that active testing shares.

The core tracks, for both automata, the symbolic set of states reachable
under *some* consistent ground truth.  Zones carry the automaton clocks plus
``time`` (ground-truth time of the last event at the system) and one
event-time clock per delayed channel.  A channel is ``(bounds,
direction)``:

- an **output** channel's clock runs ahead of ``time`` by the latency, so an
  event stamped τ had its clock in ``[τ - ε, τ]``;
- an **input** channel's clock lags ``time`` by the latency (it starts
  negative), so an event stamped τ had its clock in ``[τ, τ + ε]``.

The difference between a channel clock and ``time`` stays constant along a
run and equals that channel's latency.  Channels are used in table order,
round-robin.  A zone numbers the automaton's clocks ``1..n`` as the
automaton does, then ``time`` is ``n + 1`` and channel ``k``'s clock is
``time + 1 + k``.  A latency report reads *measures*: pairs ``(x, y)`` of
offsets from ``time``, each meaning the difference of clocks ``time + x``
and ``time + y``.  The initial zone is built from the channel ranges only.
They bound every measure, a round trip included, and ``up``, resets of
automaton clocks and tightening never loosen a difference of two auxiliary
clocks, so every reported interval stays inside its declared range without
a clip.

An observation is one symbolic step per reach state
(:func:`delaymon.automata.post`): up, then the channel window (the range of
the channel clock for the event's stamp), then each edge's guard and reset.
This gives the same canonical zones as meeting the window after the reset:
the window bounds only the channel clock, which no guard reads and no reset
touches, so meeting it commutes with both, and a nonempty zone has one
canonical DBM.  So the window is met once per state, not once per
successor; :func:`~delaymon.automata.post` and :func:`_advance` say which
steps copy a matrix.  A latency report merges the encoded bounds of
the met zones into an :class:`~delaymon.dbm.Interval` per merged piece,
once per observation (:meth:`_Engine._report_once`), and only where they
moved: a union whose sorted bounds, or merged union, equal the last
report's stays that object, and so does a report whose unions all do.
That is exact, and the usual case: a channel's latency is fixed for the
run, so the latencies that explain the trace only shrink.

Verdicts are three-valued: a polarity becomes impossible exactly when its
reach-set stops intersecting the corresponding nonempty-language states.
The verdict probes this lazily, one zone per reach state (see
:func:`_advance`), and stops at the first zone that meets a nonempty zone.
A state at a *full* location, one whose nonempty zones include the
universal zone, meets as it is: the probe advances it with no copy, and
its meet, like a latency union's, tightens nothing, since the nonempty
constraints leave out the ``x >= 0`` bounds that every reach zone has.

Each observation prunes the reach-set modulo inactive clocks (Daws & Yovine,
"Reducing the number of clock variables of timed automata", RTSS 1996): a
state is dropped when its zone, with the automaton clocks that every path
from its location resets before reading left out, is included in a
sibling's at the same location.  The kept zones stay as ``post`` made them,
and a step that leaves a single state compares nothing.
This loses no answer:

- an inactive clock is reset on every path before it is read, so states
  that agree on the other clocks have successors that agree too;
- ``up`` and the channel and cutoff constraints touch no automaton clock,
  and the auxiliary clocks are never left out;
- the nonempty set at a location is a cylinder in its inactive clocks, so
  the verdict probe and the latency unions see the same projection.

A complement is usually the property with another accepting set.  Then one
reach set serves both polarities, stepped (and pruned) once per event: the
reach set reads the alphabet, the locations, the initial set, the clock
list and the compiled edges, never ``accepting`` or the transitions as
written, and the inactive clocks come from the locations and edges alone.
So the engine compares those five: two guards written differently that
compile to the same constraints (``x=5`` and ``x>=5 && x<=5``) share a
reach set.  Each polarity keeps its own nonempty-language states, which are
all that the verdict probe and the latency unions read besides the reach
set.  The engine decides this once, at set-up (for the tester, on the two
I/O products); a complement that differs in any of the five gets its own
reach set, stepped by the same loop.  The nonemptiness analysis is paid
once per automaton object, on the part that runs can enter: every later
engine built on it reads the map that the first one kept in ``TBA.memo``.

:class:`Monitor` is one output channel (clock ``n + 2``) with latency
``δ ∈ [ℓ, u]`` plus a per-event jitter in ``[0, ε]``; delay-free (classic)
monitoring is the case ``DelayBounds(0, 0, 0)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import is_not
from typing import Iterator, NamedTuple

from .automata import TBA, SymbolicState, post, prune_subsumed
from .dbm import DBM, INF, MAX_SCALED, Interval, bound, merge_difference_bounds
from .liveness import NonEmptyMap, intersects_nonempty, nonempty_states

OUTPUT = "output"
INPUT = "input"


class Verdict(enum.Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    INCONCLUSIVE = "INCONCLUSIVE"

    @property
    def conclusive(self) -> bool:
        return self is not Verdict.INCONCLUSIVE


class MonitorError(Exception):
    """Base class for monitor usage errors.

    A message that quotes times is a ``template`` with one ``{}`` per time
    in ``times``; it holds no user text, whose braces ``str.format`` would
    read.  The message writes the times as scaled integers."""

    def __init__(self, template: str, *times: int):
        super().__init__(template.format(*times) if times else template)
        self.template = template
        self.times = times


class OrderingError(MonitorError):
    """Observation timestamps must be non-decreasing."""


class ObservationError(MonitorError):
    """The observed trace is not a valid delayed observation: no latency in
    the declared bounds can explain it."""


class ComplementViolationError(MonitorError):
    """Both reach-sets died — the supplied automata are not complements."""


@dataclass(frozen=True)
class DelayBounds:
    """Channel model: latency in [latency_low, latency_high], jitter in
    [0, jitter], each below ``MAX_SCALED``; ``latency_high`` may be ``INF``."""

    latency_low: int
    latency_high: int
    jitter: int

    def __post_init__(self) -> None:
        if self.latency_low < 0 or self.jitter < 0:
            raise ValueError("delay bounds must be non-negative")
        if self.latency_high != INF and self.latency_high < self.latency_low:
            raise ValueError("latency_high must be at least latency_low")
        high = 0 if self.latency_high == INF else self.latency_high
        if max(self.latency_low, self.jitter, high) >= MAX_SCALED:
            raise ValueError("delay bounds must stay below 2**50")


# (latency bounds, OUTPUT or INPUT)
Channel = tuple[DelayBounds, str]
# (x, y): the latency clock(time + x) - clock(time + y)
Measure = tuple[int, int]


class LatencyReport(NamedTuple):
    positive: tuple[Interval, ...]
    negative: tuple[Interval, ...]
    jitter: int


@dataclass(eq=False)
class _Track:
    """The reach set of one automaton, stepped once per event however many
    polarities read it."""

    automaton: TBA
    time: int  # DBM index of time; channel k's clock is time + 1 + k
    reach: list[SymbolicState]


@dataclass
class _Side:
    """One polarity of an engine: a reach track, possibly shared with the
    other polarity, and this polarity's own nonempty-language states."""

    track: _Track
    nonempty: NonEmptyMap

    @property
    def reach(self) -> list[SymbolicState]:
        return self.track.reach


def _same_but_accepting(a: TBA, b: TBA) -> bool:
    """Whether ``a`` and ``b`` agree on all that the reach set reads (the
    alphabet, the locations, the initial set, the clock list and the
    compiled edges), so that they have the same reach sets on every trace;
    they may differ in the accepting set, and in how a guard is written."""
    return (a.alphabet == b.alphabet and a.locations == b.locations
            and a.initial == b.initial and a.clocks == b.clocks
            and a._edges == b._edges)


def _nonempty(automaton: TBA) -> NonEmptyMap:
    """The nonempty-language states of ``automaton``, analysed by the first
    engine built on this automaton object and kept in its ``memo`` for
    every later one: the analysis is deterministic, and nothing mutates its
    result.  It analyses :attr:`TBA.reachable`, which reach states never
    leave: an I/O product's copies that no alternating word enters are
    never analysed."""
    found = automaton.memo.get("nonempty")
    if found is None:
        found = automaton.memo["nonempty"] = nonempty_states(
            automaton.reachable)
    return found


def _measure(k: int, direction: str) -> Measure:
    """Channel ``k``'s latency: its clock minus ``time`` on output, ``time``
    minus its clock on input."""
    return (1 + k, 0) if direction == OUTPUT else (0, 1 + k)


def _window(channel: Channel, tau: int) -> tuple[int, int]:
    """Range of the channel clock for an event stamped ``tau``."""
    b, direction = channel
    if direction == OUTPUT:
        return tau - b.jitter, tau
    return tau, tau + b.jitter


def _step(track: _Track, symbol: str, ci: int, lo: int, hi: int
          ) -> list[SymbolicState]:
    """The track's reach set after one event on channel clock ``ci``,
    stamped into ``[lo, hi]``, pruned modulo inactive clocks.  A step that
    leaves fewer than two states is not pruned: ``post`` has dropped the
    empty successors, and one state has no sibling to be included in."""
    window = [(ci, 0, bound(hi)), (0, ci, bound(-lo))]
    states = post(track.reach, symbol, track.automaton, window)
    if len(states) < 2:
        return states
    return prune_subsumed(states, track.automaton.inactive_clocks)


def _advance(side: _Side, ci: int, cutoff: int) -> Iterator[SymbolicState]:
    """Reach-set once it is known that the next event's clock (index
    ``ci``) is at least ``cutoff``, with its delay successors: a zone whose
    clock is already at least the cutoff, or that lies at a full location,
    is yielded as it is, with no copy; any other lets time pass and keeps
    the part where the clock has reached the cutoff, in one copy.

    This gives the verdict of the exact set, the reach states that time
    takes to the cutoff or that are already past it.  Every state of the
    exact set is in the yielded one, and every yielded state is a delay
    successor of one in the exact set.  The nonempty-language set is closed
    under the past: a state that can delay into it has an accepting run
    itself.  So both sets meet the nonempty zones, or neither does.

    At a full location (:attr:`NonEmptyMap.full`) a reach zone meets the
    universal zone as it is, and so does its delayed part: ``up`` leaves
    every clock unbounded above and the cutoff bounds only the channel
    clock from below, so a nonempty reach zone keeps a nonempty part past
    the cutoff.  So the zone is yielded unadvanced, and it answers the
    same.

    The states are yielded lazily and unpruned, for a liveness test only:
    a state at a location without nonempty zones is skipped before any zone
    work, and a zone included in a sibling cannot change whether some state
    meets the nonempty zones."""
    live = side.nonempty.constraints
    full = side.nonempty.full
    at_least = bound(-cutoff)  # 0 - clock <= -cutoff
    for s in side.reach:
        if not live.get(s.location):
            continue
        if s.location in full or s.zone.m[0][ci] <= at_least:
            yield s
        else:
            yield SymbolicState(s.location,
                                s.zone.elapse(((0, ci, at_least),)))


def _latencies(side: _Side, measures: tuple[Measure, ...]
               ) -> list[list[tuple[int, int]]]:
    """Per measure, the encoded bounds ``(m[y][x], m[x][y])`` of every reach
    zone met with a nonempty zone, sorted descending as
    :func:`merge_difference_bounds` takes them, so equal unions of bounds
    are equal lists."""
    t = side.track.time
    cells = [(t + x, t + y) for x, y in measures]
    unions: list[list[tuple[int, int]]] = [[] for _ in measures]
    for s in side.reach:
        for cons in side.nonempty.constraints.get(s.location, ()):
            z = s.zone.and_constraints(cons)
            if z.is_empty():
                continue
            m = z.m
            for (x, y), pairs in zip(cells, unions):
                pairs.append((m[y][x], m[x][y]))
    for pairs in unions:
        pairs.sort(reverse=True)
    return unions


class _Engine:
    """The zone construction shared by :class:`Monitor` and
    :class:`delaymon.tester.Tester`, parametrised by a channel table."""

    def _start(self, spec: TBA, complement: TBA, channels: tuple[Channel, ...],
               extra_measures: tuple[Measure, ...] = ()) -> None:
        if spec.alphabet != complement.alphabet:
            raise MonitorError(
                "property and complement automata use different alphabets")
        self.channels = channels
        self._jitters = tuple(b.jitter for b, _ in channels)
        self.measures = tuple(_measure(k, d) for k, (_, d)
                              in enumerate(channels)) + extra_measures
        pos = self._make_track(spec)
        neg = (pos if _same_but_accepting(spec, complement)
               else self._make_track(complement))
        self.tracks = (pos,) if neg is pos else (pos, neg)
        self.pos = _Side(pos, _nonempty(spec))
        self.neg = _Side(neg, _nonempty(complement))
        self.last_obs_time = 0
        self.observation_count = 0
        # unequal to every list of bounds and every union: the first report
        # merges each list, as a later one merges each list that moved
        self._report = self._pairs = (None,) * (2 * len(self.measures))
        self._stale = True
        self._verdict = self._compute_verdict(0)

    def _make_track(self, automaton: TBA) -> _Track:
        # The automaton's clocks are 1..n; time is n + 1 and the channel
        # clocks follow it.  Initially only the channel ranges constrain
        # the aux clocks.
        time = len(automaton.clocks) + 1
        cons = [(i, 0, bound(0)) for i in range(1, time + 1)]
        for k, (b, direction) in enumerate(self.channels):
            x, y = _measure(k, direction)
            cons.append((time + y, time + x, bound(-b.latency_low)))
            if b.latency_high != INF:
                cons.append((time + x, time + y, bound(b.latency_high)))
        # input channel clocks start negative
        signed = {time + 1 + k for k, (_, d) in enumerate(self.channels)
                  if d == INPUT}
        dim = time + 1 + len(self.channels)
        z0 = DBM.universal(dim, set(range(1, dim)) - signed).and_constraints(
            cons)
        return _Track(automaton, time,
                      [SymbolicState(q, z0) for q in automaton.initial])

    # -- queries -------------------------------------------------------------

    @property
    def verdict(self) -> Verdict:
        return self._verdict

    def verdict_at(self, t: int) -> Verdict:
        if t < self.last_obs_time:
            raise OrderingError(
                "query time {} precedes last observation {}", t,
                self.last_obs_time)
        if t >= MAX_SCALED:
            raise MonitorError("query time {} is too large: scaled values "
                               "must stay below 2**50", t)
        if self._verdict.conclusive:
            return self._verdict
        return self._compute_verdict(t)

    # -- internals -----------------------------------------------------------

    def _report_once(self):
        """The current observation's latency report, found on the first call
        after a step of the reach sets and returned as is by every later
        one.  Its fields are, in order: per polarity, one union per entry of
        ``measures``, then one jitter bound per channel."""
        if self._stale:
            self._stale = False
            pairs = (_latencies(self.pos, self.measures)
                     + _latencies(self.neg, self.measures))
            if pairs != self._pairs:  # merge only the lists that moved
                last = self._report
                unions = [
                    u if p == q or (m := merge_difference_bounds(p)) == u
                    else m for p, q, u in zip(pairs, self._pairs, last)]
                if any(map(is_not, unions, last)):
                    self._report = self._report_type(*unions, *self._jitters)
            self._pairs = pairs
        return self._report

    def _next_slot(self) -> int:
        """Position of the next event's channel in the table."""
        return self.observation_count % len(self.channels)

    def _check(self, symbol: str, tau: int) -> None:
        """Refuse an observation out of order or off the alphabet, whether
        or not the verdict is conclusive."""
        if tau < self.last_obs_time:
            raise OrderingError("observation at {} precedes {}", tau,
                                self.last_obs_time)
        if tau >= MAX_SCALED:
            raise MonitorError("observation at {} is too large: scaled "
                               "values must stay below 2**50", tau)
        if symbol not in self.pos.track.automaton.alphabet:
            raise MonitorError(f"symbol {symbol!r} not in alphabet")

    def _record(self, symbol: str, tau: int) -> Verdict:
        """Feed one validated observation through the next channel; once
        the verdict is conclusive, only count it."""
        k = self._next_slot()
        self.last_obs_time = tau
        self.observation_count += 1
        if not self._verdict.conclusive:
            lo, hi = _window(self.channels[k], tau)
            for track in self.tracks:
                track.reach = _step(track, symbol, track.time + 1 + k, lo, hi)
            self._stale = True
            self._verdict = self._compute_verdict(tau)
        return self._verdict

    def _compute_verdict(self, t: int) -> Verdict:
        # Nothing has arrived on the next channel by t, so its event clock
        # is at least the low end of the window at t.
        k = self._next_slot()
        cutoff = _window(self.channels[k], t)[0]
        pos_live = intersects_nonempty(
            _advance(self.pos, self.pos.track.time + 1 + k, cutoff),
            self.pos.nonempty)
        neg_live = intersects_nonempty(
            _advance(self.neg, self.neg.track.time + 1 + k, cutoff),
            self.neg.nonempty)
        if not pos_live and not neg_live:
            raise ComplementViolationError(
                "no ground truth fits either automaton; the complement "
                "automaton does not complement the property")
        if not pos_live:
            return Verdict.FALSE
        if not neg_live:
            return Verdict.TRUE
        return Verdict.INCONCLUSIVE


class Monitor(_Engine):
    """Monitor one stream; mutate via :meth:`observe` only."""

    _report_type = LatencyReport

    def __init__(self, spec: TBA, complement: TBA, bounds: DelayBounds):
        self.bounds = bounds
        self._start(spec, complement, ((bounds, OUTPUT),))

    def latency_report(self) -> LatencyReport:
        return self._report_once()

    def observe(self, symbol: str, tau: int) -> Verdict:
        self._check(symbol, tau)
        if self.observation_count == 0 and tau < self.bounds.latency_low:
            raise ObservationError(
                "first observation at {} is earlier than the minimum "
                "latency {}", tau, self.bounds.latency_low)
        return self._record(symbol, tau)
