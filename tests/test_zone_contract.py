"""The zone kernel's contract, checked where it is relied on.

No operation of :mod:`delaymon.dbm` handles an empty operand: every zone
handed to a DBM operation, to a union helper or to the pruner is nonempty,
since the caller that builds a zone tests it where it is made.  A clock
that a meet frees as dead is a non-negative automaton clock that the same
meet does not reset.  And
:func:`~delaymon.dbm.merge_difference_bounds` does not sort: every list of
encoded bounds reaching it is sorted descending.  These tests run the
engines and the nonemptiness analysis with each of those entry points
wrapped in a check of its arguments, at the names the library looks them up
by, and require every wrapper to be called, so that no check passes
unexercised."""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

import delaymon.automata as automata
import delaymon.dbm as dbm
import delaymon.liveness as liveness
import delaymon.monitor as monitor
from delaymon.automata import TBA, io_alternation_product, parse_tba
from delaymon.dbm import DBM, LE_ZERO
from delaymon.liveness import nonempty_states
from delaymon.monitor import ComplementViolationError, MonitorError

from helpers_automata import random_tba
from test_acceptance import engine_runs, shipped_pairs
from test_liveness import SHIPPED


def nonempty_zone(zone: DBM, *rest):
    assert not zone.is_empty()
    return (zone, *rest)


def nonempty_step(zone: DBM, cons=(), resets=(), dead=()):
    """A nonempty operand, and dead clocks that are automaton clocks,
    non-negative in it and not reset with them."""
    assert not zone.is_empty()
    assert not set(dead) & {0, *resets}
    assert all(zone.m[0][x] <= LE_ZERO for x in dead)
    return zone, cons, resets, dead


def nonnegative_clock(m: list[list[int]], x: int):
    assert x != 0 and m[0][x] <= LE_ZERO
    return m, x


def nonempty_pair(a: DBM, b: DBM):
    assert not a.is_empty() and not b.is_empty()
    return a, b


def nonempty_union(zone: DBM, zones):
    zones = list(zones)
    assert not any(z.is_empty() for z in [zone, *zones])
    return zone, zones


def nonempty_zones(zones, *rest):
    zones = list(zones)
    assert not any(z.is_empty() for z in zones)
    return (zones, *rest)


def sorted_descending(pairs):
    assert pairs == sorted(pairs, reverse=True)
    return (pairs,)


# (owner, attribute, the check that sees and returns its arguments)
WRAPPED = {
    "DBM.elapse": (DBM, "elapse", nonempty_zone),
    "DBM.and_constraints": (DBM, "and_constraints", nonempty_step),
    "dbm._free": (dbm, "_free", nonnegative_clock),
    "DBM.pre": (DBM, "pre", nonempty_zone),
    "DBM.restrict": (DBM, "restrict", nonempty_zone),
    "DBM.includes": (DBM, "includes", nonempty_pair),
    "DBM.subtract": (DBM, "subtract", nonempty_pair),
    "liveness.included_in_union": (
        liveness, "included_in_union", nonempty_union),
    "liveness.reduce_union": (liveness, "reduce_union", nonempty_zones),
    "automata.reduce_union": (automata, "reduce_union", nonempty_zones),
    "monitor.merge_difference_bounds": (
        monitor, "merge_difference_bounds", sorted_descending),
}
# what the nonemptiness analysis alone calls; DBM.pre frees its reset
# clocks with dbm._free
ANALYSIS = {"DBM.and_constraints", "DBM.pre", "dbm._free", "DBM.restrict",
            "DBM.includes", "DBM.subtract", "liveness.included_in_union",
            "liveness.reduce_union"}


@pytest.fixture
def calls(monkeypatch) -> collections.Counter:
    """Wrap every entry point of :data:`WRAPPED` in its check; count the
    calls that pass it, by name."""
    counted: collections.Counter = collections.Counter()

    def wrap(name, owner, attr, check):
        original = getattr(owner, attr)

        def checked(*args, **kwargs):
            args = check(*args)
            counted[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, checked)

    for name, (owner, attr, check) in WRAPPED.items():
        wrap(name, owner, attr, check)
    return counted


def run_engines(spec: TBA, comp: TBA, seed: int) -> None:
    """Feed classic, monitor and test-mode walks of ``spec`` (those of
    :func:`test_acceptance.engine_runs`) to their engines, reading the
    latency report after every event, up to a conclusive verdict or an
    error; a pair whose engines cannot start is skipped."""
    try:
        runs = engine_runs(spec, comp, seed)
    except ComplementViolationError:  # no polarity lives at the start
        return
    for engine, observe, events in runs:
        engine.latency_report()
        for sym, tau in events:
            try:
                verdict = getattr(engine, observe)(sym, tau)
            except MonitorError:
                break
            engine.latency_report()
            if verdict.conclusive:
                break


def test_shipped_pairs(calls):
    for seed in range(2):
        for _, spec, comp in shipped_pairs():
            run_engines(spec, comp, seed)
    assert set(calls) == set(WRAPPED)


@pytest.mark.parametrize("seed", range(4))
def test_random_complement_pairs(calls, seed):
    rng = random.Random(f"contract/{seed}")
    for _ in range(25):
        spec = random_tba(rng, n_clocks=rng.choice([1, 2, 3]), max_const=4,
                          guard_ratio=0.4)
        comp = dataclasses.replace(
            spec, accepting=spec.locations - spec.accepting)
        run_engines(spec, comp, seed)
    assert set(calls) == set(WRAPPED)


def test_nonempty_states(calls):
    shipped = [parse_tba(path.read_text(), 10) for path in SHIPPED]
    automata_ = shipped + [io_alternation_product(a) for a in shipped
                           if a.has_io_partition]
    rng = random.Random("contract/analysis")
    randoms = [random_tba(rng, n_clocks=rng.choice([1, 2, 3]),
                          max_const=rng.choice([3, 5]), guard_ratio=0.5)
               for _ in range(200)]
    for a in automata_ + [a.reachable for a in automata_] + randoms:
        nonempty_states(a)
    assert set(calls) == ANALYSIS
