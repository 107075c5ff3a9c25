"""Workload definitions: fixed automata, seeded trace generators, and the
engine and CLI sessions each workload runs.

Every workload has the same five phases (engine set-up, a classic, a
monitor and a test stream, and CLI sessions); what differs is the input,
so each workload stresses a different layer of delaymon.  The program only
ever sees the automaton texts and traces built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from delaymon.automata import TBA, parse_tba

INPUTS = Path(__file__).resolve().parent / "inputs"
SINK = "bad"
MODES = ("classic", "monitor", "test")


@dataclass(frozen=True)
class Channel:
    """Declared delay bounds and the true latencies the generator applies,
    all in scaled units."""

    monitor: tuple[int, int, int]          # latency low, high, jitter
    monitor_truth: int
    test_in: tuple[int, int, int]
    test_out: tuple[int, int, int]
    test_truth: tuple[int, int]            # input, output latency


@dataclass
class Pair:
    """A property automaton, its complement and their text files."""

    name: str
    spec_path: Path
    comp_path: Path
    scale: int
    spec: TBA = field(init=False)
    comp: TBA = field(init=False)

    def __post_init__(self) -> None:
        self.spec = parse_tba(self.spec_path.read_text(), self.scale)
        self.comp = parse_tba(self.comp_path.read_text(), self.scale)


@dataclass
class Stream:
    """One engine session: observed events for one mode.  ``truth`` holds
    the latencies that must stay in the positive latency sets, or None when
    the trace is a fixed input with a known reference."""

    name: str
    pair: Pair
    mode: str
    channel: Channel
    events: list[tuple[str, int]]
    truth: tuple[int, ...] | None


@dataclass
class CliSession:
    """One ``delaymon.cli.main`` run.  Either ``argv`` names a fixed trace
    file, or ``trace_text`` is written into the work directory and passed
    with ``--trace``."""

    name: str
    argv: list[str]
    trace_text: str | None
    expect_exit: int
    expect_rows: int


@dataclass
class Workload:
    name: str
    setup: list[tuple[Pair, str, Channel]]    # engines built per round
    streams: dict[str, list[Stream]]
    cli: list[CliSession]
    seeded_outputs: bool          # reference digests depend on the seed


def _engines_of(streams: dict[str, list[Stream]]
                ) -> list[tuple[Pair, str, Channel]]:
    keys = {(s.pair.name, s.mode, s.channel): (s.pair, s.mode, s.channel)
            for ss in streams.values() for s in ss}
    return list(keys.values())


# -- generators --------------------------------------------------------------


def gear_ground_truth(pairs: int, rng: random.Random, ch: Channel,
                      ) -> list[tuple[str, int]]:
    """Error-free request/response session in ground-truth time, shaped
    like the acceptance suite's gear session: response about 600 after the
    request, the next request about 50 after the response is seen."""
    din, dout = ch.test_truth
    lead = din + ch.test_in[2]
    tail = dout + ch.test_out[2]
    events = []
    t = 100 + lead
    for _ in range(pairs):
        events.append(("ReqNewGear", t))
        resp = t + rng.randint(560, 640)
        events.append(("NewGear", resp))
        t = resp + tail + rng.randint(40, 60) + lead
    return events


def walk(tba: TBA, count: int, rng: random.Random, min_gap: int,
         slack: int, spread: int) -> list[tuple[str, int]]:
    """Ground-truth run of a deterministic property that never enters the
    violation sink.  Each step takes a random outgoing edge whose guard can
    still be met after waiting at least ``min_gap``, and waits the middle of
    the allowed window moved by at most ``spread``; an unbounded window is
    taken to end ``slack`` after its lower end.  Keeping waits near the
    middle keeps reach-set sizes, and so costs, alike across seeds."""
    loc = min(tba.initial)
    val = {c: 0 for c in tba.clocks}
    t = 0
    out: list[tuple[str, int]] = []
    by_src: dict[str, list] = {}
    for e in sorted(tba.transitions, key=lambda e: (e.src, e.label, e.dst)):
        if e.dst != SINK:
            by_src.setdefault(e.src, []).append(e)
    while len(out) < count:
        edges = list(by_src[loc])
        rng.shuffle(edges)
        for e in edges:
            lo, hi = min_gap, None
            for g in e.guard:
                v, c, r = val[g.clock], g.constant, g.relation
                if r in ("<=", "=", "<"):
                    cap = c - v - (1 if r == "<" else 0)
                    hi = cap if hi is None else min(hi, cap)
                if r in (">=", "=", ">"):
                    lo = max(lo, c - v + (1 if r == ">" else 0))
            hi = lo + slack if hi is None else hi
            if lo <= hi:
                break
        else:
            raise RuntimeError(f"trace generator stuck at {loc}")
        d = min(hi, max(lo, (lo + hi) // 2 + rng.randint(-spread, spread)))
        t += d
        val = {c: 0 if c in e.resets else v + d for c, v in val.items()}
        out.append((e.label, t))
        loc = e.dst
    return out


def observe(ground: list[tuple[str, int]], mode: str, ch: Channel,
            inputs: frozenset[str], rng: random.Random
            ) -> list[tuple[str, int]]:
    """What each engine mode observes of a ground-truth run: the run itself
    (classic), every event delayed through one channel (monitor), or
    stimuli sent early and responses delayed (test)."""
    if mode == "classic":
        return list(ground)
    if mode == "monitor":
        d, eps = ch.monitor_truth, ch.monitor[2]
        return [(s, t + d + rng.randint(0, eps)) for s, t in ground]
    din, dout = ch.test_truth
    return [(s, t - din - rng.randint(0, ch.test_in[2])) if s in inputs
            else (s, t + dout + rng.randint(0, ch.test_out[2]))
            for s, t in ground]


def truth_for(mode: str, ch: Channel) -> tuple[int, ...]:
    if mode == "classic":
        return (0,)
    if mode == "monitor":
        return (ch.monitor_truth,)
    din, dout = ch.test_truth
    return (din, dout, din + dout)


def wire(value: int, scale: int) -> str:
    """Scaled integer as a wire decimal (scale is a power of ten)."""
    digits = len(str(scale)) - 1
    if not digits:
        return str(value)
    whole, frac = divmod(value, scale)
    return f"{whole}.{frac:0{digits}d}"


def trace_text(events: list[tuple[str, int]], scale: int) -> str:
    return "".join(f"@{wire(t, scale)} {s}\n" for s, t in events)


def mode_flags(mode: str, ch: Channel, scale: int) -> list[str]:
    if mode == "classic":
        return []
    if mode == "monitor":
        lo, hi, eps = ch.monitor
        return ["--latency", wire(lo, scale), wire(hi, scale),
                "--jitter", wire(eps, scale)]
    (ilo, ihi, ieps), (olo, ohi, oeps) = ch.test_in, ch.test_out
    return ["--in-latency", wire(ilo, scale), wire(ihi, scale),
            "--in-jitter", wire(ieps, scale),
            "--out-latency", wire(olo, scale), wire(ohi, scale),
            "--out-jitter", wire(oeps, scale)]


def cli_argv(pair: Pair, mode: str, ch: Channel) -> list[str]:
    return ["--spec", str(pair.spec_path), "--complement", str(pair.comp_path),
            "--scale", str(pair.scale), "--mode", mode,
            *mode_flags(mode, ch, pair.scale)]


# -- the four workloads --------------------------------------------------------

GEAR_CHANNEL = Channel(monitor=(0, 100, 10), monitor_truth=60,
                       test_in=(10, 50, 10), test_out=(60, 100, 10),
                       test_truth=(30, 80))
WIDE_CHANNEL = Channel(monitor=(0, 20, 10), monitor_truth=10,
                       test_in=(0, 5, 2), test_out=(0, 5, 2),
                       test_truth=(3, 3))
LADDER_CHANNEL = Channel(monitor=(0, 5, 2), monitor_truth=3,
                         test_in=(0, 4, 1), test_out=(0, 4, 1),
                         test_truth=(2, 2))
FIXTURE_TEST = {                   # test-mode input and output bands
    "narrow": ((10, 50, 10), (60, 100, 10)),
    "wide": ((0, 90, 10), (100, 200, 10)),
}

# Pools hold many distinct traces, so that the top percent of a run's event
# and session times comes from many different events, not from a few
# replayed ones whose cost gaps would make p99 and p90 jump.
GEAR_SESSIONS = 4          # gear traces per mode, and CLI traces
GEAR_PAIRS = 250           # events per gear stream session = 2 * GEAR_PAIRS
GEAR_CLI_PAIRS = 30
WIDE_SESSIONS = 24         # wide-band traces per mode
WIDE_EVENTS = 80
WIDE_CLI_SESSIONS = 8
WIDE_CLI_EVENTS = 40
LADDER_ENTRIES = 4
LADDER_STREAM_ENTRY = 2    # the entry that streams and CLI sessions use
LADDER_SESSIONS = 8        # traces per mode on that entry
LADDER_EVENTS = 30
LADDER_CLI_SESSIONS = 4
LADDER_CLI_EVENTS = 20
SPREAD = 3                 # scaled units a generated wait may leave the middle


def _pair(name: str, stem: str, scale: int) -> Pair:
    return Pair(name, INPUTS / f"{stem}_spec.txt",
                INPUTS / f"{stem}_complement.txt", scale)


def _streams(name: str, pair: Pair, ground: list[tuple[str, int]],
             ch: Channel, rng: random.Random) -> dict[str, list[Stream]]:
    return {m: [Stream(f"{m}/{name}", pair, m, ch,
                       observe(ground, m, ch, pair.spec.inputs, rng),
                       truth_for(m, ch))]
            for m in MODES}


def _merge(into: dict[str, list[Stream]], more: dict[str, list[Stream]]):
    for m, ss in more.items():
        into.setdefault(m, []).extend(ss)


def _generated_cli(name: str, pair: Pair, mode: str, ch: Channel,
                   ground: list[tuple[str, int]], rng: random.Random
                   ) -> CliSession:
    events = observe(ground, mode, ch, pair.spec.inputs, rng)
    return CliSession(f"cli/{name}", cli_argv(pair, mode, ch),
                      trace_text(events, pair.scale), expect_exit=2,
                      expect_rows=len(events))


def gear_steady(seed: int) -> Workload:
    rng = random.Random(seed)
    ch = GEAR_CHANNEL
    pair = _pair("gear", "gear", 1)
    streams: dict[str, list[Stream]] = {}
    for k in range(GEAR_SESSIONS):
        _merge(streams, _streams(f"gear{k}", pair, gear_ground_truth(
            GEAR_PAIRS, rng, ch), ch, rng))
    cli = [_generated_cli(f"gear{k}", pair, "test", ch,
                          gear_ground_truth(GEAR_CLI_PAIRS, rng, ch), rng)
           for k in range(GEAR_SESSIONS)]
    return Workload("gear-steady", _engines_of(streams), streams, cli,
                    seeded_outputs=True)


def _walk(pair: Pair, count: int, ch: Channel, rng: random.Random) -> list:
    """A ground-truth run whose waits keep every mode's observations in
    order: at least one monitor jitter, and at least both test latencies and
    jitters between a response and the next stimulus."""
    gap = max(ch.monitor[2],
              sum(ch.test_truth) + ch.test_in[2] + ch.test_out[2])
    return walk(pair.spec, count, rng, min_gap=gap, slack=20, spread=SPREAD)


def _shuffled(items: list, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def wide_band(seed: int) -> Workload:
    """Reach sets grow to tens of zones, and a trace's cost depends on its
    generator seed; so the traces form a fixed pool, each drawn from its own
    index, and the run seed only orders them."""
    ch = WIDE_CHANNEL
    pair = _pair("wide", "wide_band", 10)
    streams: dict[str, list[Stream]] = {}
    for k in _shuffled(range(WIDE_SESSIONS), seed):
        rng = random.Random(f"wide-band/{k}")
        _merge(streams, _streams(f"wide{k}", pair,
                                 _walk(pair, WIDE_EVENTS, ch, rng), ch, rng))
    cli = []
    for k in _shuffled(range(WIDE_CLI_SESSIONS), seed):
        rng = random.Random(f"wide-band/cli{k}")
        cli.append(_generated_cli(f"wide{k}", pair, "monitor", ch,
                                  _walk(pair, WIDE_CLI_EVENTS, ch, rng), rng))
    return Workload("wide-band", _engines_of(streams), streams, cli,
                    seeded_outputs=False)


def liveness_ladder(seed: int) -> Workload:
    """Set-up builds the engines of every ladder entry.  Nonemptiness cost
    is heavy-tailed across automata, so the ladder and its traces are
    fixed, and the run seed only orders them.  Streams and CLI sessions all
    use one mid-ladder entry, so their times form one group, not a mix of
    four whose gaps would make percentiles jump, and a round stays short."""
    ch = LADDER_CHANNEL
    pairs = [_pair(f"ladder{i}", f"ladder_{i}", 10)
             for i in range(1, LADDER_ENTRIES + 1)]
    setup = [(p, m, ch) for p in _shuffled(pairs, seed) for m in MODES]
    top = pairs[LADDER_STREAM_ENTRY - 1]
    streams: dict[str, list[Stream]] = {}
    for k in _shuffled(range(LADDER_SESSIONS), seed):
        rng = random.Random(f"liveness-ladder/{k}")
        _merge(streams, _streams(f"{top.name}.{k}", top,
                                 _walk(top, LADDER_EVENTS, ch, rng), ch, rng))
    cli = []
    for k in _shuffled(range(LADDER_CLI_SESSIONS), seed):
        rng = random.Random(f"liveness-ladder/cli{k}")
        cli.append(_generated_cli(f"{top.name}.{k}", top, "test", ch,
                                  _walk(top, LADDER_CLI_EVENTS, ch, rng),
                                  rng))
    return Workload("liveness-ladder", setup, streams, cli,
                    seeded_outputs=False)


def cli_sessions(seed: int) -> Workload:
    """The two shipped gear test sessions, each refuted at observation 22.
    The seed only orders the sessions."""
    rng = random.Random(seed)
    ch = GEAR_CHANNEL
    pair = _pair("gear", "gear", 1)
    names = sorted(FIXTURE_TEST)
    rng.shuffle(names)
    streams: dict[str, list[Stream]] = {m: [] for m in MODES}
    cli = []
    for name in names:
        path = INPUTS / f"gear_{name}_trace.txt"
        events = [(parts[1], int(parts[0][1:])) for parts in (
            line.split("#", 1)[0].split()
            for line in path.read_text().splitlines()) if parts]
        fch = Channel(ch.monitor, ch.monitor_truth, *FIXTURE_TEST[name],
                      test_truth=ch.test_truth)
        for m in MODES:
            streams[m].append(
                Stream(f"{m}/{name}", pair, m, fch, events, None))
        cli.append(CliSession(
            f"cli/{name}", cli_argv(pair, "test", fch) + ["--trace", str(path)],
            None, expect_exit=1, expect_rows=22))
    return Workload("cli-sessions", _engines_of(streams), streams, cli,
                    seeded_outputs=False)


WORKLOADS = {
    "gear-steady": gear_steady,
    "wide-band": wide_band,
    "liveness-ladder": liveness_ladder,
    "cli-sessions": cli_sessions,
}
