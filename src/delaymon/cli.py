"""Command-line front end.

Reads a property/complement automaton pair and a trace of ``@<time> <symbol>``
lines, streams the events through the requested engine (``classic`` for
delay-free monitoring, ``monitor`` for one delayed output channel, ``test``
for delayed input and output channels), and prints a verdict block with the
consistent-latency intervals after every observation.

``--scale`` must be a power of ten.  Times on the wire are decimals with at
most ``log10(scale)`` fractional digits; internally everything is an integer
multiple of ``1/scale``, parsed and printed back exactly by
:func:`delaymon.dbm.parse_scaled` and :func:`delaymon.dbm.format_scaled`.
Exit codes: 0 the property holds, 1 it is violated, 2 inconclusive at end of
stream, 3 any error.

Extras: ``--csv`` writes one row of latency-bound columns per observation as
it is made (strict endpoints carry an ``s`` suffix, interval unions are
joined with ``;``), ``--inject`` replays the trace as a ground truth through
synthetic channels with assigned latencies and seeded jitter, and
``--benchmark`` reports response times and reach-set sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
import time as time_mod
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .automata import TBA, TBAError, parse_tba
from .dbm import INF, ScaleError, _scale_digits, format_scaled, parse_scaled
from .liveness import LivenessError
from .monitor import DelayBounds, Monitor, MonitorError, Verdict
from .tester import IODelayBounds, IOLatencyReport, Tester


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 2 is taken by "inconclusive"
        raise CliError(message)


@dataclass(frozen=True)
class TraceEvent:
    timestamp: int  # scaled
    symbol: str


# -- report formatting -------------------------------------------------------

# An interval as text: (lo, lo_strict, hi, hi_strict), endpoints as decimals
IntervalText = tuple[str, bool, str, bool]


def fmt_union(ivs: tuple[IntervalText, ...]) -> str:
    return "{" + ",".join(
        f"{'(' if lo_strict else '['}{lo},{hi}{')' if hi_strict else ']'}"
        for lo, lo_strict, hi, hi_strict in ivs) + "}"


_last_texts: tuple = (None, None, None, None)  # report, verdict, scale, texts


def _report_texts(report: tuple, verdict: Verdict, scale: int
                  ) -> tuple[str, str]:
    """The verdict block and the CSV cells (the row after its index; a
    monitor's fill only the output columns) of a latency report.  One slot,
    keyed on the verdict, the scale and the report object, which it holds
    so that no other object takes its identity, serves the block and the
    row of an observation and every later one that moves no bound."""
    global _last_texts
    last, last_verdict, last_scale, texts = _last_texts
    if last is report and last_verdict is verdict and last_scale == scale:
        return texts
    fields = [
        format_scaled(field, scale) if isinstance(field, int) else tuple(
            (format_scaled(iv.lo, scale), iv.lo_strict,
             format_scaled(iv.hi, scale), iv.hi_strict) for iv in field)
        for field in report]
    if isinstance(report, IOLatencyReport):
        pin, pout, psum, nin, nout, nsum, in_jitter, out_jitter = fields
        block = ("Positive:\n"
                 f"Consistent input latencies: {fmt_union(pin)}\n"
                 f"Consistent output latencies: {fmt_union(pout)}\n"
                 f"Consistent combined latencies: {fmt_union(psum)}\n"
                 "Negative:\n"
                 f"Consistent input latencies: {fmt_union(nin)}\n"
                 f"Consistent output latencies: {fmt_union(nout)}\n"
                 f"Consistent combined latencies: {fmt_union(nsum)}\n"
                 f"Input jitter bound: {in_jitter}\n"
                 f"Output jitter bound: {out_jitter}\n")
        cols = fields[:6]
    else:
        positive, negative, jitter = fields
        block = ("Positive:\n"
                 f"Consistent latencies: {fmt_union(positive)}\n"
                 f"Jitter bound: {jitter}\n"
                 "Negative:\n"
                 f"Consistent latencies: {fmt_union(negative)}\n"
                 f"Jitter bound: {jitter}\n")
        cols = ((), positive, (), (), negative, ())
    cells = ",".join(  # per union its low ends, then its high ends
        ";".join(iv[k] + "s" if iv[k + 1] else iv[k] for iv in ivs)
        for ivs in cols for k in (0, 2))
    texts = f"Verdict: {verdict.value}\n{block}", cells
    _last_texts = (report, verdict, scale, texts)
    return texts


# -- trace handling ----------------------------------------------------------


def read_trace(stream: Iterable[str], scale: int) -> Iterator[TraceEvent]:
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[0].startswith("@"):
            raise CliError(
                f"trace line {lineno}: expected '@<time> <symbol>', "
                f"got {line!r}")
        yield TraceEvent(
            parse_scaled(parts[0][1:], scale, f"trace line {lineno}"),
            parts[1])


def inject_delay(events: Iterable[TraceEvent], assigned: dict[str, int],
                 bounds: dict[str, DelayBounds], inputs: frozenset[str],
                 seed: int, scale: int) -> list[TraceEvent]:
    """Turn a ground-truth trace into an observed one by shifting the
    stimuli (``inputs``: the test-mode inputs, empty in the other modes)
    backward and every other event forward by the assigned latency plus
    seeded jitter.  Rejects schedules where the shifts would reorder the
    channel; an error quotes the time as the trace writes it."""
    rng = random.Random(seed)
    out: list[TraceEvent] = []
    last = 0
    for ev in events:
        if ev.symbol in inputs:
            shift = assigned["din"] + rng.randint(0, bounds["din"].jitter)
            stamp = ev.timestamp - shift
            if stamp < 0:
                raise CliError(
                    f"injected delays would send the stimulus at ground-truth "
                    f"time {format_scaled(ev.timestamp, scale)} before time 0")
        else:
            stamp = (ev.timestamp + assigned["dout"]
                     + rng.randint(0, bounds["dout"].jitter))
        if stamp < last:
            raise CliError(
                f"injected delays would reorder the observation at "
                f"ground-truth time {format_scaled(ev.timestamp, scale)}")
        last = stamp
        out.append(TraceEvent(stamp, ev.symbol))
    return out


# -- output blocks -----------------------------------------------------------


def monitor_block(m: Monitor, verdict: Verdict, scale: int) -> str:
    """The verdict block of a monitor's current report."""
    return _report_texts(m.latency_report(), verdict, scale)[0]


def tester_block(t: Tester, verdict: Verdict, scale: int) -> str:
    """The verdict block of a tester's current report."""
    return _report_texts(t.latency_report(), verdict, scale)[0]


CSV_HEADER = ("obs,pos_in_low,pos_in_high,pos_out_low,pos_out_high,"
              "pos_sum_low,pos_sum_high,neg_in_low,neg_in_high,"
              "neg_out_low,neg_out_high,neg_sum_low,neg_sum_high")


def csv_row(engine, obs_index: int, scale: int) -> str:
    """The CSV row of an engine's current report."""
    cells = _report_texts(engine.latency_report(), engine.verdict, scale)[1]
    return f"{obs_index},{cells}"


# -- argument handling -------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="delaymon", description=__doc__.split("\n\n")[0])
    p.add_argument("--spec", required=True, help="property automaton file")
    p.add_argument("--complement", required=True,
                   help="complement automaton file")
    p.add_argument("--mode", choices=["classic", "monitor", "test"],
                   default="monitor")
    p.add_argument("--scale", type=int, default=10,
                   help="integer time units per 1.0 of wire time; a power "
                   "of ten")
    p.add_argument("--latency", nargs=2, metavar=("L", "U"))
    p.add_argument("--jitter", metavar="E")
    p.add_argument("--in-latency", nargs=2, metavar=("L", "U"))
    p.add_argument("--in-jitter", metavar="E")
    p.add_argument("--out-latency", nargs=2, metavar=("L", "U"))
    p.add_argument("--out-jitter", metavar="E")
    p.add_argument("--trace", default="-",
                   help="trace file, or - for standard input")
    p.add_argument("--csv", help="write per-observation latency bounds here")
    p.add_argument("--benchmark", action="store_true")
    p.add_argument("--keep-going", action="store_true",
                   help="do not stop at a conclusive verdict")
    p.add_argument("--inject", metavar="din:D,dout:D,seed:S",
                   help="treat the trace as ground truth and delay it")
    return p


def _bounds_pair(lat: list | None, jit: str | None, scale: int) -> DelayBounds:
    lo, hi = 0, 0
    if lat:
        lo = parse_scaled(lat[0], scale, "latency")
        hi = INF if lat[1] == "inf" else parse_scaled(lat[1], scale, "latency")
    eps = parse_scaled(jit, scale, "jitter") if jit else 0
    try:
        return DelayBounds(lo, hi, eps)
    except ValueError as e:
        raise CliError(str(e)) from None


def _check_mode_flags(args) -> None:
    single = args.latency or args.jitter
    dual = (args.in_latency or args.in_jitter or args.out_latency
            or args.out_jitter)
    if args.mode == "classic" and (single or dual):
        raise CliError("classic mode takes no latency/jitter flags")
    if args.mode == "monitor" and dual:
        raise CliError("monitor mode uses --latency/--jitter only")
    if args.mode == "test" and single:
        raise CliError("test mode uses the --in-*/--out-* flags")


def _parse_inject(text: str, scale: int) -> tuple[dict[str, int], int]:
    """The latencies and the seed (0 if not given) of an ``--inject``
    schedule; a key given twice is an error."""
    vals: dict[str, int] = {}
    for part in text.split(","):
        key, _, val = part.partition(":")
        key, val = key.strip(), val.strip()
        if key in vals:
            raise CliError(f"--inject: {key} given twice")
        if key == "seed":
            digits = val[1:] if val.startswith(("+", "-")) else val
            if not (digits.isascii() and digits.isdigit()):
                raise CliError(f"--inject: bad seed {val!r}")
            vals[key] = int(val)
        elif key in ("din", "dout"):
            vals[key] = parse_scaled(val, scale, f"--inject {key}")
        else:
            raise CliError(f"--inject: unknown key {key!r}")
    seed = vals.pop("seed", 0)
    return vals, seed


def _cannot(verb: str, path: str, e: OSError | UnicodeDecodeError
            ) -> CliError:
    reason = e.strerror if isinstance(e, OSError) else e
    return CliError(f"cannot {verb} {path}: {reason}")


def _open_trace(path: str) -> contextlib.AbstractContextManager[TextIO]:
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    try:
        return open(path, encoding="utf-8")
    except OSError as e:
        raise _cannot("read", path, e) from None


def _lines(stream: TextIO, path: str) -> Iterator[str]:
    """The lines of the trace; a read failure or a byte that is not UTF-8
    ends in an error that names the trace."""
    try:
        for line in stream:  # not ``yield from``: closing this closes stdin
            yield line
    except (OSError, UnicodeDecodeError) as e:
        raise _cannot("read", path, e) from None


def _load_tba(path: str, scale: int) -> TBA:
    try:
        with open(path, encoding="utf-8") as f:
            return parse_tba(f.read(), scale)
    except (OSError, UnicodeDecodeError) as e:
        raise _cannot("read", path, e) from None


class _CsvFile:
    """The ``--csv`` file, written row by row: the header on opening, each
    row as it is made.  Rows written before an error stay in the file."""

    def __init__(self, path: str):
        self.path = path
        self.file = self._do(open, path, "w", encoding="utf-8")
        self.write(CSV_HEADER)

    def _do(self, action, *args, **kwargs):
        try:
            return action(*args, **kwargs)
        except OSError as e:
            raise _cannot("write", self.path, e) from None

    def write(self, row: str) -> None:
        self._do(self.file.write, row + "\n")

    def __enter__(self) -> "_CsvFile":
        return self

    def __exit__(self, *exc) -> None:
        self._do(self.file.close)


# -- main loop ---------------------------------------------------------------


def run_stream(args, out: TextIO) -> int:
    scale = args.scale
    try:
        _scale_digits(scale)
    except ValueError:
        raise CliError(
            "--scale must be a power of ten: 1, 10, 100, ...") from None
    _check_mode_flags(args)
    spec = _load_tba(args.spec, scale)
    comp = _load_tba(args.complement, scale)

    if args.mode == "test":
        io_bounds = IODelayBounds(
            _bounds_pair(args.in_latency, args.in_jitter, scale),
            _bounds_pair(args.out_latency, args.out_jitter, scale))
        engine = Tester(spec, comp, io_bounds)
        observe = engine.observe_io
        block = tester_block
        inject_bounds = {"din": io_bounds.input, "dout": io_bounds.output}
        stimuli = spec.inputs
    else:
        bounds = (DelayBounds(0, 0, 0) if args.mode == "classic"
                  else _bounds_pair(args.latency, args.jitter, scale))
        engine = Monitor(spec, comp, bounds)
        observe = engine.observe
        block = monitor_block
        # Every event goes through the one output channel.
        inject_bounds = {"dout": bounds}
        stimuli = frozenset()

    with contextlib.ExitStack() as files:
        stream = files.enter_context(_open_trace(args.trace))
        events: Iterable[TraceEvent] = read_trace(
            _lines(stream, "standard input" if args.trace == "-"
                   else args.trace), scale)

        if args.inject:
            assigned, seed = _parse_inject(args.inject, scale)
            if "din" not in inject_bounds and "din" in assigned:
                raise CliError(
                    f"--inject: din applies to test mode only; {args.mode} "
                    f"mode delays every event by dout")
            for key, b in inject_bounds.items():
                if key not in assigned:
                    raise CliError(f"--inject: missing {key}")
                if not (b.latency_low <= assigned[key]
                        and (b.latency_high == INF
                             or assigned[key] <= b.latency_high)):
                    raise CliError(
                        f"--inject: {key} outside the declared bounds")
            events = inject_delay(list(events), assigned, inject_bounds,
                                  stimuli, seed, scale)

        inputs = [args.spec, args.complement] + (
            [args.trace] if args.trace != "-" else [])
        if args.csv and os.path.exists(args.csv) and any(
                os.path.samefile(args.csv, p) for p in inputs):
            raise CliError(f"--csv {args.csv} is also an input file")
        csv = files.enter_context(_CsvFile(args.csv)) if args.csv else None
        max_ns = total_ns = max_states = count = 0
        verdict = engine.verdict
        for ev in events:
            out.write(
                f"Input: @{format_scaled(ev.timestamp, scale)} {ev.symbol}\n")
            out.write("\n")
            start = time_mod.perf_counter_ns()
            try:
                verdict = observe(ev.symbol, ev.timestamp)
            except MonitorError as e:  # quote times as the trace does
                if not e.times:
                    raise
                raise CliError(e.template.format(
                    *(format_scaled(t, scale) for t in e.times))) from None
            took = time_mod.perf_counter_ns() - start
            max_ns = max(max_ns, took)
            total_ns += took
            count += 1
            max_states = max(
                max_states, len(engine.pos.reach) + len(engine.neg.reach))
            out.write(block(engine, verdict, scale) + "\n")
            if csv is not None:
                csv.write(csv_row(engine, count, scale))
            if verdict.conclusive and not args.keep_going:
                break

    if count == 0:
        out.write(block(engine, verdict, scale))

    if args.benchmark and count:
        out.write(f"Events: {count}\n")
        out.write(f"Max response time (us): {max_ns / 1000:.1f}\n")
        out.write("Mean response time (us): "
                  f"{total_ns / count / 1000:.1f}\n")
        out.write(f"Max symbolic states: {max_states}\n")

    return {Verdict.TRUE: 0, Verdict.FALSE: 1,
            Verdict.INCONCLUSIVE: 2}[verdict]


def _discard_stdout() -> None:
    """Point a closed standard output at the null device, so that the
    interpreter's flush at exit does not fail on it again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = run_stream(args, sys.stdout)
        sys.stdout.flush()
        return code
    except (CliError, TBAError, MonitorError, ScaleError, LivenessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        _discard_stdout()
        print("error: standard output closed before the run ended",
              file=sys.stderr)
        return 3
    except OSError as e:  # every other file reports as a CliError
        _discard_stdout()
        print(f"error: cannot write standard output: {e.strerror}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
