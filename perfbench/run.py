"""delaymon benchmark: end-to-end and per-layer figures on four workloads.

    python3 perfbench/run.py --workload gear-steady --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Every run builds the workload's engines (set-up), streams its traces through
the classic, monitor and test engines one event at a time, each followed by
``latency_report()`` as the CLI does, and runs its CLI sessions in-process.
One caller waits for each verdict before sending the next event (a closed
loop with one client).  Every verdict, latency interval and CLI output is
digested and checked against ``reference.json`` and, for generated traces,
against the true channel latencies.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` fixed passes of every phase run
untraced (a warm-up, then a baseline) and then under the span recorder, and
the JSON object holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

# Times are thread CPU time: the benchmark is single-threaded, so it misses
# no work of the program, and it leaves out time the process is descheduled.
TIMER = time.thread_time_ns
MIN_ROUNDS = 3            # set-up passes and CLI sessions per run, at least

# The host's speed drifts by a third within seconds, so a timed run scales
# the set-up and the rest of each round by CAL_REF_NS over the time of a
# fixed calibration kernel measured just before and after them: figures
# read as on a machine where the kernel takes CAL_REF_NS.  README.md
# records the spreads.
CAL_REPS = 200
CAL_REF_NS = 19_000_000


def calibrate() -> int:
    """Time a fixed pure-Python Floyd-Warshall closure over fresh integer
    matrices, the same kind of work as a DBM closure; it uses no delaymon
    code, so a change to the program cannot move it."""
    inf = 2 ** 62
    t0 = TIMER()
    for _ in range(CAL_REPS):
        n = 7
        m = [[(((i * 7 + j * 3) % 11) << 1) | 1 if i != j else 1
              for j in range(n)] for i in range(n)]
        for k in range(n):
            mk = m[k]
            for i in range(n):
                mik = m[i][k]
                if mik == inf:
                    continue
                mi = m[i]
                for j in range(n):
                    b = (((mik >> 1) + (mk[j] >> 1)) << 1) | (mik & mk[j] & 1)
                    if b < mi[j]:
                        mi[j] = b
    return TIMER() - t0


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import delaymon
    except ImportError:
        sys.exit(f"error: delaymon sources not found under {SRC}")
    if Path(delaymon.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported delaymon from {delaymon.__file__}, "
                 f"not from {SRC}")


# -- engines and sessions ----------------------------------------------------


def build_engine(pair, mode, ch):
    from delaymon.monitor import DelayBounds, Monitor
    from delaymon.tester import IODelayBounds, Tester

    if mode == "test":
        return Tester(pair.spec, pair.comp, IODelayBounds(
            DelayBounds(*ch.test_in), DelayBounds(*ch.test_out)))
    bounds = (DelayBounds(0, 0, 0) if mode == "classic"
              else DelayBounds(*ch.monitor))
    return Monitor(pair.spec, pair.comp, bounds)


def engine_key(stream):
    return stream.pair.name, stream.mode, stream.channel


def setup_pass(wl) -> tuple[dict, int]:
    """Construct every engine of the workload's set-up list; return them
    and the time taken."""
    engines = {}
    t0 = TIMER()
    for pair, mode, ch in wl.setup:
        engines[pair.name, mode, ch] = build_engine(pair, mode, ch)
    return engines, TIMER() - t0


REPORT_FIELDS = {
    "monitor": ("positive", "negative", "jitter"),
    "test": ("positive_input", "positive_output", "positive_combined",
             "negative_input", "negative_output", "negative_combined",
             "input_jitter", "output_jitter"),
}
TRUTH_FIELDS = {
    "monitor": ("positive",),
    "test": ("positive_input", "positive_output", "positive_combined"),
}


def _canon(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "{" + ",".join(
        f"{'(' if iv.lo_strict else '['}{iv.lo},{iv.hi}"
        f"{')' if iv.hi_strict else ']'}" for iv in value) + "}"


def stream_session(template, stream, on_event=None):
    """Replay one stream on a fresh copy of its engine.  Returns the
    per-event times, the digest of every verdict and latency interval, and
    an error message or None."""
    kind = "test" if stream.mode == "test" else "monitor"
    engine = copy.deepcopy(template)
    observe = engine.observe_io if kind == "test" else engine.observe
    digest = hashlib.blake2b(digest_size=8)
    times: list[int] = []
    error = None
    try:
        for sym, tau in stream.events:
            t0 = TIMER()
            verdict = observe(sym, tau)
            report = engine.latency_report()
            times.append(TIMER() - t0)
            digest.update("|".join(
                [verdict.value] + [_canon(getattr(report, f))
                                   for f in REPORT_FIELDS[kind]]
            ).encode() + b"\n")
            if on_event is not None:
                on_event(engine)
            if stream.truth is not None and error is None:
                error = _check_truth(verdict, report, kind, stream.truth,
                                     len(times))
            if verdict.conclusive:
                break
    except Exception as e:  # any engine error fails this session
        error = f"{type(e).__name__}: {e}"
    return times, digest.hexdigest(), error


def _check_truth(verdict, report, kind, truth, k) -> str | None:
    """A generated trace satisfies its property under the true latencies,
    so no verdict is conclusive and each true latency stays consistent."""
    if verdict.value != "INCONCLUSIVE":
        return f"event {k}: verdict {verdict.value} on a satisfying trace"
    for field, value in zip(TRUTH_FIELDS[kind], truth):
        if not any(iv.contains(value) for iv in getattr(report, field)):
            return f"event {k}: true latency {value} left {field}"
    return None


def cli_session(sess, work: Path):
    """One in-process ``delaymon.cli.main`` run.  Returns its time, the
    digest of stdout, CSV bytes and exit code, and an error or None."""
    import delaymon.cli

    csv_path = work / "bounds.csv"
    argv = list(sess.argv)
    if sess.trace_text is not None:
        trace = work / f"{sess.name.replace('/', '_')}.txt"
        if not trace.exists():
            trace.write_text(sess.trace_text)
        argv += ["--trace", str(trace)]
    argv += ["--csv", str(csv_path)]
    out, err = io.StringIO(), io.StringIO()
    t0 = TIMER()
    with redirect_stdout(out), redirect_stderr(err):
        code = delaymon.cli.main(argv)
    elapsed = TIMER() - t0
    csv = csv_path.read_bytes() if csv_path.exists() else b""
    csv_path.unlink(missing_ok=True)
    digest = hashlib.blake2b(
        out.getvalue().encode() + b"\0" + csv + b"\0" + str(code).encode(),
        digest_size=8).hexdigest()
    rows = len(csv.splitlines()) - 1
    error = None
    if code != sess.expect_exit or rows != sess.expect_rows:
        error = (f"exit {code} with {rows} CSV rows, expected exit "
                 f"{sess.expect_exit} with {sess.expect_rows}: "
                 f"{err.getvalue().strip()}")
    return elapsed, digest, error


# -- checking ----------------------------------------------------------------


class Checker:
    """Counts sessions and failures.  A session fails when it raised, broke
    a semantic check, differs from an earlier replay in this run, or differs
    from the recorded reference digest."""

    def __init__(self, workload: str, seed: int, seeded: bool):
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = refs.get(workload, {}).get(
            str(seed) if seeded else "any")
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, name: str, digest: str, error: str | None) -> None:
        self.attempted += 1
        first = self.seen.setdefault(name, digest)
        if error is None and first != digest:
            error = "differs from its first replay"
        if (error is None and self.reference is not None
                and self.reference.get(name) != digest):
            error = f"digest {digest} differs from reference"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {error}")


# -- timed run (end-to-end metrics) ------------------------------------------


def _quantile(values: list[int], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, work: Path, seconds: int, checker: Checker) -> dict:
    """Measure in rounds.  Each round runs one set-up pass, the next stream
    of every mode and the next CLI session, so all metrics sample the same
    stretch of time and a burst of load from elsewhere shifts none of them
    alone.  Rounds stop at the end of a cycle through every stream and
    session, the one nearest to ``seconds``."""
    from workloads import MODES

    pools = [*(wl.streams[m] for m in MODES), wl.cli]
    cycle = math.lcm(*(len(p) for p in pools))
    setup_ns: list[float] = []
    times = {m: array("d") for m in MODES}     # compact: RSS is a metric
    sessions: list[float] = []
    cal_before = calibrate()
    start = time.monotonic()
    while True:
        r = len(setup_ns)
        engines, setup = setup_pass(wl)
        cal_mid = calibrate()
        setup_ns.append(setup * 2 * CAL_REF_NS / (cal_before + cal_mid))
        streams = {}
        for mode in MODES:
            stream = wl.streams[mode][r % len(wl.streams[mode])]
            streams[mode], digest, error = stream_session(
                engines[engine_key(stream)], stream)
            checker.check(stream.name, digest, error)
        sess = wl.cli[r % len(wl.cli)]
        session, digest, error = cli_session(sess, work)
        checker.check(sess.name, digest, error)

        cal_before = calibrate()
        scale = 2 * CAL_REF_NS / (cal_mid + cal_before)
        for mode in MODES:
            times[mode].extend(t * scale for t in streams[mode])
        sessions.append(session * scale)
        done = r + 1
        if done % cycle == 0 and done >= MIN_ROUNDS:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / done * cycle / 2 >= seconds:
                break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": statistics.median(setup_ns) / 1e9}
    for mode in MODES:
        metrics[f"{mode}.events_per_s"] = (
            len(times[mode]) / (sum(times[mode]) / 1e9))
        metrics[f"{mode}.event_us_p50"] = statistics.median(times[mode]) / 1e3
        metrics[f"{mode}.event_us_p95"] = _quantile(times[mode], 95) / 1e3
    metrics["session_ms_p50"] = statistics.median(sessions) / 1e6
    metrics["session_ms_p90"] = _quantile(sessions, 90) / 1e6
    metrics["peak_rss_mb"] = rss_mb
    return metrics


# -- traced run (per-layer metrics) ------------------------------------------


def one_pass(wl, work: Path, checker: Checker, rec=None) -> dict:
    """Run every phase once: set-up, each mode's streams, the CLI sessions.
    Returns time per phase and, when tracing, reach-set statistics."""
    from workloads import MODES

    out: dict = {}
    if rec is not None:
        rec.set_phase("setup")
    engines, out["setup_ns"] = setup_pass(wl)
    for mode in MODES:
        if rec is not None:
            rec.set_phase(mode)
        reach = {"peak": 0, "states": 0, "dead": 0}

        def on_event(engine):
            total = dead = 0
            for side in (engine.pos, engine.neg):
                live = side.nonempty.zones
                total += len(side.reach)
                dead += sum(1 for s in side.reach if not live.get(s.location))
            reach["peak"] = max(reach["peak"], total)
            reach["states"] += total
            reach["dead"] += dead

        times: list[int] = []
        for stream in wl.streams[mode]:
            ts, digest, error = stream_session(
                engines[engine_key(stream)], stream,
                on_event if rec is not None else None)
            times += ts
            checker.check(stream.name, digest, error)
        out[mode] = (len(times), sum(times), reach)
    if rec is not None:
        rec.set_phase("cli")
    total = 0
    for sess in wl.cli:
        ns, digest, error = cli_session(sess, work)
        total += ns
        checker.check(sess.name, digest, error)
    out["cli"] = (len(wl.cli), total)
    return out


def traced_run(wl, work: Path, checker: Checker, seed: int) -> dict:
    from spans import Recorder
    from workloads import MODES

    one_pass(wl, work, checker)              # warm caches and allocator
    base = one_pass(wl, work, checker)
    rec = Recorder()
    rec.install()
    try:
        traced = one_pass(wl, work, checker, rec)
    finally:
        rec.uninstall()
    tot = rec.totals()
    counts = rec.counts

    def incl(phase, name):
        return tot.get((phase, name), (0, 0, 0))[1] / 1e9

    def self_s(phase, name):
        return tot.get((phase, name), (0, 0, 0))[2] / 1e9

    def calls(phase, name):
        return tot.get((phase, name), (0, 0, 0))[0]

    m: dict[str, float] = {}
    for mode in MODES:
        events, _, reach = traced[mode]
        ev = max(events, 1)
        engine = "tester" if mode == "test" else "monitor"
        observe = "observe_io" if mode == "test" else "observe"
        busy = incl(mode, f"{engine}.{observe}") + incl(
            mode, f"{engine}.latency_report")
        dbm_self = self_s(mode, "dbm.construct") + self_s(mode, "dbm.subtract")
        m[f"{mode}.dbm.closures_per_event"] = (
            counts[mode, "dbm_closures"] / ev)
        m[f"{mode}.dbm.allocs_per_event"] = counts[mode, "dbm_allocs"] / ev
        m[f"{mode}.dbm.includes_calls_per_event"] = (
            counts[mode, "dbm_includes"] / ev)
        m[f"{mode}.dbm.construct_self_s"] = self_s(mode, "dbm.construct")
        m[f"{mode}.dbm.self_share"] = dbm_self / busy if busy else 0.0
        m[f"{mode}.automata.post_calls_per_event"] = (
            calls(mode, "automata.post") / ev)
        m[f"{mode}.automata.post_self_s"] = self_s(mode, "automata.post")
        m[f"{mode}.automata.prune_self_s"] = self_s(mode, "automata.prune")
        m[f"{mode}.automata.prune_keep_ratio"] = (
            counts[mode, "prune_out"] / max(counts[mode, "prune_in"], 1))
        m[f"{mode}.automata.reach_states_peak"] = reach["peak"]
        m[f"{mode}.engine.dead_state_ratio"] = (
            reach["dead"] / max(reach["states"], 1))
        m[f"{mode}.liveness.intersects_nonempty_self_s"] = self_s(
            mode, "liveness.intersects_nonempty")
        m[f"{mode}.{engine}.{observe}_self_s"] = self_s(
            mode, f"{engine}.{observe}")
        m[f"{mode}.{engine}.latency_report_s"] = incl(
            mode, f"{engine}.latency_report")
        m[f"{mode}.trace_overhead_us_per_event"] = (
            (traced[mode][1] - base[mode][1]) / ev / 1e3)

    m["setup.dbm.closures"] = counts["setup", "dbm_closures"]
    m["setup.dbm.allocs"] = counts["setup", "dbm_allocs"]
    m["setup.dbm.subtract_calls"] = calls("setup", "dbm.subtract")
    m["setup.dbm.construct_self_s"] = self_s("setup", "dbm.construct")
    m["setup.liveness.nonempty_states_s"] = incl(
        "setup", "liveness.nonempty_states")
    m["setup.liveness.nonempty_zones"] = counts["setup", "nonempty_zones"]
    m["setup.liveness.included_in_union_calls"] = calls(
        "setup", "liveness.included_in_union")
    m["setup.trace_overhead_s"] = (
        (traced["setup_ns"] - base["setup_ns"]) / 1e9)

    sessions, cli_ns = traced["cli"]
    cli_events = max(calls("cli", "monitor.observe")
                     + calls("cli", "tester.observe_io"), 1)
    reports = (calls("cli", "monitor.latency_report")
               + calls("cli", "tester.latency_report"))
    m["cli.parse_s"] = incl("cli", "cli.parse")
    m["cli.render_s"] = self_s("cli", "cli.render")
    m["cli.latency_reports_per_event"] = reports / cli_events
    m["cli.liveness.nonempty_states_s"] = incl(
        "cli", "liveness.nonempty_states")
    m["cli.dbm.closures_per_event"] = counts["cli", "dbm_closures"] / cli_events
    m["cli.trace_overhead_ms_per_session"] = (
        (cli_ns - base["cli"][1]) / sessions / 1e6)

    rec.dump(OUT_DIR / f"spans-{wl.name}-{seed}.tsv.gz")
    return m


# -- entry point --------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    checker = Checker(wl.name, args.seed, wl.seeded_outputs)
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-",
                                     dir=ROOT) as tmp:
        work = Path(tmp)
        if args.trace:
            metrics = traced_run(wl, work, checker, args.seed)
        else:
            metrics = timed_run(wl, work, args.seconds, checker)
    units = declared_metrics(bool(args.trace))
    if set(units) != set(metrics):
        sys.exit("error: measured metrics do not match BENCHMARK.json: "
                 f"{sorted(set(units) ^ set(metrics))}")
    for err in checker.errors:
        print(f"mismatch: {err}", file=sys.stderr)
    for name in units:
        print(f"{wl.name:16} {name:44} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so each reports its own
    peak memory, and sum the checks."""
    from workloads import WORKLOADS

    attempted = failed = 0
    merged = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v
                       for k, v in result["metrics"].items()})
    print(f"output digests: {failed} mismatches in {attempted} sessions")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv: list[str] | None = None) -> int:
    # delaymon iterates over sets of names, so the order of its work, and
    # the traced counts, follow the string hash seed: fix it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
