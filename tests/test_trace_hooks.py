"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps delaymon's
callables by name.  A rename or a move in ``src/`` must not crash it,
silently leave a counted callable unwrapped, or call past a wrapped one."""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import delaymon.cli
from delaymon.dbm import DBM

import test_acceptance
import test_cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets this version does not define: the engines reach post,
# intersects_nonempty and nonempty_states only through delaymon.monitor,
# and pruning is automata.prune_subsumed.
KNOWN_MISSING = {
    "delaymon.tester.post",
    "delaymon.tester.intersects_nonempty",
    "delaymon.tester.nonempty_states",
    "delaymon.monitor.prune_included",
    "delaymon.tester.prune_included",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls():
    init, includes = DBM.__dict__["__init__"], DBM.__dict__["includes"]
    recorder = load_spans().Recorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    assert set(recorder.missing) <= KNOWN_MISSING
    assert DBM.__dict__["__init__"] is init
    assert DBM.__dict__["includes"] is includes


def test_recorder_counts_the_pinned_allocations():
    """The traced run reads ``dbm.allocs_per_event`` off the recorder's
    count at ``DBM.__init__``.  Over the gear session that pins the zones
    built per observe, it must read each mode's pinned figure, so a zone
    built past ``DBM.__init__`` would show here as a shortfall."""
    gear = test_acceptance.TestNoClosurePerEvent()
    runs = gear.runs()
    recorder = load_spans().Recorder()
    recorder.install()
    try:
        per_event = []
        for k, (engine, observe, events) in enumerate(runs):
            for sym, tau in events:
                recorder.set_phase(f"observe {k}")
                observe(sym, tau)
                recorder.set_phase("report")
                engine.latency_report()
            per_event.append(
                recorder.counts[f"observe {k}", "dbm_allocs"] / len(events))
    finally:
        recorder.uninstall()
    assert per_event == list(gear.ALLOCS_PER_EVENT)


def test_every_installed_span_opens_in_cli_sessions(tmp_path):
    """Wrapping a name counts nothing unless the program still calls
    through it: an analysis that bypassed ``delaymon.monitor.
    nonempty_states`` would read 0 in every ``setup.liveness`` metric.  A
    monitor-mode and a test-mode CLI session, each with CSV output, must
    open a span for every installed target but ``dbm.subtract``: these
    sessions subtract no zone."""
    trace = tmp_path / "trace.txt"
    trace.write_text("@173 a\n@271 b\n")
    sessions = [
        test_cli.DEADLINE_ARGS + ["--mode", "monitor", "--latency", "0", "100",
                                  "--jitter", "2", "--trace", str(trace)],
        test_cli.GEAR_ARGS + [
            "--trace", str(test_cli.FIXTURES / "gear_narrow_trace.txt")],
    ]
    spans = load_spans()
    recorder = spans.Recorder()
    recorder.install()
    try:
        recorder.set_phase("cli")
        with redirect_stdout(io.StringIO()):
            codes = [
                delaymon.cli.main(argv + ["--csv", str(tmp_path / f"{k}.csv")])
                for k, argv in enumerate(sessions)]
    finally:
        recorder.uninstall()
    assert codes == [1, 1]  # both refuted
    installed = {name for module, path, name in spans.SPAN_TARGETS
                 if f"{module}.{path}" not in recorder.missing}
    opened = {recorder.names[i] for i in recorder.name}
    assert "liveness.nonempty_states" in installed
    assert installed - opened - {"dbm.subtract"} == set()
