"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps delaymon's
callables by name.  A rename or a move in ``src/`` must not crash it, nor
silently leave a counted callable unwrapped."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from delaymon.dbm import DBM

import test_acceptance

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
