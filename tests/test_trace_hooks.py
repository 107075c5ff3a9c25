"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps delaymon's
callables by name.  A rename or a move in ``src/`` must not crash it, nor
silently leave a counted callable unwrapped."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from delaymon.dbm import DBM

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
