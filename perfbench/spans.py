"""In-memory span recorder for the traced benchmark run.

The recorder wraps delaymon's public callables at the names the engines and
the CLI look them up by (``delaymon.monitor.post``, not only
``delaymon.automata.post``), so every call into a layer opens a span.  Spans
live in flat arrays until the run ends; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute path, span name).  A callable that several engines
# import is wrapped in each of them.
SPAN_TARGETS = [
    ("delaymon.monitor", "Monitor.__init__", "monitor.construct"),
    ("delaymon.monitor", "Monitor.observe", "monitor.observe"),
    ("delaymon.monitor", "Monitor.latency_report", "monitor.latency_report"),
    ("delaymon.tester", "Tester.__init__", "tester.construct"),
    ("delaymon.tester", "Tester.observe_io", "tester.observe_io"),
    ("delaymon.tester", "Tester.latency_report", "tester.latency_report"),
    ("delaymon.monitor", "post", "automata.post"),
    ("delaymon.tester", "post", "automata.post"),
    ("delaymon.monitor", "intersects_nonempty", "liveness.intersects_nonempty"),
    ("delaymon.tester", "intersects_nonempty", "liveness.intersects_nonempty"),
    ("delaymon.monitor", "nonempty_states", "liveness.nonempty_states"),
    ("delaymon.tester", "nonempty_states", "liveness.nonempty_states"),
    ("delaymon.liveness", "included_in_union", "liveness.included_in_union"),
    ("delaymon.dbm", "DBM.subtract", "dbm.subtract"),
    ("delaymon.cli", "main", "cli.main"),
    ("delaymon.cli", "build_parser", "cli.parse"),
    ("delaymon.cli", "parse_tba", "cli.parse"),
    ("delaymon.cli", "parse_scaled", "cli.parse"),
    ("delaymon.cli", "monitor_block", "cli.render"),
    ("delaymon.cli", "tester_block", "cli.render"),
    ("delaymon.cli", "csv_row", "cli.render"),
]
PRUNE_TARGETS = [
    ("delaymon.monitor", "prune_included"),
    ("delaymon.tester", "prune_included"),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Recorder:
    """Records spans and counts, tagged with the benchmark phase that was
    current when they opened."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.phase = -1
        self.name = array("i")
        self.span_phase = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()    # (phase, key) -> count
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def set_phase(self, phase: str) -> None:
        self.phases.append(phase)
        self.phase = len(self.phases) - 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.phases[self.phase], key] += n

    # -- wrapping -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.span_phase.append(self.phase)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, fn, name: str, after=None):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; record the ones this version lacks."""
        from delaymon.dbm import DBM

        for module, path, name in SPAN_TARGETS:
            try:
                owner, attr = _resolve(module, path)
                fn = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            after = None
            if name == "liveness.nonempty_states":
                def after(nm):
                    self.count("nonempty_zones",
                               sum(len(zs) for zs in nm.zones.values()))
            self._patch(owner, attr, self.wrap_span(fn, name, after=after))

        for module, attr in PRUNE_TARGETS:
            owner = importlib.import_module(module)
            if attr not in owner.__dict__:
                self.missing.append(f"{module}.{attr}")
                continue
            prune = owner.__dict__[attr]

            def counted_prune(states, _prune=prune):
                states = list(states)
                self.count("prune_in", len(states))
                kept = _prune(states)
                self.count("prune_out", len(kept))
                return kept
            self._patch(owner, attr,
                        self.wrap_span(counted_prune, "automata.prune"))

        init = DBM.__dict__["__init__"]

        def counted_init(dbm, dim, m, _closed=False):
            self.count("dbm_allocs")
            if not _closed:
                self.count("dbm_closures")
            init(dbm, dim, m, _closed)
        self._patch(DBM, "__init__",
                    self.wrap_span(counted_init, "dbm.construct"))

        includes = DBM.__dict__["includes"]

        @functools.wraps(includes)
        def counted_includes(dbm, other):
            self.count("dbm_includes")
            return includes(dbm, other)
        self._patch(DBM, "includes", counted_includes)
        if self.missing:
            print("trace: not wrapped: " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], tuple[int, int, int]]:
        """(phase, span name) -> (calls, inclusive ns, self ns)."""
        n = len(self.name)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[tuple[str, str], list[int]] = {}
        for i in range(n):
            key = (self.phases[self.span_phase[i]], self.names[self.name[i]])
            dur = self.end[i] - self.start[i]
            acc = out.setdefault(key, [0, 0, 0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path: Path) -> None:
        """Write every span as ``id parent phase name start_ns end_ns``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(len(self.name)):
                f.write(f"{i}\t{self.parent[i]}\t"
                        f"{self.phases[self.span_phase[i]]}\t"
                        f"{self.names[self.name[i]]}\t"
                        f"{self.start[i]}\t{self.end[i]}\n")
