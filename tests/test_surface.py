"""The shape of ``src/``: every function, method and class has a caller
outside the tests, every module-level import is used, and the value types
the engines build per event keep their contract.

The caller scan is a floor, not a call graph: a name counts as called when
code in ``src/`` or ``perfbench/`` reads it, as an ``ast.Name`` or an
``ast.Attribute``, or when ``perfbench/spans.py`` wraps it by its dotted
path.  A mention in a docstring or a comment does not count.  So the scan
catches code that only tests reach, but not every dead name: a function
that only calls itself passes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from delaymon.automata import SymbolicState
from delaymon.dbm import DBM, Interval
from delaymon.monitor import LatencyReport
from delaymon.tester import IOLatencyReport

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "delaymon").glob("*.py"))
SCANNED = SRC + sorted((ROOT / "perfbench").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"

# Library API that no program calls, with the reason each name stays.
EXEMPT = {
    "verdict_at": "the verdict if nothing more is seen by a later time; "
                  "the README shows it and the engine tests check it",
}


def definitions() -> dict[str, set[tuple[Path, int]]]:
    """Each function, method and class name that is not ``__*__``, with
    the lines that define it."""
    found: dict[str, set[tuple[Path, int]]] = {}
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                found.setdefault(node.name, set()).add((path, node.lineno))
    return found


def span_targets() -> set[str]:
    """Each part of the dotted paths in the ``*_TARGETS`` tables of
    ``perfbench/spans.py``, which it wraps by name."""
    found: set[str] = set()
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if (isinstance(node, ast.Assign)
                and node.targets[0].id.endswith("_TARGETS")):
            for _, dotted, *_ in ast.literal_eval(node.value):
                found.update(dotted.split("."))
    return found


def references() -> set[str]:
    """Each name that code in ``src/`` or ``perfbench/`` reads, and each
    name that ``perfbench/spans.py`` wraps."""
    found = span_targets()
    for path in SCANNED:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_name_has_a_caller_outside_the_tests():
    unused = set(definitions()) - references() - set(EXEMPT)
    assert sorted(unused) == []


def test_span_targets_are_found():
    assert {"Monitor", "observe", "subtract", "main"} <= span_targets()


def test_every_exemption_is_still_defined():
    assert set(EXEMPT) <= set(definitions())


def test_every_module_level_import_is_used():
    unused = []
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).partition(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}"
                       for name in names if name not in used]
    assert unused == []


IV = Interval(3, False, 5, True)

# Per type: its fields in their documented order, and values for them.
VALUE_TYPES = {
    Interval: (("lo", "lo_strict", "hi", "hi_strict"), (3, False, 5, True)),
    SymbolicState: (("location", "zone"), ("q0", DBM.universal(2))),
    LatencyReport: (("positive", "negative", "jitter"), ((IV,), (), 2)),
    IOLatencyReport: (
        ("positive_input", "positive_output", "positive_combined",
         "negative_input", "negative_output", "negative_combined",
         "input_jitter", "output_jitter"),
        ((IV,), (IV, IV), (), (), (IV,), (), 1, 2)),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_value_type_contract(cls):
    names, values = VALUE_TYPES[cls]
    v = cls(*values)
    assert [getattr(v, n) for n in names] == list(values)
    with pytest.raises(AttributeError):
        setattr(v, names[0], values[0])
    same = cls(*values)
    assert v == same and hash(v) == hash(same)
    other = cls(*values[:-1], "changed")
    assert v != other


def test_interval_repr():
    assert repr(IV) == "Interval(lo=3, lo_strict=False, hi=5, hi_strict=True)"
