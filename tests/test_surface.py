"""Every function, method and class in ``src/`` has a caller outside the
tests.

The scan is a floor, not a call graph: a whole-word mention anywhere in
``src/`` or ``perfbench/`` other than a definition of the name counts,
a mention in a docstring or a comment included.  So it catches code that
only tests reach, but not every dead name."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "delaymon").glob("*.py"))
SCANNED = SRC + sorted((ROOT / "perfbench").glob("*.py"))

# Library API that no program calls, with the reason each name stays.
EXEMPT = {
    "difference_bounds": "a zone's range of one clock difference; the "
                         "worked-example tests read the zones with it",
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


def test_every_name_has_a_caller_outside_the_tests():
    lines = [(path, k, line) for path in SCANNED
             for k, line in enumerate(path.read_text().splitlines(), 1)]
    unused = []
    for name, where in sorted(definitions().items()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if name not in EXEMPT and not any(
                (path, k) not in where and word.search(line)
                for path, k, line in lines):
            unused.append(name)
    assert unused == []


def test_every_exemption_is_still_defined():
    assert set(EXEMPT) <= set(definitions())
